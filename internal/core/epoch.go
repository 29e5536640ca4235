// The FPGAReader event loop — Algorithm 1 of the paper, plus placement
// (boards or host lanes) and the failure policy (retry scheduling,
// command timeouts, degraded-mode rescue) layered on top of it. RunEpoch
// is the collector loop; the per-epoch state and every transition on it live in epochState, so
// each can be exercised against a fake decoder (epoch_model_test.go).

package core

import (
	"errors"
	"fmt"
	"time"

	"dlbooster/internal/fpga"
	"dlbooster/internal/metrics"
)

// The epoch state machine sends each command to one of two decoders,
// *FPGAChannel or *hostLanes (host.go), and reads every FINISH from the
// Booster's one stream; a test substitutes scripted fakes for all three.
type (
	// boardDecoder can wedge: a submit may be shed and a command revoked.
	boardDecoder interface {
		SubmitCmd(fpga.Cmd) error
		SubmitCmdTimeout(fpga.Cmd, time.Duration) (bool, error)
		Cancel(id uint64) bool
	}
	// laneDecoder cannot: every command it accepts raises a FINISH.
	laneDecoder  interface{ SubmitCmd(fpga.Cmd) error }
	finishStream interface {
		DrainOut(buf []fpga.Completion) []fpga.Completion
		WaitCompletion() (fpga.Completion, error)
		WaitCompletionTimeout(time.Duration) (fpga.Completion, bool, error)
	}
)

// placement is where a command runs and what its success is booked as:
// the Booster's own decoder (its boards, or the lanes of a Booster that
// has none), or the lanes as the CPU-share knob's offload or as the
// failure policy's fallback (degraded mode, or a failed board command).
type placement uint8

const (
	onBoards placement = iota
	offloaded
	fallenBack
)

// building tracks one batch buffer being filled by in-flight decodes.
// It also carries what cache admission needs: the items' DataRefs
// (captured when the epoch cache is on, so an evicted entry stays
// re-decodable) and the build start time (so the entry's decode cost —
// what eviction would pay to recompute — is measured, not guessed).
type building struct {
	batch       *Batch
	outstanding int
	sealed      bool
	refs        []fpga.DataRef
	startedAt   time.Time
}

// pendingSlot maps an in-flight command to its batch slot, carrying
// what the failure policy needs: its placement, the command itself for
// resubmission, the attempt count, the submit time for timeout
// detection, and — when the command is held host-side between a failed
// attempt and its retry — the earliest time the resubmission may go out.
type pendingSlot struct {
	bld       *building
	slot      int
	place     placement
	cmd       fpga.Cmd
	attempts  int
	submitted time.Time
	retryAt   time.Time // zero = in a decoder; set = awaiting scheduled retry
}

// epochState is one pass of the FPGAReader: the batch being filled, the
// commands in flight and the knob values latched for the current batch.
type epochState struct {
	b       *Booster
	boards  boardDecoder // nil: every command runs on the lanes
	lanes   laneDecoder
	fin     finishStream
	res     Resilience
	pending map[uint64]*pendingSlot
	cur     *building
	// Settled slots (too big for a map to store by value without a heap
	// object each) and the FINISH burst buffer are reused across commands.
	idle  []*pendingSlot
	comps []fpga.Completion
	// live tracks every buffer this epoch has taken from the pool but
	// not yet handed to publish. On an abnormal exit (pool or decoder
	// closed mid-epoch) release returns them so the get/recycle ledger
	// stays balanced — the accounting invariant the chaos tests assert.
	live map[*building]bool
	// Dynamic batching: flushAt is the deadline by which the building
	// batch must seal even if short — armed when its first item lands,
	// disarmed at every seal. Only meaningful with bt > 0 and a
	// streaming collector. bt is re-read from the knob at every deadline
	// arm (see SetBatchTimeout's ordering contract), so a runtime retune
	// applies from the next batch, never mid-batch.
	bt      time.Duration
	flushAt time.Time
	// offloadAcc is the error-diffusion accumulator of the fractional
	// CPU-share knob: it gains CPUShare per submission and places one
	// item on the host lanes each time it crosses 1, spreading the
	// offloaded items evenly through the batch instead of bursting.
	offloadAcc float64
	// fill is the last sealed batch's image count, the next batch's
	// capacity: full batches when training, a few images when serving.
	fill int
}

func newEpochState(b *Booster, boards boardDecoder, lanes laneDecoder, fin finishStream) *epochState {
	return &epochState{
		b: b, boards: boards, lanes: lanes, fin: fin, res: b.cfg.Resilience,
		pending: make(map[uint64]*pendingSlot),
		live:    make(map[*building]bool),
		bt:      b.BatchTimeout(),
		fill:    b.batchSize,
	}
}

// RunEpoch drives one pass of the collector through the decoders —
// Algorithm 1 of the paper. It returns once every input item has been
// decoded (or failed) and every completed batch is on the Full queue. A
// consumer must drain Batches() concurrently, or the pool back-pressure
// will pause the reader once all buffers are in flight.
//
// When the cache is enabled, processed batches are also retained in
// memory (until the limit), making later epochs servable by ReplayCache.
//
// A failed epoch records a backend_error event (which an attached
// flight recorder turns into a post-mortem dump), and a panic on the
// epoch goroutine dumps the recorder before it propagates — here, not
// in each caller, so every launcher of an epoch gets both.
func (b *Booster) RunEpoch(col DataCollector) (err error) {
	defer b.flight.DumpOnPanic()
	defer func() {
		if err != nil {
			b.reg.Event("backend_error", err.Error())
		}
	}()
	if col == nil {
		return errors.New("core: nil collector")
	}
	var boards boardDecoder
	if b.boards != nil {
		boards = b.boards
	}
	e := newEpochState(b, boards, b.lanes, b.fin)
	defer e.release()
	return e.run(col)
}

// run is the collector loop: admit every item, then flush.
func (e *epochState) run(col DataCollector) error {
	stream, _ := col.(StreamingCollector)
	for {
		var item Item
		var ok bool
		if stream == nil {
			item, ok = col.Next()
		} else {
			// Streaming input can pause indefinitely; keep draining
			// FINISH signals while waiting so in-flight batches publish
			// promptly (the FPGA-handler daemon's job in §3.2 — the
			// paper's closed-loop workload never pauses, but an online
			// server's arrivals do).
			for {
				deadline := e.cur != nil && e.bt > 0
				if deadline && !time.Now().Before(e.flushAt) {
					// Deadline flush: the oldest item of the building
					// batch has waited out BatchTimeout. Seal and
					// dispatch the partial batch instead of stalling
					// until arrivals fill it — the bounded-latency
					// contract of the online workflow (Figure 8).
					if err := e.seal(true); err != nil {
						return err
					}
					deadline = false
				}
				if len(e.pending) == 0 && !deadline {
					item, ok = col.Next()
					break
				}
				wait := 200 * time.Microsecond
				if deadline {
					if d := time.Until(e.flushAt); d < wait {
						wait = d
					}
					if wait <= 0 {
						continue // flush deadline already due
					}
				}
				var alive bool
				item, ok, alive = stream.NextTimeout(wait)
				if ok || !alive {
					break
				}
				if err := e.poll(); err != nil {
					return err
				}
			}
		}
		if !ok {
			break
		}
		if err := e.admit(item); err != nil {
			return err
		}
	}
	// Flush: seal the partial batch and wait out all in-flight decodes.
	if e.cur != nil {
		if err := e.seal(false); err != nil {
			return err
		}
	}
	for len(e.pending) > 0 {
		if err := e.await(); err != nil {
			return err
		}
	}
	return nil
}

// release returns the buffers of batches that never reached publish.
func (e *epochState) release() {
	for bld := range e.live {
		_ = e.b.pool.Put(bld.batch.Buf) // Push may fail post-Close; the checkout is cleared regardless
	}
}

// admit places one collected item in the building batch (opening one if
// needed) and submits its decode: to the host lanes when the Booster has
// no boards, is degraded or the offload knob's turn has come, otherwise
// to the boards.
func (e *epochState) admit(item Item) error {
	b := e.b
	b.collected.Add(1)
	if e.cur == nil {
		if err := e.open(); err != nil {
			return err
		}
	}
	cur := e.cur
	slot := cur.batch.Images
	cur.batch.Images++
	cur.batch.Metas = append(cur.batch.Metas, item.Meta)
	cur.batch.Valid = append(cur.batch.Valid, false)
	if b.cache != nil {
		cur.refs = append(cur.refs, item.Ref)
	}
	place := onBoards
	switch {
	case e.boards == nil:
	case b.degraded.Load():
		// Degraded mode overrides the share: every decode is already
		// on the lanes and counted as a fallback.
		place = fallenBack
	case e.offloadDue():
		place = offloaded
	}
	b.cmdID++
	cur.outstanding++
	// Algorithm 1 lines 11–12: encapsulate the physical address (base +
	// offset of this datum in the batch) into the cmd.
	var ps *pendingSlot
	if n := len(e.idle); n > 0 {
		ps, e.idle = e.idle[n-1], e.idle[:n-1]
	} else {
		ps = new(pendingSlot)
	}
	*ps = pendingSlot{bld: cur, slot: slot, place: place, cmd: fpga.Cmd{
		ID:       b.cmdID,
		Data:     item.Ref,
		DMAAddr:  cur.batch.Buf.PhysAddr(),
		DMAOff:   slot * cur.batch.ImageBytes(),
		OutW:     b.cfg.OutW,
		OutH:     b.cfg.OutH,
		Channels: b.cfg.Channels,
	}}
	if err := e.submit(ps); err != nil {
		return err
	}
	// Lines 13–15: pull processed batches with best effort.
	if err := e.poll(); err != nil {
		return err
	}
	if cur.batch.Images == b.cfg.BatchSize {
		return e.seal(false)
	}
	return nil
}

// open starts a building batch. Algorithm 1 lines 5–10: peek the free
// queue; while no buffer is available and decodes are still in flight,
// process completions (blocking on the FINISH queue rather than the
// pool — a buffer can only come back through a finished batch or
// through the consumer, and blocking on the pool alone would deadlock
// when every buffer belongs to a batch whose completions nobody is
// draining).
func (e *epochState) open() error {
	b := e.b
	var collectedAt time.Time
	if b.spanned {
		collectedAt = time.Now()
	}
	for !b.pool.Available() && len(e.pending) > 0 {
		if err := e.await(); err != nil {
			return err
		}
	}
	batch, err := b.acquire()
	if err != nil {
		return err
	}
	// Sized like the last batch, so admit's appends rarely grow them.
	batch.Metas = make([]ItemMeta, 0, e.fill)
	batch.Valid = make([]bool, 0, e.fill)
	e.cur = &building{batch: batch, startedAt: time.Now()}
	if b.cache != nil {
		e.cur.refs = make([]fpga.DataRef, 0, e.fill)
	}
	e.live[e.cur] = true
	if tr := batch.Trace; tr != nil {
		tr.Collected = collectedAt
		tr.BufAcquired = time.Now()
	}
	// The first item of a batch arms its flush deadline — and re-reads
	// the knob, the point SetBatchTimeout's ordering contract pins: a
	// retune is effective here, at the next arm.
	e.bt = b.BatchTimeout()
	if e.bt > 0 {
		e.flushAt = time.Now().Add(e.bt)
	}
	return nil
}

// offloadDue advances the fractional FPGA/CPU split (SetCPUShare) by one
// submission and reports whether this item is the host lanes'. The knob is
// re-read per submission, so a retune takes effect on the very next item.
func (e *epochState) offloadDue() bool {
	share := e.b.CPUShare()
	if share <= 0 {
		return false
	}
	e.offloadAcc += share
	if e.offloadAcc < 1 {
		return false
	}
	e.offloadAcc--
	return true
}

// onLanes reports whether ps runs on the host lanes.
func (e *epochState) onLanes(ps *pendingSlot) bool {
	return ps.place != onBoards || e.boards == nil
}

// submit sends a command — a first attempt, a due retry or a rescue — to
// its decoder and records it pending. A lane cannot wedge, so a lane
// submit is unbounded. Under a command timeout a board push is bounded,
// so the full FIFO of a wedged board sheds the command instead of
// deadlocking the reader; a shed command is settled host-side without
// waiting for a FINISH that cannot come.
func (e *epochState) submit(ps *pendingSlot) error {
	accepted := true
	var err error
	switch t := e.res.CmdTimeout; {
	case e.onLanes(ps):
		err = e.lanes.SubmitCmd(ps.cmd)
	case t > 0:
		accepted, err = e.boards.SubmitCmdTimeout(ps.cmd, t)
	default:
		err = e.boards.SubmitCmd(ps.cmd)
	}
	if err != nil {
		return err
	}
	if !accepted {
		return e.timeOut(ps)
	}
	ps.submitted, ps.retryAt = time.Now(), time.Time{}
	e.pending[ps.cmd.ID] = ps
	return nil
}

// seal stops the building batch accepting items and publishes it as
// soon as its in-flight decodes settle. partial marks a
// deadline-flushed short batch (dynamic batching) as opposed to a
// full batch or the end-of-stream flush.
func (e *epochState) seal(partial bool) error {
	cur := e.cur
	cur.sealed = true
	e.fill = cur.batch.Images
	if partial {
		e.b.partialFlush.Add(1)
	}
	if tr := cur.batch.Trace; tr != nil {
		tr.Sealed = time.Now()
	}
	e.cur = nil
	e.flushAt = time.Time{}
	return e.finishIfDone(cur)
}

// finishIfDone publishes a batch once it is sealed with no decodes
// in flight. outstanding is exact — each submitted command is
// settled exactly once (FINISH, retry exhaustion, or timeout) — so
// the condition fires exactly once per batch. publish takes the buffer
// whether or not the push succeeds, so the batch leaves live either way.
func (e *epochState) finishIfDone(bld *building) error {
	if !bld.sealed || bld.outstanding > 0 {
		return nil
	}
	delete(e.live, bld)
	return e.b.publish(bld.batch, bld.refs, bld.startedAt)
}

// settleSuccess and settleFailure are the only two ways a pending
// command resolves; both decrement outstanding and retire the slot. A
// success books by placement, its span running from submit to FINISH.
func (e *epochState) settleSuccess(ps *pendingSlot) error {
	b := e.b
	b.settle(ps.bld.batch, ps.slot, true)
	stage := metrics.StageFPGADecode
	switch ps.place {
	case onBoards:
		b.noteFPGASuccess()
	case offloaded:
		b.offloads.Add(1)
		stage = metrics.StageCPUOffload
	case fallenBack:
		b.fallbacks.Add(1)
		stage = metrics.StageCPUFallback
	}
	if b.traced {
		b.reg.ObserveSince(stage, ps.submitted)
	}
	if tr := ps.bld.batch.Trace; tr != nil {
		if ps.place == onBoards {
			tr.FPGA++
		} else {
			tr.Fallback++
		}
	}
	return e.retire(ps)
}

// settleFailure resolves a command whose decode finally failed (retries
// exhausted, submission shed, or timed out). A board failure feeds the
// degradation streak and, with fallback configured, is resubmitted to
// the lanes with a fresh retry budget. Otherwise, and always on the
// lanes, the slot stays invalid: the paper's original behaviour.
func (e *epochState) settleFailure(ps *pendingSlot) error {
	if !e.onLanes(ps) {
		e.b.noteFPGAFailure()
		if e.res.FallbackAfter > 0 {
			ps.place, ps.attempts = fallenBack, 0
			return e.submit(ps)
		}
	}
	e.b.settle(ps.bld.batch, ps.slot, false)
	if tr := ps.bld.batch.Trace; tr != nil {
		tr.Failed++
	}
	return e.retire(ps)
}

// retire closes a settled command's account with its batch and parks the
// slot for the next command.
func (e *epochState) retire(ps *pendingSlot) error {
	bld := ps.bld
	bld.outstanding--
	e.idle = append(e.idle, ps)
	return e.finishIfDone(bld)
}

// timeOut settles a command the boards will never answer: shed at
// submission, or revoked after its FINISH was overdue.
func (e *epochState) timeOut(ps *pendingSlot) error {
	delete(e.pending, ps.cmd.ID)
	e.b.timeouts.Add(1)
	return e.settleFailure(ps)
}

// process settles a burst of FINISH signals: success, a scheduled
// retry, or final failure.
func (e *epochState) process(comps []fpga.Completion) error {
	for _, c := range comps {
		ps, ok := e.pending[c.ID]
		if !ok {
			return fmt.Errorf("core: completion for unknown cmd %d", c.ID)
		}
		var err error
		switch {
		case c.Err == nil:
			delete(e.pending, c.ID)
			err = e.settleSuccess(ps)
		case ps.attempts < e.res.MaxRetries && (e.onLanes(ps) || !e.b.degraded.Load()):
			// Schedule the retry by deadline instead of sleeping the
			// backoff inline: the reader keeps draining completions
			// and expiring timeouts for every other command while
			// this one waits its turn.
			ps.attempts++
			e.b.retries.Add(1)
			ps.retryAt = time.Now().Add(e.b.backoffDur(ps.attempts))
		default:
			delete(e.pending, c.ID)
			err = e.settleFailure(ps)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// resubmitDue sends every host-held retry whose backoff has elapsed
// back to its decoder; a shed resubmission (full FIFO of a wedged
// board) or a degraded-mode switch settles a board command instead.
func (e *epochState) resubmitDue() error {
	if len(e.pending) == 0 {
		return nil
	}
	now := time.Now()
	for id, ps := range e.pending {
		if ps.retryAt.IsZero() || now.Before(ps.retryAt) {
			continue
		}
		var err error
		if !e.onLanes(ps) && e.b.degraded.Load() {
			delete(e.pending, id)
			err = e.settleFailure(ps)
		} else {
			err = e.submit(ps)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// nextRetry returns the wait until the earliest scheduled retry.
func (e *epochState) nextRetry() (time.Duration, bool) {
	var earliest time.Time
	for _, ps := range e.pending {
		if !ps.retryAt.IsZero() && (earliest.IsZero() || ps.retryAt.Before(earliest)) {
			earliest = ps.retryAt
		}
	}
	if earliest.IsZero() {
		return 0, false
	}
	d := time.Until(earliest)
	if d < 0 {
		d = 0
	}
	return d, true
}

// expire settles every board command whose FINISH is overdue —
// the only way a wedged board's swallowed commands ever resolve.
// Before a slot is settled (and its buffer thereby becomes eligible
// for publishing and recycling) the command is revoked on its board:
// Cancel returns only once no DMA write for it can ever land, so a
// merely-slow board cannot scribble over a rescued slot or a reused
// buffer later. When the revocation loses the race the FINISH is
// already in the completion stream — the command is not lost, just
// slow — so it stays pending with a fresh clock and settles normally.
func (e *epochState) expire() error {
	if e.res.CmdTimeout <= 0 || len(e.pending) == 0 {
		return nil
	}
	now := time.Now()
	for id, ps := range e.pending {
		if !ps.retryAt.IsZero() || e.onLanes(ps) {
			continue // awaiting retry, or on a lane, which always finishes
		}
		if now.Sub(ps.submitted) < e.res.CmdTimeout {
			continue
		}
		if !e.boards.Cancel(id) {
			e.b.lateFinishes.Add(1)
			ps.submitted = now
			continue
		}
		e.b.flight.Note("cmd_revoked",
			fmt.Sprintf("cmd %d revoked after %v without FINISH", id, e.res.CmdTimeout))
		if err := e.timeOut(ps); err != nil {
			return err
		}
	}
	return nil
}

// await blocks for the next FINISH from either decoder. The wait is
// bounded by a fraction of the command timeout (so a stuck board
// cannot park the reader past its own detection threshold) and by
// the earliest scheduled retry (so a backing-off command is
// resubmitted on time even when no FINISH ever arrives); with neither
// in play it is unbounded.
func (e *epochState) await() error {
	if err := e.resubmitDue(); err != nil {
		return err
	}
	if len(e.pending) == 0 {
		return nil
	}
	wait := time.Duration(-1)
	if e.res.CmdTimeout > 0 {
		wait = e.res.CmdTimeout / 4
	}
	if d, ok := e.nextRetry(); ok && (wait < 0 || d < wait) {
		wait = d
	}
	var comp fpga.Completion
	var err error
	got := true
	if wait < 0 {
		comp, err = e.fin.WaitCompletion()
	} else {
		comp, got, err = e.fin.WaitCompletionTimeout(wait)
	}
	if err != nil {
		return fmt.Errorf("core: decoder closed mid-epoch: %w", err)
	}
	e.comps = e.comps[:0]
	if got {
		e.comps = e.fin.DrainOut(append(e.comps, comp))
	}
	return e.sweep(e.comps)
}

// poll is the non-blocking sweep between submissions.
func (e *epochState) poll() error {
	e.comps = e.fin.DrainOut(e.comps[:0])
	return e.sweep(e.comps)
}

// sweep settles the given FINISH signals, expires overdue commands and
// sends due retries.
func (e *epochState) sweep(comps []fpga.Completion) error {
	if err := e.process(comps); err != nil {
		return err
	}
	if err := e.expire(); err != nil {
		return err
	}
	return e.resubmitDue()
}
