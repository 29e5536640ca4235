// The FPGAReader event loop — Algorithm 1 of the paper, plus the
// failure policy (retry scheduling, command timeouts, degraded-mode
// rescue) layered on top of it. Split out of booster.go so the Booster
// lifecycle (construction, telemetry, cache, teardown) reads separately
// from the per-epoch machinery.

package core

import (
	"errors"
	"fmt"
	"time"

	"dlbooster/internal/fpga"
	"dlbooster/internal/hugepage"
	"dlbooster/internal/metrics"
)

// building tracks one batch buffer being filled by in-flight decodes.
// When the epoch cache is on it also carries what admission needs:
// the items' DataRefs (so an evicted entry stays re-decodable) and the
// build start time (so the entry's decode cost — what eviction would
// pay to recompute — is measured, not guessed).
type building struct {
	batch       *Batch
	outstanding int
	sealed      bool
	refs        []fpga.DataRef
	startedAt   time.Time
}

// pendingSlot maps an in-flight command to its batch slot, carrying
// what the failure policy needs: the command itself for resubmission,
// the attempt count, the submit time for timeout detection, and — when
// the command is held host-side between a failed attempt and its
// retry — the earliest time the resubmission may go out.
type pendingSlot struct {
	bld       *building
	slot      int
	cmd       fpga.Cmd
	attempts  int
	submitted time.Time
	retryAt   time.Time // zero = in the board; set = awaiting scheduled retry
}

// RunEpoch drives one pass of the collector through the FPGA decoder —
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
	imageBytes := b.cfg.OutW * b.cfg.OutH * b.cfg.Channels
	res := b.cfg.Resilience
	pending := make(map[uint64]pendingSlot)
	var cur *building
	stream, _ := col.(StreamingCollector)
	// Dynamic batching: flushAt is the deadline by which the building
	// batch must seal even if short — armed when its first item lands,
	// disarmed at every seal. Only meaningful with BatchTimeout set and
	// a streaming collector. bt is re-read from the knob at every
	// deadline arm (see SetBatchTimeout's ordering contract), so a
	// runtime retune applies from the next batch, never mid-batch.
	bt := b.BatchTimeout()
	var flushAt time.Time
	// offloadAcc is the error-diffusion accumulator of the fractional
	// CPU-share knob: it gains CPUShare per submission and routes one
	// item to the CPU decode path each time it crosses 1, spreading the
	// offloaded items evenly through the batch instead of bursting.
	var offloadAcc float64

	// live tracks every buffer this epoch has taken from the pool but
	// not yet published. On an abnormal exit (pool or decoder closed
	// mid-epoch) those buffers are returned so the get/recycle ledger
	// stays balanced — the accounting invariant the chaos tests assert.
	live := make(map[*building]bool)
	defer func() {
		for bld := range live {
			_ = b.pool.Put(bld.batch.Buf) // Push may fail post-Close; the checkout is cleared regardless
		}
	}()

	// finishIfDone publishes a batch once it is sealed with no decodes
	// in flight. outstanding is exact — each submitted command is
	// settled exactly once (FINISH, retry exhaustion, or timeout) — so
	// the condition fires exactly once per batch.
	finishIfDone := func(bld *building) error {
		if bld.sealed && bld.outstanding == 0 {
			if err := b.finishBatch(bld); err != nil {
				// Publish failed (queue closed mid-teardown): the buffer
				// stays in live so the epoch cleanup recycles it.
				return err
			}
			delete(live, bld)
		}
		return nil
	}

	// seal stops the building batch accepting items and publishes it as
	// soon as its in-flight decodes settle. partial marks a
	// deadline-flushed short batch (dynamic batching) as opposed to a
	// full batch or the end-of-stream flush.
	seal := func(partial bool) error {
		cur.sealed = true
		if partial {
			b.partialFlush.Add(1)
		}
		if tr := cur.batch.Trace; tr != nil {
			tr.Sealed = time.Now()
		}
		err := finishIfDone(cur)
		cur = nil
		flushAt = time.Time{}
		return err
	}

	// settleFPGASuccess and settleFailure are the only two ways a
	// pending command resolves; both decrement outstanding.
	settleSuccess := func(ps pendingSlot) error {
		b.noteFPGASuccess()
		b.images.Add(1)
		if b.traced {
			b.reg.ObserveSince(metrics.StageFPGADecode, ps.submitted)
		}
		if tr := ps.bld.batch.Trace; tr != nil {
			tr.FPGA++
		}
		ps.bld.batch.Valid[ps.slot] = true
		ps.bld.outstanding--
		return finishIfDone(ps.bld)
	}
	// settleFailure resolves a command whose FPGA decode finally failed
	// (retries exhausted, submission shed, or timed out). With fallback
	// configured the item is rescued by the CPU decode path — the
	// degradation of the failure model — otherwise its slot stays
	// invalid, the paper's original behaviour.
	settleFailure := func(ps pendingSlot) error {
		b.noteFPGAFailure()
		off := ps.slot * imageBytes
		dst := ps.bld.batch.Buf.Bytes()[off : off+imageBytes]
		var t0 time.Time
		if b.traced {
			t0 = time.Now()
		}
		if res.FallbackAfter > 0 && b.cpuDecode(ps.cmd.Data, dst) == nil {
			b.images.Add(1)
			b.fallbacks.Add(1)
			if b.traced {
				b.reg.ObserveSince(metrics.StageCPUFallback, t0)
			}
			if tr := ps.bld.batch.Trace; tr != nil {
				tr.Fallback++
			}
			ps.bld.batch.Valid[ps.slot] = true
		} else {
			b.errors.Add(1)
			if tr := ps.bld.batch.Trace; tr != nil {
				tr.Failed++
			}
			ps.bld.batch.Valid[ps.slot] = false
		}
		ps.bld.outstanding--
		return finishIfDone(ps.bld)
	}

	process := func(comps []fpga.Completion) error {
		for _, c := range comps {
			ps, ok := pending[c.ID]
			if !ok {
				return fmt.Errorf("core: completion for unknown cmd %d", c.ID)
			}
			if c.Err == nil {
				delete(pending, c.ID)
				if err := settleSuccess(ps); err != nil {
					return err
				}
				continue
			}
			if ps.attempts < res.MaxRetries && !b.degraded.Load() {
				// Schedule the retry by deadline instead of sleeping the
				// backoff inline: the reader keeps draining completions
				// and expiring timeouts for every other command while
				// this one waits its turn.
				ps.attempts++
				b.retries.Add(1)
				ps.retryAt = time.Now().Add(b.backoffDur(ps.attempts))
				pending[c.ID] = ps
				continue
			}
			delete(pending, c.ID)
			if err := settleFailure(ps); err != nil {
				return err
			}
		}
		return nil
	}

	// resubmitDue sends every host-held retry whose backoff has elapsed
	// back to the boards; a shed resubmission (full FIFO of a wedged
	// board) or a degraded-mode switch settles the command instead.
	resubmitDue := func() error {
		if len(pending) == 0 {
			return nil
		}
		now := time.Now()
		for id, ps := range pending {
			if ps.retryAt.IsZero() || now.Before(ps.retryAt) {
				continue
			}
			if b.degraded.Load() {
				delete(pending, id)
				if err := settleFailure(ps); err != nil {
					return err
				}
				continue
			}
			ok, err := b.resubmit(ps.cmd)
			if err != nil {
				return err
			}
			if !ok {
				delete(pending, id)
				b.timeouts.Add(1)
				if err := settleFailure(ps); err != nil {
					return err
				}
				continue
			}
			ps.retryAt = time.Time{}
			ps.submitted = now
			pending[id] = ps
		}
		return nil
	}

	// nextRetry returns the wait until the earliest scheduled retry.
	nextRetry := func() (time.Duration, bool) {
		var earliest time.Time
		for _, ps := range pending {
			if ps.retryAt.IsZero() {
				continue
			}
			if earliest.IsZero() || ps.retryAt.Before(earliest) {
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

	// expire settles every in-board command whose FINISH is overdue —
	// the only way a wedged board's swallowed commands ever resolve.
	// Before a slot is settled (and its buffer thereby becomes eligible
	// for publishing and recycling) the command is revoked on its board:
	// Cancel returns only once no DMA write for it can ever land, so a
	// merely-slow board cannot scribble over a rescued slot or a reused
	// buffer later. When the revocation loses the race the FINISH is
	// already in the completion stream — the command is not lost, just
	// slow — so it stays pending with a fresh clock and settles normally.
	expire := func() error {
		if res.CmdTimeout <= 0 || len(pending) == 0 {
			return nil
		}
		now := time.Now()
		for id, ps := range pending {
			if !ps.retryAt.IsZero() {
				continue // host-held awaiting retry: nothing in the board
			}
			if now.Sub(ps.submitted) < res.CmdTimeout {
				continue
			}
			if !b.ch.Cancel(id) {
				b.lateFinishes.Add(1)
				ps.submitted = now
				pending[id] = ps
				continue
			}
			delete(pending, id)
			b.timeouts.Add(1)
			b.flight.Note("cmd_revoked",
				fmt.Sprintf("cmd %d revoked after %v without FINISH", id, res.CmdTimeout))
			if err := settleFailure(ps); err != nil {
				return err
			}
		}
		return nil
	}

	// awaitOne blocks for the next FINISH from any board. The wait is
	// bounded by a fraction of the command timeout (so a stuck board
	// cannot park the reader past its own detection threshold) and by
	// the earliest scheduled retry (so a backing-off command is
	// resubmitted on time even when no FINISH ever arrives).
	awaitOne := func() error {
		if err := resubmitDue(); err != nil {
			return err
		}
		if len(pending) == 0 {
			return nil
		}
		wait := time.Duration(-1)
		if res.CmdTimeout > 0 {
			wait = res.CmdTimeout / 4
		}
		if d, ok := nextRetry(); ok && (wait < 0 || d < wait) {
			wait = d
		}
		if wait < 0 {
			comp, err := b.ch.WaitCompletion()
			if err != nil {
				return fmt.Errorf("core: decoder closed mid-epoch: %w", err)
			}
			return process(append([]fpga.Completion{comp}, b.ch.DrainOut()...))
		}
		comp, ok, err := b.ch.WaitCompletionTimeout(wait)
		if err != nil {
			return fmt.Errorf("core: decoder closed mid-epoch: %w", err)
		}
		if ok {
			if err := process(append([]fpga.Completion{comp}, b.ch.DrainOut()...)); err != nil {
				return err
			}
		}
		if err := expire(); err != nil {
			return err
		}
		return resubmitDue()
	}

	// poll is the non-blocking sweep between submissions: drain FINISH
	// signals, expire overdue commands, send due retries.
	poll := func() error {
		if err := process(b.ch.DrainOut()); err != nil {
			return err
		}
		if err := expire(); err != nil {
			return err
		}
		return resubmitDue()
	}

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
				if cur != nil && bt > 0 && !time.Now().Before(flushAt) {
					// Deadline flush: the oldest item of the building
					// batch has waited out BatchTimeout. Seal and
					// dispatch the partial batch instead of stalling
					// until arrivals fill it — the bounded-latency
					// contract of the online workflow (Figure 8).
					if err := seal(true); err != nil {
						return err
					}
				}
				if len(pending) == 0 && (cur == nil || bt <= 0) {
					item, ok = col.Next()
					break
				}
				wait := 200 * time.Microsecond
				if cur != nil && bt > 0 {
					if d := time.Until(flushAt); d < wait {
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
				if err := poll(); err != nil {
					return err
				}
			}
		}
		if !ok {
			break
		}
		b.collected.Add(1)
		var collectedAt time.Time
		if b.spanned {
			collectedAt = time.Now()
		}
		if cur == nil {
			// Algorithm 1 lines 5–10: peek the free queue; while no
			// buffer is available and decodes are still in flight,
			// process completions (blocking on the FINISH queue rather
			// than the pool — a buffer can only come back through a
			// finished batch or through the consumer, and blocking on
			// the pool alone would deadlock when every buffer belongs
			// to a batch whose completions nobody is draining).
			for !b.pool.Available() && len(pending) > 0 {
				if err := awaitOne(); err != nil {
					return err
				}
			}
			buf, err := b.pool.Get()
			if err != nil {
				return fmt.Errorf("core: memory pool closed: %w", err)
			}
			cur = b.newBuilding(buf)
			if tr := cur.batch.Trace; tr != nil {
				tr.Collected = collectedAt
				tr.BufAcquired = time.Now()
			}
			live[cur] = true
			// The first item of a batch arms its flush deadline — and
			// re-reads the knob, the point SetBatchTimeout's ordering
			// contract pins: a retune is effective here, at the next arm.
			bt = b.BatchTimeout()
			if bt > 0 {
				flushAt = time.Now().Add(bt)
			}
		}
		slot := cur.batch.Images
		cur.batch.Images++
		cur.batch.Metas = append(cur.batch.Metas, item.Meta)
		cur.batch.Valid = append(cur.batch.Valid, false)
		if b.cache != nil {
			cur.refs = append(cur.refs, item.Ref)
		}
		b.cmdID++
		// Algorithm 1 lines 11–12: encapsulate the physical address
		// (base + offset of this datum in the batch) into the cmd.
		cmd := fpga.Cmd{
			ID:       b.cmdID,
			Data:     item.Ref,
			DMAAddr:  cur.batch.Buf.PhysAddr(),
			DMAOff:   slot * imageBytes,
			OutW:     b.cfg.OutW,
			OutH:     b.cfg.OutH,
			Channels: b.cfg.Channels,
		}
		degraded := b.degraded.Load()
		offload := false
		if !degraded {
			// Fractional FPGA/CPU split (SetCPUShare): the knob is
			// re-read per submission, so a retune takes effect on the
			// very next item. Degraded mode overrides the share — every
			// decode is already on the CPU and counted as a fallback.
			if share := b.CPUShare(); share > 0 {
				offloadAcc += share
				if offloadAcc >= 1 {
					offloadAcc--
					offload = true
				}
			}
		}
		if degraded || offload {
			// Decode rerouted to the CPU backend path, bypassing the
			// decoder entirely — the failure policy's degraded mode, or
			// the offload knob's deliberate load-splitting.
			dst := cur.batch.Buf.Bytes()[cmd.DMAOff : cmd.DMAOff+imageBytes]
			var t0 time.Time
			if b.traced {
				t0 = time.Now()
			}
			if b.cpuDecode(item.Ref, dst) == nil {
				b.images.Add(1)
				if offload {
					b.offloads.Add(1)
					if b.traced {
						b.reg.ObserveSince(metrics.StageCPUOffload, t0)
					}
				} else {
					b.fallbacks.Add(1)
					if b.traced {
						b.reg.ObserveSince(metrics.StageCPUFallback, t0)
					}
				}
				if tr := cur.batch.Trace; tr != nil {
					tr.Fallback++
				}
				cur.batch.Valid[slot] = true
			} else {
				b.errors.Add(1)
				if tr := cur.batch.Trace; tr != nil {
					tr.Failed++
				}
			}
		} else {
			submitted := true
			var err error
			if res.CmdTimeout > 0 {
				submitted, err = b.ch.SubmitCmdTimeout(cmd, res.CmdTimeout)
			} else {
				err = b.ch.SubmitCmd(cmd)
			}
			if err != nil {
				return err
			}
			cur.outstanding++
			ps := pendingSlot{bld: cur, slot: slot, cmd: cmd, submitted: time.Now()}
			if submitted {
				pending[cmd.ID] = ps
			} else {
				// The FIFO never accepted the command — a wedged board.
				// Settle host-side without waiting for a FINISH that
				// cannot come.
				b.timeouts.Add(1)
				if err := settleFailure(ps); err != nil {
					return err
				}
			}
		}
		// Lines 13–15: pull processed batches with best effort.
		if err := poll(); err != nil {
			return err
		}
		if cur.batch.Images == b.cfg.BatchSize {
			// A full batch seals here; with every slot already settled
			// (pure degraded mode) no FINISH will arrive to publish the
			// batch, so finishIfDone inside seal does it.
			if err := seal(false); err != nil {
				return err
			}
		}
	}
	// Flush: seal the partial batch and wait out all in-flight decodes.
	if cur != nil {
		if err := seal(false); err != nil {
			return err
		}
	}
	for len(pending) > 0 {
		if err := awaitOne(); err != nil {
			return err
		}
	}
	return nil
}

// resubmit re-queues a retried command. Under a command timeout the
// push is bounded, so the full FIFO of a wedged board sheds the retry
// (ok=false) instead of deadlocking the reader.
func (b *Booster) resubmit(cmd fpga.Cmd) (bool, error) {
	if t := b.cfg.Resilience.CmdTimeout; t > 0 {
		return b.ch.SubmitCmdTimeout(cmd, t)
	}
	return true, b.ch.SubmitCmd(cmd)
}

func (b *Booster) newBuilding(buf *hugepage.Buffer) *building {
	b.seq++
	batch := &Batch{
		Buf: buf,
		W:   b.cfg.OutW, H: b.cfg.OutH, C: b.cfg.Channels,
		Seq: b.seq,
	}
	if b.spanned {
		batch.Trace = &metrics.Span{Batch: b.seq}
	}
	bld := &building{batch: batch}
	if b.cache != nil {
		bld.startedAt = time.Now()
	}
	return bld
}

// finishBatch timestamps, optionally caches, and publishes a batch.
func (b *Booster) finishBatch(bld *building) error {
	batch := bld.batch
	if batch.Images == 0 {
		// An empty sealed batch (stream ended exactly at a boundary):
		// return the buffer instead of publishing nothing.
		return b.pool.Put(batch.Buf)
	}
	batch.AssembledAt = time.Now()
	if tr := batch.Trace; tr != nil {
		tr.Published = batch.AssembledAt
		tr.Images = batch.Images
	}
	if b.traced {
		// Fill ratio (0..1], not milliseconds: 1.0 is a full batch, a
		// low tail means deadline flushes are trading throughput for
		// latency (see docs/METRICS.md).
		b.reg.Observe(metrics.StageBatchFill, float64(batch.Images)/float64(b.cfg.BatchSize))
	}
	if b.cache != nil && !b.replaying.Load() {
		// Admit with the measured decode cost (build start → assembly),
		// so the eviction policy knows what re-decoding would pay.
		cost := float64(batch.AssembledAt.Sub(bld.startedAt).Nanoseconds())
		b.cache.Add(batch, bld.refs, cost)
	}
	if err := b.full.Push(batch); err != nil {
		return err
	}
	b.published.Add(1)
	return nil
}
