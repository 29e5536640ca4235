package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"dlbooster/internal/faults"
	"dlbooster/internal/fpga"
	"dlbooster/internal/pix"
	"dlbooster/internal/queue"
)

// Model test of the epoch state machine: epochState is driven through a
// scripted board and scripted host lanes instead of an fpga.Device, so
// every answer a board can give — FINISH, FINISH with an error, a FINISH
// that beats the revocation, silence, a shed submit — and every answer a
// lane can give — FINISH, with or without an error — is drawn from a
// seed, and the settle-exactly-once and buffer-ledger invariants are
// checked under hundreds of random placement and failure policies. Each
// seed also runs the same epoch on a board-less Booster, the baselines'
// shape: real host lanes (host.go), one and four of them, whose decodes
// fail or stall at random.

// fate is how the fake board answers one submission of a command.
type fate int

const (
	fateOK    fate = iota // FINISH, some polls later
	fateErr               // FINISH carrying an error, some polls later
	fateLate              // FINISH raised only as the revocation arrives: Cancel loses
	fateNever             // swallowed: no FINISH until revoked
	fateShed              // FIFO full: the bounded submit is refused
)

// fakeDecoder implements the board and the FINISH stream on the epoch
// goroutine alone (no locks), and its lanes field the host lanes:
// completions of both sit in delayed until a poll releases them into
// ready; held are the commands a wedged board swallowed. inBoard holds
// every command in either decoder, onLane those on a lane.
type fakeDecoder struct {
	t       *testing.T
	rng     *rand.Rand
	bounded bool // CmdTimeout set: late/never/shed fates are survivable
	held    map[uint64]fate
	delayed []fpga.Completion
	ready   []fpga.Completion
	inBoard map[uint64]bool
	onLane  map[uint64]bool
	// FINISHes taken by the reader, ok and failed, from the board and
	// from the lanes.
	ok, bad         int
	laneOK, laneBad int
}

// fakeLanes is the host-lane side of a fakeDecoder: a lane accepts every
// command and finishes it, with or without an error, some polls later.
type fakeLanes struct{ f *fakeDecoder }

func (l fakeLanes) SubmitCmd(cmd fpga.Cmd) error {
	f := l.f
	if f.inBoard[cmd.ID] {
		f.t.Errorf("cmd %d sent to a lane while its previous attempt is still in a decoder", cmd.ID)
	}
	c := fpga.Completion{ID: cmd.ID}
	if f.rng.Intn(4) == 0 {
		c.Err = faults.ErrInjected
	}
	f.delayed = append(f.delayed, c)
	f.inBoard[cmd.ID], f.onLane[cmd.ID] = true, true
	return nil
}

func (f *fakeDecoder) draw() fate {
	n := 2
	if f.bounded {
		n = 5
	}
	// Weight success so epochs mostly make progress on the boards.
	if f.rng.Intn(3) == 0 {
		return fateOK
	}
	return fate(f.rng.Intn(n))
}

func (f *fakeDecoder) accept(cmd fpga.Cmd) bool {
	if f.inBoard[cmd.ID] {
		f.t.Errorf("cmd %d submitted while its previous attempt is still in the board", cmd.ID)
	}
	switch ft := f.draw(); ft {
	case fateShed:
		return false
	case fateOK:
		f.delayed = append(f.delayed, fpga.Completion{ID: cmd.ID})
	case fateErr:
		f.delayed = append(f.delayed, fpga.Completion{ID: cmd.ID, Err: faults.ErrInjected})
	default:
		f.held[cmd.ID] = ft
	}
	f.inBoard[cmd.ID] = true
	return true
}

func (f *fakeDecoder) SubmitCmd(cmd fpga.Cmd) error {
	if !f.accept(cmd) {
		f.t.Error("unbounded submit drew a shed fate")
	}
	return nil
}

func (f *fakeDecoder) SubmitCmdTimeout(cmd fpga.Cmd, _ time.Duration) (bool, error) {
	return f.accept(cmd), nil
}

func (f *fakeDecoder) Cancel(id uint64) bool {
	if f.onLane[id] {
		f.t.Errorf("cmd %d revoked on a lane, which always finishes", id)
	}
	ft, ok := f.held[id]
	if !ok {
		return false // FINISH already raised: in flight to the reader
	}
	delete(f.held, id)
	if ft == fateLate {
		f.ready = append(f.ready, fpga.Completion{ID: id})
		return false
	}
	delete(f.inBoard, id)
	return true
}

// release moves a random number (at least min) of delayed completions,
// in random order, to ready.
func (f *fakeDecoder) release(min int) {
	f.rng.Shuffle(len(f.delayed), func(i, j int) { f.delayed[i], f.delayed[j] = f.delayed[j], f.delayed[i] })
	n := min
	if extra := len(f.delayed) - min; extra > 0 {
		n += f.rng.Intn(extra + 1)
	}
	if n > len(f.delayed) {
		n = len(f.delayed)
	}
	f.ready = append(f.ready, f.delayed[:n]...)
	f.delayed = f.delayed[n:]
}

func (f *fakeDecoder) take(n int) []fpga.Completion {
	out := f.ready[:n:n]
	f.ready = f.ready[n:]
	for _, c := range out {
		switch {
		case f.onLane[c.ID] && c.Err == nil:
			f.laneOK++
		case f.onLane[c.ID]:
			f.laneBad++
		case c.Err == nil:
			f.ok++
		default:
			f.bad++
		}
		delete(f.inBoard, c.ID)
		delete(f.onLane, c.ID)
	}
	return out
}

func (f *fakeDecoder) DrainOut(buf []fpga.Completion) []fpga.Completion {
	f.release(0)
	return append(buf, f.take(len(f.ready))...)
}

func (f *fakeDecoder) WaitCompletion() (fpga.Completion, error) {
	f.release(1)
	if len(f.ready) == 0 {
		// Nothing will ever finish: the reader is about to park forever.
		f.t.Error("unbounded wait with no FINISH on its way")
		return fpga.Completion{}, fpga.ErrClosed
	}
	return f.take(1)[0], nil
}

func (f *fakeDecoder) WaitCompletionTimeout(d time.Duration) (fpga.Completion, bool, error) {
	f.release(0)
	if len(f.ready) == 0 {
		time.Sleep(d) // the bound elapses; overdue commands become revocable
		return fpga.Completion{}, false, nil
	}
	return f.take(1)[0], true, nil
}

// modelPayloads are raw-mirror frames; index 0 is too short to parse, so
// items carrying it fail on the CPU path too.
func modelPayloads() [][]byte {
	img := pix.New(4, 4, 1)
	for i := range img.Pix {
		img.Pix[i] = byte(16 * i)
	}
	return [][]byte{{1, 2, 3}, fpga.EncodeRaw(img)}
}

// modelDecoders are the decoder configurations every seed runs: the
// scripted board and lanes (lanes 0), and a board-less Booster's real
// host lanes.
var modelDecoders = []struct {
	name  string
	lanes int
}{{"fake", 0}, {"host1", 1}, {"host4", 4}}

// hostModel is host lanes whose decode fails or stalls at random, one
// generator per lane, counting the FINISHes it raises into its stream.
type hostModel struct {
	*hostLanes
	finishes
	ok, bad atomic.Int64
}

func newHostModel(b *Booster, mirror fpga.Mirror, seed int64, lanes int) *hostModel {
	h := &hostModel{finishes: finishes{queue.New[fpga.Completion](b.pool.Count() * b.batchSize)}}
	rngs := make([]*rand.Rand, lanes)
	decs := make([]fpga.Decoder, lanes)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed*8 + int64(i)))
		decs[i] = mirror.NewDecoder()
	}
	h.hostLanes = newHostLanes(b.pool.Arena(), h.finishes, lanes, func(lane int, ref fpga.DataRef, dst *pix.Image) error {
		var err error
		switch rngs[lane].Intn(4) {
		case 0:
			err = faults.ErrInjected // a FINISH carrying an error
		case 1:
			// A stall that may outlive CmdTimeout: the revocation
			// loses and the command settles late.
			time.Sleep(time.Duration(rngs[lane].Intn(400)) * time.Microsecond)
			fallthrough
		default:
			_, err = fpga.Decode(decs[lane], ref.Inline, dst)
		}
		if err == nil {
			h.ok.Add(1)
		} else {
			h.bad.Add(1)
		}
		return err
	})
	return h
}

func (h *hostModel) close() {
	h.hostLanes.close()
	h.merged.Close()
}

func TestEpochModel(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			for _, d := range modelDecoders {
				t.Run(d.name, func(t *testing.T) { runEpochModel(t, seed, d.lanes) })
			}
		})
	}
}

// runEpochModel runs one seeded epoch through the fake board and lanes
// (lanes 0) or a board-less Booster's host lanes and checks every
// invariant.
func runEpochModel(t *testing.T, seed int64, lanes int) {
	payloads := modelPayloads()
	mirror, err := fpga.LoadMirror("raw")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(d ...time.Duration) time.Duration { return d[rng.Intn(len(d))] }
	cfg := Config{
		BatchSize: 1 + rng.Intn(5), OutW: 4, OutH: 4, Channels: 1,
		PoolBatches:  2 + rng.Intn(3),
		BatchTimeout: pick(0, 100*time.Microsecond, time.Millisecond),
		Resilience: Resilience{
			MaxRetries:    rng.Intn(3),
			RetryBackoff:  10 * time.Microsecond,
			CmdTimeout:    pick(0, 300*time.Microsecond),
			FallbackAfter: []int{0, 2, 1000}[rng.Intn(3)],
		},
	}
	plane, err := newBatchPlane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	plane.spanned = true // stamp spans so the consumer can check conservation
	b := &Booster{BatchPlane: plane, cfg: cfg}
	b.batchTimeoutNs.Store(int64(cfg.BatchTimeout))
	b.SetCPUShare([]float64{0, 0, 0.25, 0.5, 1}[rng.Intn(5)])

	items := make([]Item, 1+rng.Intn(24))
	for i := range items {
		p := payloads[1]
		if rng.Intn(6) == 0 {
			p = payloads[0]
		}
		items[i] = Item{Ref: fpga.DataRef{Inline: p}, Meta: ItemMeta{Seq: i}}
	}
	col := CollectorFromItems(items)
	if rng.Intn(2) == 0 {
		// Streaming arrivals with pauses, so deadline flushes and
		// the idle poll loop are in play.
		q := queue.New[Item](len(items))
		pauses := make([]time.Duration, len(items))
		for i := range pauses {
			pauses[i] = pick(0, 0, 50*time.Microsecond, 400*time.Microsecond)
		}
		go func() {
			for i, it := range items {
				time.Sleep(pauses[i])
				_ = q.Push(it)
			}
			q.Close()
		}()
		col = CollectorFromQueue(q)
	}

	// Concurrent consumer: check each batch, then recycle it.
	type tally struct{ batches, images, valid, fpga, fallback, failed int }
	consumed := make(chan tally, 1)
	go func() {
		var tl tally
		seqs, seen := map[int]bool{}, map[int]bool{}
		for {
			bt, err := b.Batches().Pop()
			if err != nil {
				consumed <- tl
				return
			}
			tr := bt.Trace
			switch {
			case bt.Images == 0 || bt.Images > cfg.BatchSize:
				t.Errorf("batch %d carries %d images (batch size %d)", bt.Seq, bt.Images, cfg.BatchSize)
			case seqs[bt.Seq]:
				t.Errorf("batch %d published twice", bt.Seq)
			case tr == nil || tr.Images != bt.Images || tr.FPGA+tr.Fallback+tr.Failed != bt.Images:
				t.Errorf("batch %d span not conserved: %+v for %d images", bt.Seq, tr, bt.Images)
			case tr.FPGA+tr.Fallback != bt.ValidCount():
				t.Errorf("batch %d: %d valid slots, span says %d", bt.Seq, bt.ValidCount(), tr.FPGA+tr.Fallback)
			}
			seqs[bt.Seq] = true
			for _, m := range bt.Metas {
				if seen[m.Seq] {
					t.Errorf("item %d delivered twice", m.Seq)
				}
				seen[m.Seq] = true
			}
			tl.batches++
			tl.images += bt.Images
			tl.valid += bt.ValidCount()
			if tr != nil {
				tl.fpga, tl.fallback, tl.failed = tl.fpga+tr.FPGA, tl.fallback+tr.Fallback, tl.failed+tr.Failed
			}
			if err := b.RecycleBatch(bt); err != nil {
				t.Errorf("recycle: %v", err)
			}
		}
	}()

	var e *epochState
	var fake *fakeDecoder
	var host *hostModel
	if lanes == 0 {
		fake = &fakeDecoder{
			t: t, rng: rng, bounded: cfg.Resilience.CmdTimeout > 0,
			held: map[uint64]fate{}, inBoard: map[uint64]bool{}, onLane: map[uint64]bool{},
		}
		e = newEpochState(b, fake, fakeLanes{fake}, fake)
	} else {
		host = newHostModel(b, mirror, seed, lanes)
		defer host.close()
		e = newEpochState(b, nil, host, host)
	}
	if err := e.run(col); err != nil {
		t.Fatalf("run: %v", err)
	}
	e.release()
	b.CloseBatches()
	tl := <-consumed

	n := len(items)
	if len(e.pending) != 0 || len(e.live) != 0 || e.cur != nil {
		t.Fatalf("epoch returned with %d pending, %d unpublished batches, cur=%v", len(e.pending), len(e.live), e.cur)
	}
	// finished counts the Booster's own decoder's successes, rescued
	// the lanes' successes booked as offloads or fallbacks.
	finished, rescued, failed := 0, 0, 0
	if fake != nil {
		if len(fake.inBoard)+len(fake.held)+len(fake.delayed)+len(fake.ready) != 0 {
			t.Fatalf("decoders not quiescent: %d in a decoder, %d held, %d delayed, %d ready",
				len(fake.inBoard), len(fake.held), len(fake.delayed), len(fake.ready))
		}
		finished, rescued, failed = fake.ok, fake.laneOK, fake.bad+fake.laneBad
	} else {
		if host.cmds.Len()+host.merged.Len() != 0 {
			t.Fatalf("lanes not quiescent: %d queued, %d FINISHes unread", host.cmds.Len(), host.merged.Len())
		}
		finished, failed = int(host.ok.Load()), int(host.bad.Load())
	}
	if cfg.Resilience.FallbackAfter == 0 && b.FallbackDecodes() != 0 {
		t.Fatalf("%d fallbacks with fallback disabled", b.FallbackDecodes())
	}
	if got := b.Images() + b.DecodeErrors(); got != int64(n) || b.collected.Value() != int64(n) {
		t.Fatalf("images %d + errors %d = %d, collected %d, want %d items", b.Images(), b.DecodeErrors(), got, b.collected.Value(), n)
	}
	if tl.images != n || int64(tl.valid) != b.Images() || int64(tl.batches) != b.published.Value() {
		t.Fatalf("consumer saw %d images (%d valid) in %d batches; booster says %d items, %d images, %d published",
			tl.images, tl.valid, tl.batches, n, b.Images(), b.published.Value())
	}
	if tl.fpga != finished || tl.fallback != rescued || int64(rescued) != b.FallbackDecodes()+b.OffloadDecodes() || int64(tl.failed) != b.DecodeErrors() {
		t.Fatalf("spans fpga/fallback/failed = %d/%d/%d; decoder finished %d, lanes rescued %d, counters say %d+%d fallback+offload, %d errors",
			tl.fpga, tl.fallback, tl.failed, finished, rescued, b.FallbackDecodes(), b.OffloadDecodes(), b.DecodeErrors())
	}
	if b.Retries() > int64(failed) {
		t.Fatalf("%d retries for %d failed FINISHes", b.Retries(), failed)
	}
	if out := b.Pool().Outstanding(); out != 0 {
		t.Fatalf("%d buffers still checked out after the consumer recycled everything", out)
	}
}
