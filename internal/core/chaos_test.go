package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dlbooster/internal/dataset"
	"dlbooster/internal/faults"
	"dlbooster/internal/fpga"
	"dlbooster/internal/nvme"
)

// Chaos tests: deterministic fault injection against the full pipeline.
// Every test runs the epoch under a watchdog — the first property of the
// failure model is that no fault mode can deadlock the reader.

func chaosItems(t *testing.T, n int) []Item {
	t.Helper()
	spec := dataset.MNISTLike(n)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Ref: fpga.DataRef{Inline: mustJPEG(t, spec, i)}, Meta: ItemMeta{Seq: i}}
	}
	return items
}

// runEpochWatchdog fails the test instead of hanging forever when a
// fault mode deadlocks the reader.
func runEpochWatchdog(t *testing.T, b *Booster, col DataCollector) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- b.RunEpoch(col) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunEpoch: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunEpoch deadlocked under fault injection")
	}
}

// assertPoolBalanced checks the buffer-accounting invariant after the
// consumer has drained and recycled everything: every get_item matched
// by exactly one recycle_item.
func assertPoolBalanced(t *testing.T, b *Booster) {
	t.Helper()
	if n := b.Pool().Outstanding(); n != 0 {
		t.Fatalf("%d buffers leaked (outstanding after full drain)", n)
	}
	if free := b.Pool().FreeLen(); free != b.Pool().Count() {
		t.Fatalf("free queue holds %d of %d buffers", free, b.Pool().Count())
	}
}

// TestChaosFullFPGAFailureDegradesToCPU is the acceptance scenario: an
// injector failing 100% of decode commands must not lose a single
// image — the booster detects the dead decoder, switches to the CPU
// fallback path exactly once, and completes the epoch with every batch
// published and every slot valid.
func TestChaosFullFPGAFailureDegradesToCPU(t *testing.T) {
	const n = 24
	items := chaosItems(t, n)
	b := newBooster(t, Config{
		BatchSize: 4, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
		FPGA: fpga.Config{Inject: faults.New(faults.Config{FailEvery: 1})},
		Resilience: Resilience{
			MaxRetries:    1,
			RetryBackoff:  10 * time.Microsecond,
			FallbackAfter: 3,
		},
	})
	results := drainAll(t, b)
	runEpochWatchdog(t, b, CollectorFromItems(items))
	b.CloseBatches()
	all := <-results
	if len(all) != n/4 {
		t.Fatalf("batches = %d, want %d", len(all), n/4)
	}
	seen := map[int]bool{}
	for _, d := range all {
		for s := 0; s < d.images; s++ {
			if !d.valid[s] {
				t.Fatalf("item %d lost to a dead decoder despite fallback", d.metas[s].Seq)
			}
			seen[d.metas[s].Seq] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct images, want %d", len(seen), n)
	}
	if b.Images() != n || b.DecodeErrors() != 0 {
		t.Fatalf("images=%d errors=%d, want %d/0", b.Images(), b.DecodeErrors(), n)
	}
	if !b.Degraded() {
		t.Fatal("booster never switched to degraded mode")
	}
	if got := b.FallbackDecodes(); got != n {
		t.Fatalf("fallback decodes = %d, want %d (decoder never succeeds)", got, n)
	}
	if b.Retries() == 0 {
		t.Fatal("no retries before degrading")
	}
	assertPoolBalanced(t, b)
}

// TestChaosDegradedSwitchFiresExactlyOnce asserts the mode switch is
// recorded exactly once, at the configured consecutive-failure
// threshold, and that the event log says why.
func TestChaosDegradedSwitchFiresExactlyOnce(t *testing.T) {
	const n, after = 16, 3
	items := chaosItems(t, n)
	inj := faults.New(faults.Config{FailEvery: 1})
	b := newBooster(t, Config{
		BatchSize: 4, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
		FPGA:       fpga.Config{Inject: inj},
		Resilience: Resilience{FallbackAfter: after},
	})
	results := drainAll(t, b)
	runEpochWatchdog(t, b, CollectorFromItems(items))
	b.CloseBatches()
	<-results
	events := b.Events()
	degradedEvents := 0
	for _, e := range events {
		if e.Name == "degraded" {
			degradedEvents++
		}
	}
	if degradedEvents != 1 {
		t.Fatalf("degraded events = %d, want exactly 1 (log: %+v)", degradedEvents, events)
	}
	// The switch fired at the threshold: at least `after` commands
	// reached the decoder before it, and everything was rescued.
	if ops := inj.Ops(); ops < after {
		t.Fatalf("decoder saw %d commands, threshold is %d", ops, after)
	}
	if b.FallbackDecodes() != n || b.DecodeErrors() != 0 {
		t.Fatalf("fallbacks=%d errors=%d, want %d/0", b.FallbackDecodes(), b.DecodeErrors(), n)
	}
	assertPoolBalanced(t, b)
}

// TestChaosRetryAbsorbsTransientFaults: every 5th decode command fails
// for the whole epoch; the retries absorb each fault with no errors, no
// fallback and no mode switch. A retry takes whatever FIFO position is
// free when it is resubmitted, and when the host admits a batch of 4
// new items ahead of it that is the next multiple of 5 again, so one
// item can fail several times in a row. MaxRetries covers the worst
// case: each fault is a retry, so the r retries of an epoch satisfy
// r <= (n+r)/5, that is r <= n/4, and no item can fail more often.
func TestChaosRetryAbsorbsTransientFaults(t *testing.T) {
	const n, every = 20, 5
	items := chaosItems(t, n)
	b := newBooster(t, Config{
		BatchSize: 4, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
		FPGA: fpga.Config{Inject: faults.New(faults.Config{FailEvery: every})},
		Resilience: Resilience{
			MaxRetries:   n / (every - 1),
			RetryBackoff: 10 * time.Microsecond,
		},
	})
	results := drainAll(t, b)
	runEpochWatchdog(t, b, CollectorFromItems(items))
	b.CloseBatches()
	all := <-results
	for _, d := range all {
		for s := 0; s < d.images; s++ {
			if !d.valid[s] {
				t.Fatalf("item %d failed despite retries", d.metas[s].Seq)
			}
		}
	}
	if b.Images() != n || b.DecodeErrors() != 0 {
		t.Fatalf("images=%d errors=%d", b.Images(), b.DecodeErrors())
	}
	if b.Retries() == 0 {
		t.Fatal("injector fired but nothing was retried")
	}
	if b.Degraded() || b.FallbackDecodes() != 0 {
		t.Fatal("transient faults must not engage degraded mode")
	}
	assertPoolBalanced(t, b)
}

// TestChaosThroughputRecoversAfterFaultWindow confines failures to the
// first 10 decoder operations: items decoded inside the window fail
// (fail-fast policy, no retries or fallback), and every item after the
// window closes decodes cleanly — throughput recovers by itself.
func TestChaosThroughputRecoversAfterFaultWindow(t *testing.T) {
	const n, window = 30, 10
	items := chaosItems(t, n)
	b := newBooster(t, Config{
		BatchSize: 5, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
		FPGA: fpga.Config{Inject: faults.New(faults.Config{
			FailEvery: 1, WindowStart: 1, WindowLen: window,
		})},
	})
	results := drainAll(t, b)
	runEpochWatchdog(t, b, CollectorFromItems(items))
	b.CloseBatches()
	all := <-results
	// A single board takes its injector decisions in FIFO order, which
	// is submission order, so exactly items 0..9 land in the fault window.
	for _, d := range all {
		for s := 0; s < d.images; s++ {
			wantValid := d.metas[s].Seq >= window
			if d.valid[s] != wantValid {
				t.Fatalf("item %d valid = %v, want %v", d.metas[s].Seq, d.valid[s], wantValid)
			}
		}
	}
	if b.DecodeErrors() != window || b.Images() != n-window {
		t.Fatalf("errors=%d images=%d, want %d/%d", b.DecodeErrors(), b.Images(), window, n-window)
	}
	if b.Degraded() {
		t.Fatal("fail-fast policy must not degrade")
	}
	assertPoolBalanced(t, b)
}

// TestChaosStuckDeviceTimesOutAndDegrades wedges the single decoder
// board on its 3rd command: submitted commands are swallowed forever.
// The command timeout must detect it, settle the swallowed commands
// host-side, shed submissions the full FIFO rejects, and degrade to the
// CPU path — completing the epoch with zero lost images and the ledger
// balanced.
func TestChaosStuckDeviceTimesOutAndDegrades(t *testing.T) {
	const n = 12
	items := chaosItems(t, n)
	b := newBooster(t, Config{
		BatchSize: 4, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
		FPGA: fpga.Config{
			CmdQueueCap: 2,
			Inject:      faults.New(faults.Config{StuckAfter: 3}),
		},
		Resilience: Resilience{
			CmdTimeout:    40 * time.Millisecond,
			FallbackAfter: 1,
		},
	})
	results := drainAll(t, b)
	runEpochWatchdog(t, b, CollectorFromItems(items))
	b.CloseBatches()
	all := <-results
	seen := map[int]bool{}
	for _, d := range all {
		for s := 0; s < d.images; s++ {
			if !d.valid[s] {
				t.Fatalf("item %d lost to the stuck board", d.metas[s].Seq)
			}
			if seen[d.metas[s].Seq] {
				t.Fatalf("item %d delivered twice", d.metas[s].Seq)
			}
			seen[d.metas[s].Seq] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct images, want %d", len(seen), n)
	}
	if !b.Device().Wedged() {
		t.Fatal("stuck fault never wedged the board")
	}
	if !b.Degraded() {
		t.Fatal("stuck board did not engage degraded mode")
	}
	if b.CmdTimeouts() == 0 {
		t.Fatal("no command timed out against a board that stopped finishing")
	}
	if b.Images() != n || b.DecodeErrors() != 0 {
		t.Fatalf("images=%d errors=%d, want %d/0", b.Images(), b.DecodeErrors(), n)
	}
	assertPoolBalanced(t, b)
}

// TestChaosCorruptPayloadsHitRealDecodeErrors: corrupt-always injection
// flips bytes in decode payloads; some corrupted JPEGs may still decode
// (flips can land in entropy data that remains parseable), but every
// item must settle exactly once, with no deadlock and no leak.
func TestChaosCorruptPayloadsHitRealDecodeErrors(t *testing.T) {
	const n = 16
	items := chaosItems(t, n)
	b := newBooster(t, Config{
		BatchSize: 4, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
		FPGA: fpga.Config{Inject: faults.New(faults.Config{Seed: 11, CorruptRate: 1})},
	})
	results := drainAll(t, b)
	runEpochWatchdog(t, b, CollectorFromItems(items))
	b.CloseBatches()
	all := <-results
	settled := 0
	for _, d := range all {
		settled += d.images
	}
	if settled != n {
		t.Fatalf("settled %d items, want %d", settled, n)
	}
	if got := b.Images() + b.DecodeErrors(); got != n {
		t.Fatalf("images+errors = %d, want %d", got, n)
	}
	assertPoolBalanced(t, b)
}

// TestChaosRevokedSlowCommandCannotCorruptBuffers covers the
// slow-but-alive board: the first decode command stalls the board
// worker carrying it far past the command timeout, so the reader
// revokes the overdue command, rescues its slot on the host lanes, publishes,
// and recycles the buffer — all while the board is still working. The
// revocation fence must keep every late DMA write from landing: each
// published slot holds exactly its own item's pixels, the late FINISH
// signals are suppressed rather than surfacing as unknown commands, and
// the ledger balances.
func TestChaosRevokedSlowCommandCannotCorruptBuffers(t *testing.T) {
	const n = 12
	spec := dataset.MNISTLike(n)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Ref: fpga.DataRef{Inline: mustJPEG(t, spec, i)}, Meta: ItemMeta{Seq: i}}
	}
	b := newBooster(t, Config{
		BatchSize: 2, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 2,
		FPGA: fpga.Config{Inject: faults.New(faults.Config{
			Delay: 200 * time.Millisecond, DelayEvery: 1, WindowStart: 1, WindowLen: 1,
		})},
		Resilience: Resilience{
			CmdTimeout:    25 * time.Millisecond,
			FallbackAfter: 100, // rescue failed slots, don't switch modes
		},
	})
	// Reference pixels: the host lanes run the same mirror stages and
	// resize the board would, so every slot must match byte for byte.
	refs := make([][]byte, n)
	for i := range refs {
		refs[i] = make([]byte, 28*28)
		if err := b.lanes.decode(0, items[i].Ref, laneView(t, b, refs[i])); err != nil {
			t.Fatal(err)
		}
	}
	results := drainAll(t, b)
	runEpochWatchdog(t, b, CollectorFromItems(items))
	b.CloseBatches()
	all := <-results
	seen := map[int]bool{}
	for _, d := range all {
		for s := 0; s < d.images; s++ {
			seq := d.metas[s].Seq
			if !d.valid[s] {
				t.Fatalf("item %d lost to the slow board", seq)
			}
			if seen[seq] {
				t.Fatalf("item %d delivered twice", seq)
			}
			seen[seq] = true
			if !bytes.Equal(d.pixels[s], refs[seq]) {
				t.Fatalf("item %d pixels corrupted (late DMA landed in a settled slot)", seq)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct images, want %d", len(seen), n)
	}
	if b.CmdTimeouts() == 0 {
		t.Fatal("no command was revoked against a 200ms-slow board under a 25ms timeout")
	}
	if b.Images() != n || b.DecodeErrors() != 0 {
		t.Fatalf("images=%d errors=%d, want %d/0", b.Images(), b.DecodeErrors(), n)
	}
	if b.Degraded() {
		t.Fatal("slow board must not flip the mode switch below the threshold")
	}
	assertPoolBalanced(t, b)
}

// TestChaosSpillReadFaults injects NVMe faults into a replay's spill
// reads — a failed first read, a failed second read (after the first
// spill hit was published) and a corrupted first read, each with the
// buffer it fills held. Each replay must return its cause, publish no
// batch that differs from its first-epoch twin, and leave every buffer
// back in the pool.
func TestChaosSpillReadFaults(t *testing.T) {
	items := chaosItems(t, 16)
	for _, tc := range []struct {
		name  string
		fault faults.Config
		cause string
	}{
		// Epoch 1 only writes the spill tier, so the replay's reads are
		// ops 1, 2, …: one per spill hit.
		{"fail-first", faults.Config{FailEvery: 1}, faults.ErrInjected.Error()},
		{"fail-second", faults.Config{FailEvery: 2}, faults.ErrInjected.Error()},
		{"corrupt-first", faults.Config{CorruptEvery: 1}, "checksum mismatch"},
	} {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compress=%v", tc.name, compress), func(t *testing.T) {
				// 4 batches of 4×784 bytes; the RAM tier holds 2.
				b := newBooster(t, Config{
					BatchSize: 4, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
					Cache: CacheConfig{
						RAMBytes: 2 * 4 * 28 * 28,
						Spill:    nvme.New(nvme.Config{Inject: faults.New(tc.fault)}),
						Compress: compress,
					},
				})
				results := drainAll(t, b)
				runEpochWatchdog(t, b, CollectorFromItems(items))
				err := b.ReplayCache()
				b.CloseBatches()
				all := <-results
				if err == nil || !strings.Contains(err.Error(), tc.cause) {
					t.Fatalf("ReplayCache = %v, want the %q cause", err, tc.cause)
				}
				if tc.fault.FailEvery > 0 && !errors.Is(err, faults.ErrInjected) {
					t.Fatalf("ReplayCache = %v, does not wrap faults.ErrInjected", err)
				}
				first := map[int][][]byte{}
				for _, d := range all[:4] {
					first[d.metas[0].Seq] = d.pixels
				}
				for _, d := range all[4:] {
					for s, px := range d.pixels {
						if !bytes.Equal(px, first[d.metas[0].Seq][s]) {
							t.Fatalf("replay published a damaged batch (seq %d slot %d)", d.metas[0].Seq, s)
						}
					}
				}
				assertPoolBalanced(t, b)
			})
		}
	}
}
