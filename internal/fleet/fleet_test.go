package fleet

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/fpga"
	"dlbooster/internal/metrics"
)

// shardConfig is the baseline per-shard pipeline every fleet test uses:
// MNIST geometry, a small pool, and deadline flushing so partial final
// batches publish instead of stalling the drain.
func shardConfig() core.Config {
	return core.Config{
		BatchSize: 4, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
		BatchTimeout: 2 * time.Millisecond,
	}
}

func newFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func fleetItems(t *testing.T, n int) []core.Item {
	t.Helper()
	spec := dataset.MNISTLike(n)
	items := make([]core.Item, n)
	for i := range items {
		data, err := spec.JPEG(i)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = core.Item{Ref: fpga.DataRef{Inline: data}, Meta: core.ItemMeta{Seq: i}}
	}
	return items
}

// delivery is what the per-shard consumers observed: how many times
// each seq was published, on which shard, and whether its slot was
// valid.
type delivery struct {
	mu     sync.Mutex
	count  map[int]int
	shard  map[int]int
	valid  map[int]bool
	images map[int]int // per-shard published image count
}

// consumeShards drains and recycles every shard's Batches queue until
// the epochs close them; wait the returned WaitGroup after Drain.
func consumeShards(t *testing.T, f *Fleet) (*delivery, *sync.WaitGroup) {
	t.Helper()
	d := &delivery{count: map[int]int{}, shard: map[int]int{}, valid: map[int]bool{}, images: map[int]int{}}
	var wg sync.WaitGroup
	for _, s := range f.Shards() {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			for {
				batch, err := s.Booster().Batches().Pop()
				if err != nil {
					return
				}
				d.mu.Lock()
				for i := 0; i < batch.Images; i++ {
					seq := batch.Metas[i].Seq
					d.count[seq]++
					d.shard[seq] = s.ID()
					d.valid[seq] = batch.Valid[i]
					d.images[s.ID()]++
				}
				d.mu.Unlock()
				if err := s.Booster().RecycleBatch(batch); err != nil {
					t.Errorf("shard %d recycle: %v", s.ID(), err)
				}
			}
		}(s)
	}
	return d, &wg
}

// drainWatchdog fails instead of hanging when a drain deadlocks.
func drainWatchdog(t *testing.T, f *Fleet) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f.Drain() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fleet drain deadlocked")
	}
}

func assertShardPoolsBalanced(t *testing.T, f *Fleet) {
	t.Helper()
	for _, s := range f.Shards() {
		b := s.Booster()
		if n := b.Pool().Outstanding(); n != 0 {
			t.Fatalf("shard %d leaked %d buffers", s.ID(), n)
		}
		if free := b.Pool().FreeLen(); free != b.Pool().Count() {
			t.Fatalf("shard %d free queue holds %d of %d buffers", s.ID(), free, b.Pool().Count())
		}
	}
}

func TestFleetLeastLoadedLifecycle(t *testing.T) {
	const n = 24
	f := newFleet(t, Config{
		Shards:   2,
		QueueCap: 64,
		NewBooster: func(int) (*core.Booster, error) {
			return core.New(shardConfig())
		},
	})
	d, wg := consumeShards(t, f)
	f.Start()
	for i, item := range fleetItems(t, n) {
		shard, adm := f.Submit(item, uint64(i))
		if adm != AdmitOK {
			t.Fatalf("item %d admission %v on shard %d with empty queues", i, adm, shard)
		}
	}
	drainWatchdog(t, f)
	wg.Wait()

	if len(d.count) != n {
		t.Fatalf("delivered %d distinct items, want %d", len(d.count), n)
	}
	for seq, c := range d.count {
		if c != 1 {
			t.Fatalf("item %d delivered %d times", seq, c)
		}
		if !d.valid[seq] {
			t.Fatalf("item %d published invalid", seq)
		}
	}
	for _, s := range f.Shards() {
		if s.Shed() != 0 {
			t.Fatalf("shard %d shed %d with capacity to spare", s.ID(), s.Shed())
		}
	}

	snap := f.Snapshot()
	if len(snap.Shards) != 2 {
		t.Fatalf("rollup carries %d shard snapshots", len(snap.Shards))
	}
	if got := snap.Total.Counters["images_decoded_total"]; got != n {
		t.Fatalf("fleet images_decoded_total = %d, want %d", got, n)
	}
	var want int64
	for _, s := range snap.Shards {
		want += s.Counters["images_decoded_total"]
	}
	if snap.Total.Counters["images_decoded_total"] != want {
		t.Fatalf("rollup %d != shard sum %d", snap.Total.Counters["images_decoded_total"], want)
	}
	if q, ok := snap.Total.Queues["ingest_items"]; !ok || q.Cap != 128 {
		t.Fatalf("ingest_items rollup = %+v (want cap 2*64)", q)
	}
	if _, ok := snap.Total.Counters["fleet_stolen_out_total"]; !ok {
		t.Fatal("rollup missing fleet_stolen_out_total")
	}

	// Before StartSampler each shard is read as a history of one: its
	// current snapshot, one window.
	diag := f.Diagnose()
	if diag == nil || len(diag.Shards) != 2 || diag.Summary == "" || diag.Windows != 1 {
		t.Fatalf("diagnosis: %+v", diag)
	}
	assertShardPoolsBalanced(t, f)
}

// TestFleetDiagnoseReadsSamplerHistories: once the samplers run, the
// doctor reads their rings — several windows per shard — instead of
// one snapshot each.
func TestFleetDiagnoseReadsSamplerHistories(t *testing.T) {
	f := newFleet(t, Config{
		Shards: 2,
		NewBooster: func(int) (*core.Booster, error) {
			return core.New(shardConfig())
		},
	})
	f.StartSampler(metrics.SamplerConfig{Interval: 2 * time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for f.Histories()[0].Len() < 3 || f.Histories()[1].Len() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("samplers recorded fewer than 3 samples per shard in 5s")
		}
		time.Sleep(time.Millisecond)
	}
	f.StopSampler()
	diag := f.Diagnose()
	if diag == nil || len(diag.Shards) != 2 || diag.Windows < 2 ||
		diag.Shards[0] == nil || diag.Shards[0].Windows < 2 || diag.Shards[1] == nil || diag.Shards[1].Windows < 2 {
		t.Fatalf("diagnosis over the sampler rings: %+v", diag)
	}
}

// TestFleetHashAffinity: with hash placement, one key always lands on
// one shard. The fleet is never started, so admitted items just sit in
// the ingest queues where the test can see them.
func TestFleetHashAffinity(t *testing.T) {
	f := newFleet(t, Config{
		Shards:    4,
		Placement: PlacementHash,
		QueueCap:  32,
		NewBooster: func(int) (*core.Booster, error) {
			return core.New(shardConfig())
		},
	})
	items := fleetItems(t, 8)
	first, adm := f.Submit(items[0], 12345)
	if adm != AdmitOK {
		t.Fatalf("admission %v", adm)
	}
	for _, item := range items[1:] {
		shard, adm := f.Submit(item, 12345)
		if adm != AdmitOK || shard != first {
			t.Fatalf("key 12345 placed on shard %d (%v), affinity shard is %d", shard, adm, first)
		}
	}
	if got := f.Shards()[first].Queue().Len(); got != len(items) {
		t.Fatalf("affinity shard queue holds %d of %d", got, len(items))
	}
}

func TestFleetSubmitAfterDrain(t *testing.T) {
	f := newFleet(t, Config{
		Shards: 2,
		NewBooster: func(int) (*core.Booster, error) {
			return core.New(shardConfig())
		},
	})
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	item := fleetItems(t, 1)[0]
	shard, adm := f.Submit(item, 0)
	if adm != AdmitClosed || shard != 0 {
		t.Fatalf("post-drain submit: shard %d, admission %v", shard, adm)
	}
	// The refusal is on the books: it counts as a shed, attributed to
	// the routed shard, with the closed subset distinguishable.
	s := f.Shards()[shard]
	if s.Shed() != 1 || s.ShedClosed() != 1 {
		t.Fatalf("post-drain refusal not booked: shed %d, closed %d, want 1/1", s.Shed(), s.ShedClosed())
	}
	snap := s.Booster().Snapshot()
	if snap.Counters["serve_shed_total"] != 1 || snap.Counters["serve_shed_closed_total"] != 1 {
		t.Fatalf("post-drain refusal missing from counters: %v", snap.Counters)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	mk := func(int) (*core.Booster, error) { return core.New(shardConfig()) }
	if _, err := New(Config{Shards: 0, NewBooster: mk}); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := New(Config{Shards: 2}); err == nil {
		t.Fatal("missing NewBooster accepted")
	}
	if _, err := New(Config{Shards: 2, Placement: "round-robin", NewBooster: mk}); err == nil {
		t.Fatal("unknown placement accepted")
	}
	if _, err := New(Config{Shards: 2, QueueCap: -1, NewBooster: mk}); err == nil {
		t.Fatal("negative queue capacity accepted")
	}
}

// TestFleetAdmissionShedsWhenFull: with the fleet stopped and every
// tiny queue full, Submit must shed within the grace period and count
// it on the routed shard.
func TestFleetAdmissionShedsWhenFull(t *testing.T) {
	f := newFleet(t, Config{
		Shards:   2,
		QueueCap: 1,
		Grace:    200 * time.Microsecond,
		NewBooster: func(int) (*core.Booster, error) {
			return core.New(shardConfig())
		},
	})
	items := fleetItems(t, 3)
	for i := 0; i < 2; i++ {
		if _, adm := f.Submit(items[i], uint64(i)); adm != AdmitOK {
			t.Fatalf("fill submit %d: %v", i, adm)
		}
	}
	shard, adm := f.Submit(items[2], 2)
	if adm != AdmitShed {
		t.Fatalf("admission %v with both queues full", adm)
	}
	if got := f.Shards()[shard].Shed(); got != 1 {
		t.Fatalf("shard %d shed counter = %d", shard, got)
	}
	snap := f.Snapshot()
	if got := snap.Total.Counters["serve_shed_total"]; got != 1 {
		t.Fatalf("fleet serve_shed_total = %d", got)
	}
}

// TestFleetQueueCapKnob drives the admission knob end to end: an
// effective cap below the physical queue sheds at the cap without
// waiting out the grace period, the knob is visible in telemetry, and
// the shed ledger reconciles offered = queued + shed across a drain —
// including the frames refused after the queues closed.
func TestFleetQueueCapKnob(t *testing.T) {
	f := newFleet(t, Config{
		Shards: 1,
		NewBooster: func(int) (*core.Booster, error) {
			return core.New(shardConfig())
		},
	})
	s := f.Shards()[0]
	if got := s.QueueCap(); got != 256 {
		t.Fatalf("default QueueCap = %d, want the physical 256", got)
	}
	s.SetQueueCap(4)
	if got := s.QueueCap(); got != 4 {
		t.Fatalf("QueueCap after retune = %d, want 4", got)
	}

	// Epochs deliberately not started: the queue cannot drain, so the
	// 5th item onward must shed at the effective cap.
	items := fleetItems(t, 12)
	var admitted, shed int
	for i := 0; i < 10; i++ {
		if _, adm := f.Submit(items[i], uint64(i)); adm == AdmitOK {
			admitted++
		} else if adm == AdmitShed {
			shed++
		}
	}
	if admitted != 4 || shed != 6 {
		t.Fatalf("admitted %d / shed %d, want 4 / 6 at effective cap 4", admitted, shed)
	}
	snap := s.Booster().Snapshot()
	if g := snap.Gauges["knob_queue_cap"]; g != 4 {
		t.Fatalf("knob_queue_cap gauge = %v, want 4", g)
	}
	if q := snap.Queues["ingest_items"]; q.Cap != 4 || q.Len != 4 {
		t.Fatalf("ingest_items probe = %+v, want len 4 / effective cap 4", q)
	}

	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 12; i++ {
		if _, adm := f.Submit(items[i], uint64(i)); adm != AdmitClosed {
			t.Fatalf("post-drain admission = %v, want AdmitClosed", adm)
		}
	}
	// Conservation: 12 offered = 4 queued + 6 cap sheds + 2 closed
	// refusals; the closed subset is distinguishable.
	if s.Shed() != 8 || s.ShedClosed() != 2 {
		t.Fatalf("shed ledger = %d total / %d closed, want 8 / 2", s.Shed(), s.ShedClosed())
	}

	// Clamps: the knob floors at 1 and cannot exceed the physical queue.
	s.SetQueueCap(0)
	if got := s.QueueCap(); got != 1 {
		t.Fatalf("QueueCap after 0 = %d, want 1", got)
	}
	s.SetQueueCap(1 << 20)
	if got := s.QueueCap(); got != 256 {
		t.Fatalf("QueueCap after overshoot = %d, want the physical 256", got)
	}
}

// TestFleetOfOneStartsNoStealer: a single shard has no peer to steal
// for, so Start launches no stealer goroutine (stealDone is already
// closed) and Drain still settles every item without waiting on one.
func TestFleetOfOneStartsNoStealer(t *testing.T) {
	const n = 6
	f := newFleet(t, Config{
		Shards: 1,
		NewBooster: func(int) (*core.Booster, error) {
			return core.New(shardConfig())
		},
	})
	d, wg := consumeShards(t, f)
	f.Start()
	select {
	case <-f.stealDone:
	default:
		t.Fatal("a fleet of one launched the stealer")
	}
	for i, item := range fleetItems(t, n) {
		if shard, adm := f.Submit(item, uint64(i)); adm != AdmitOK || shard != 0 {
			t.Fatalf("item %d: shard %d, admission %v", i, shard, adm)
		}
	}
	drainWatchdog(t, f)
	wg.Wait()
	if len(d.count) != n {
		t.Fatalf("delivered %d distinct items, want %d", len(d.count), n)
	}
	assertShardPoolsBalanced(t, f)
}

// TestFleetEpochFailureReachesFlight: a shard whose epoch fails must
// leave a backend_error note in the attached flight recorder — the
// post-mortem hook every shard gets, not just a single pipeline — while
// the healthy shard keeps serving and Drain reports the failure.
func TestFleetEpochFailureReachesFlight(t *testing.T) {
	flight := metrics.NewFlightRecorder(metrics.FlightConfig{})
	f := newFleet(t, Config{
		Shards: 2,
		NewBooster: func(int) (*core.Booster, error) {
			cfg := shardConfig()
			cfg.Flight = flight
			return core.New(cfg)
		},
	})
	// Tear shard 1's pipeline down under its epoch: the first item it
	// collects finds the buffer pool closed and the epoch errors out.
	f.Shards()[1].Booster().Close()
	d, wg := consumeShards(t, f)
	f.Start()
	items := fleetItems(t, 5)
	if err := f.Shards()[1].Queue().Push(items[0]); err != nil {
		t.Fatal(err)
	}
	for _, item := range items[1:] {
		if err := f.Shards()[0].Queue().Push(item); err != nil {
			t.Fatal(err)
		}
	}
	err := f.Drain()
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "shard 1 epoch") {
		t.Fatalf("Drain error = %v, want shard 1's epoch failure", err)
	}
	var notes int
	for _, n := range flight.Contents("test").Notes {
		if n.Name == "backend_error" {
			notes++
		}
	}
	if notes != 1 {
		t.Fatalf("flight recorder holds %d backend_error notes, want 1: %+v", notes, flight.Contents("test").Notes)
	}
	if got := f.Shards()[1].Booster().Registry().EventCount("backend_error"); got != 1 {
		t.Fatalf("shard 1 registry recorded %d backend_error events, want 1", got)
	}
	if d.images[0] != 4 {
		t.Fatalf("healthy shard published %d images, want 4", d.images[0])
	}
}
