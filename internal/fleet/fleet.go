// Package fleet shards the serving front end into N independent
// Booster shards — each with its own FPGA boards, HugePage arena and
// admission-controlled ingest queue — behind a router that places work
// by consistent hash or least-loaded queue, with cross-shard work
// stealing when a shard's boards degrade to the CPU fallback path.
//
// The paper's scaling lever is "plugging more FPGA devices" (§5.3);
// a fleet is the serving-side form of that lever: preprocessing
// capacity scales with shard count, independent of any single
// pipeline's limits, and one shard's board failures degrade that shard
// alone while the stealer drains its backlog into healthy shards. The
// invariant everything here defends is zero loss: every admitted item
// is decoded by exactly one shard (or sheds with a status reply),
// through degradation, stealing and drain — the property the chaos
// tests assert.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/metrics"
	"dlbooster/internal/queue"
)

// Placement selects how Submit routes items to shards.
type Placement string

const (
	// PlacementLeastLoaded routes each item to the shard with the
	// shortest ingest queue — maximum utilisation, no affinity.
	PlacementLeastLoaded Placement = "least-loaded"
	// PlacementHash routes by consistent hash of the caller's key
	// (e.g. client id), so a client's frames stay on one shard while
	// the ring is stable. Degraded shards leave the ring — new keys
	// relocate, and only theirs — and Submit falls back to
	// least-loaded when no healthy shard remains.
	PlacementHash Placement = "hash"
)

// Admission is the outcome of Fleet.Submit, mirroring the serving
// front door's contract: every item is queued, shed, or refused
// because the fleet is draining.
type Admission int

const (
	// AdmitOK means the item entered a shard's ingest queue and will
	// be decoded by exactly one shard.
	AdmitOK Admission = iota
	// AdmitShed means admission control refused the item: the routed
	// shard's queue stayed full past the grace period.
	AdmitShed
	// AdmitClosed means the fleet is draining; no new work is taken.
	// The refusal is still booked in the routed shard's serve_shed_total
	// (and serve_shed_closed_total), so offered = decoded + shed holds
	// through shutdown.
	AdmitClosed
)

// Config sizes a fleet. NewBooster is the only required field beyond
// Shards: the fleet owns routing, queues and stealing, while the
// caller decides how each shard's Booster is built (registry, boards,
// fault injection, resilience policy).
type Config struct {
	// Shards is the number of independent Booster shards (≥ 1).
	Shards int
	// Placement is the routing policy (default PlacementLeastLoaded).
	Placement Placement
	// QueueCap bounds each shard's ingest queue (default 256).
	QueueCap int
	// Grace is the backpressure window Submit waits on a full queue
	// before shedding (default 1ms).
	Grace time.Duration
	// StealInterval is the stealer's sweep period (default 500µs).
	StealInterval time.Duration
	// Replicas is the consistent-hash ring's virtual nodes per shard
	// (default 128; only used with PlacementHash).
	Replicas int
	// NewBooster builds shard i's Booster. Required.
	NewBooster func(shard int) (*core.Booster, error)
}

func (c *Config) normalize() error {
	if c.Shards < 1 {
		return fmt.Errorf("fleet: %d shards", c.Shards)
	}
	if c.NewBooster == nil {
		return errors.New("fleet: NewBooster factory is required")
	}
	switch c.Placement {
	case "":
		c.Placement = PlacementLeastLoaded
	case PlacementLeastLoaded, PlacementHash:
	default:
		return fmt.Errorf("fleet: unknown placement %q", c.Placement)
	}
	if c.QueueCap == 0 {
		c.QueueCap = 256
	}
	if c.QueueCap < 1 {
		return fmt.Errorf("fleet: queue capacity %d", c.QueueCap)
	}
	if c.Grace <= 0 {
		c.Grace = time.Millisecond
	}
	if c.StealInterval <= 0 {
		c.StealInterval = 500 * time.Microsecond
	}
	if c.Replicas <= 0 {
		c.Replicas = 128
	}
	return nil
}

// Shard is one independent serving pipeline: a Booster plus its
// bounded ingest queue and admission accounting. The caller wires the
// downstream (dispatcher, engine) to Booster().Batches() exactly as it
// would for a single pipeline.
type Shard struct {
	id    int
	b     *core.Booster
	items *queue.Queue[core.Item]
	grace time.Duration

	// effCap is the admission knob: the effective ingest cap, at most
	// the physical queue capacity. Below the physical cap, admit sheds
	// as soon as the queue reaches it — no grace wait — which is how
	// the autotuner trades queueing delay away under overload.
	effCap atomic.Int64

	shed         metrics.Counter
	shedClosed   metrics.Counter
	stolenOut    metrics.Counter
	stolenIn     metrics.Counter
	overloadOnce sync.Once
	unrung       sync.Once // rings the shard off the hash ring once
}

// ID returns the shard's index in the fleet.
func (s *Shard) ID() int { return s.id }

// Booster returns the shard's pipeline backend.
func (s *Shard) Booster() *core.Booster { return s.b }

// Queue exposes the shard's ingest queue, for tests and probes.
func (s *Shard) Queue() *queue.Queue[core.Item] { return s.items }

// Shed returns how many items this shard's admission control refused —
// queue-full sheds plus refusals that arrived after the queue closed.
func (s *Shard) Shed() int64 { return s.shed.Value() }

// ShedClosed returns the subset of Shed that was refused because the
// shard was draining (closed ingest), not because the queue was full.
func (s *Shard) ShedClosed() int64 { return s.shedClosed.Value() }

// SetQueueCap retunes the shard's effective ingest cap — the admission
// knob. Values clamp to [1, physical capacity]; the physical queue is
// never reallocated, admission just refuses earlier. Re-read at every
// admission decision, so a retune applies to the next Submit. Safe
// from any goroutine.
func (s *Shard) SetQueueCap(n int) {
	if n < 1 {
		n = 1
	}
	if c := s.items.Cap(); n > c {
		n = c
	}
	s.effCap.Store(int64(n))
}

// QueueCap returns the effective ingest cap (the physical capacity
// until the first SetQueueCap).
func (s *Shard) QueueCap() int { return int(s.effCap.Load()) }

// StolenOut returns how many queued items the stealer moved off this
// shard after its boards degraded.
func (s *Shard) StolenOut() int64 { return s.stolenOut.Value() }

// StolenIn returns how many items this shard absorbed from degraded
// peers.
func (s *Shard) StolenIn() int64 { return s.stolenIn.Value() }

// admit pushes the item into this shard's queue with one grace period
// of backpressure: a momentary burst drains instead of bouncing
// straight to a shed.
func (s *Shard) admit(item core.Item) Admission {
	if s.items.Closed() {
		// Classify before the cap check: a drain-time refusal is a
		// closed refusal even when the backlog also sits at the cap.
		return s.refuseClosed()
	}
	if c := int(s.effCap.Load()); c < s.items.Cap() && s.items.Len() >= c {
		// The admission knob sits below the physical queue: shed
		// immediately at the effective cap instead of waiting out the
		// grace period against capacity that is deliberately off-limits.
		s.noteShed()
		return AdmitShed
	}
	if ok, err := s.items.TryPush(item); err != nil {
		return s.refuseClosed()
	} else if ok {
		return AdmitOK
	}
	ok, err := s.items.PushTimeout(item, s.grace)
	if err != nil {
		return s.refuseClosed()
	}
	if !ok {
		s.noteShed()
		return AdmitShed
	}
	return AdmitOK
}

// noteShed books one queue-full shed and rings the one-shot overload
// event.
func (s *Shard) noteShed() {
	s.shed.Add(1)
	s.overloadOnce.Do(func() {
		s.b.Registry().Event("ingest_overloaded",
			fmt.Sprintf("shard %d ingest queue full (%d items); shedding with status frames", s.id, s.QueueCap()))
	})
}

// refuseClosed books one draining-time refusal: the frame arrived after
// this shard's ingest closed. It counts in serve_shed_total — the
// client was refused either way — with serve_shed_closed_total keeping
// the subset distinguishable, so offered = decoded + shed reconciles
// across a shutdown instead of leaking the grace-window frames.
func (s *Shard) refuseClosed() Admission {
	s.shed.Add(1)
	s.shedClosed.Add(1)
	return AdmitClosed
}

// instrument hangs the shard's fleet-level probes off its Booster's
// registry, so per-shard snapshots (and the fleet rollup) carry them.
func (s *Shard) instrument() {
	r := s.b.Registry()
	// The queue probe reports the effective (knob) cap, so occupancy
	// ratios — what the ingest-overloaded verdict reads — track the
	// admission the clients actually experience.
	r.RegisterQueue("ingest_items", s.items.Len, s.QueueCap)
	r.RegisterCounterFunc("serve_shed_total", s.shed.Value)
	r.RegisterCounterFunc("serve_shed_closed_total", s.shedClosed.Value)
	r.RegisterCounterFunc("fleet_stolen_out_total", s.stolenOut.Value)
	r.RegisterCounterFunc("fleet_stolen_in_total", s.stolenIn.Value)
	r.RegisterGauge("knob_queue_cap", func() float64 { return float64(s.QueueCap()) })
}

// Fleet is N Booster shards behind one Submit front door, with the
// stealer rebalancing degraded shards' backlogs and Snapshot rolling
// per-shard telemetry into a metrics.FleetSnapshot.
type Fleet struct {
	cfg    Config
	shards []*Shard
	ring   *Ring

	steals metrics.Counter

	stealStop chan struct{}
	stealDone chan struct{}
	epochWG   sync.WaitGroup

	mu       sync.Mutex
	errs     []error
	started  bool
	samplers []*metrics.Sampler

	drainOnce sync.Once
	closeOnce sync.Once
}

// New builds the shards (via cfg.NewBooster) and the router. Call
// Start to launch the per-shard epochs and the stealer, then Submit;
// Drain stops intake and waits for every accepted item to settle;
// Close tears the Boosters down.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:       cfg,
		ring:      NewRing(cfg.Shards, cfg.Replicas),
		stealStop: make(chan struct{}),
		stealDone: make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		b, err := cfg.NewBooster(i)
		if err != nil {
			for _, s := range f.shards {
				s.b.Close()
			}
			return nil, fmt.Errorf("fleet: building shard %d: %w", i, err)
		}
		s := &Shard{id: i, b: b, items: queue.New[core.Item](cfg.QueueCap), grace: cfg.Grace}
		s.effCap.Store(int64(cfg.QueueCap))
		s.instrument()
		f.shards = append(f.shards, s)
	}
	return f, nil
}

// Shards returns the fleet's shards in id order.
func (f *Fleet) Shards() []*Shard { return f.shards }

// Steals returns the total items moved between shards by the stealer.
func (f *Fleet) Steals() int64 { return f.steals.Value() }

// Start launches one epoch goroutine per shard — each driving its
// Booster off its own ingest queue — and, with two or more shards, the
// stealer. The caller must already be draining every shard's Batches()
// queue, or pool backpressure will stall the epochs.
func (f *Fleet) Start() {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	for _, s := range f.shards {
		f.epochWG.Add(1)
		go func(s *Shard) {
			defer f.epochWG.Done()
			if err := s.b.RunEpoch(core.CollectorFromQueue(s.items)); err != nil {
				f.noteErr(fmt.Errorf("shard %d epoch: %w", s.id, err))
			}
			s.b.CloseBatches()
		}(s)
	}
	if len(f.shards) > 1 {
		go f.stealLoop()
	} else {
		close(f.stealDone) // a fleet of one has no peer to steal for
	}
}

func (f *Fleet) noteErr(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.errs = append(f.errs, err)
}

// Submit routes one item to a shard and admits it — the fleet's front
// door. key feeds the consistent-hash placement (use a stable client
// identity for affinity); least-loaded placement ignores it. The
// returned shard index is where the item landed — or, for AdmitClosed,
// the shard the refusal was booked against, so the shed ledger stays
// per-shard even through a drain.
func (f *Fleet) Submit(item core.Item, key uint64) (int, Admission) {
	s := f.route(key)
	if s == nil {
		// Draining: every ingest queue is closed. The refusal still
		// lands on a shard's books — attributed by key — so
		// offered = decoded + shed reconciles across shutdown.
		if len(f.shards) == 0 {
			return -1, AdmitClosed
		}
		s = f.shards[int(key%uint64(len(f.shards)))]
		s.refuseClosed()
		return s.id, AdmitClosed
	}
	return s.id, s.admit(item)
}

// route picks the target shard for a key under the configured
// placement. Degraded shards are rung off the hash ring on first
// sight, so hash placement stops feeding them while the stealer
// drains what they already hold.
func (f *Fleet) route(key uint64) *Shard {
	if f.cfg.Placement == PlacementHash {
		for _, s := range f.shards {
			if s.b.Degraded() {
				s.unrung.Do(func() { f.ring.Remove(s.id) })
			}
		}
		if id, ok := f.ring.Lookup(key); ok {
			return f.shards[id]
		}
		// Every shard degraded: fall through to least-loaded so the
		// fleet keeps serving on CPU decode rather than refusing work.
	}
	return f.leastLoaded(nil)
}

// leastLoaded returns the shard with the shortest ingest queue,
// skipping `except` and closed queues; nil when none qualifies.
func (f *Fleet) leastLoaded(except *Shard) *Shard {
	var best *Shard
	bestLen := 0
	for _, s := range f.shards {
		if s == except || s.items.Closed() {
			continue
		}
		if l := s.items.Len(); best == nil || l < bestLen {
			best, bestLen = s, l
		}
	}
	return best
}

// Snapshot rolls every shard's telemetry into one FleetSnapshot:
// counter sums, merged stage histograms, summed queue depths, and the
// per-shard snapshots the per-shard trace tracks read. Booster
// registries always answer, so no entry is nil.
func (f *Fleet) Snapshot() *metrics.FleetSnapshot {
	snaps := make([]*metrics.PipelineSnapshot, len(f.shards))
	for i, s := range f.shards {
		snaps[i] = s.b.Snapshot()
	}
	return metrics.MergeSnapshots(snaps)
}

// Diagnose runs the bottleneck doctor over the shards' telemetry
// histories — "decoder-bound, sustained; shard 3 is decoder-bound, the
// rest are healthy". A shard whose sampler has no sample yet (or that
// has no sampler, before StartSampler) is read as a history of one: its
// current snapshot.
func (f *Fleet) Diagnose() *metrics.Diagnosis {
	hs := f.Histories()
	for i, h := range hs {
		if h.Len() == 0 {
			hs[i] = metrics.NewHistory(1)
			hs[i].Record(f.shards[i].b.Snapshot())
		}
	}
	return metrics.Diagnose(hs)
}

// StartSampler launches one windowed-telemetry sampler per shard, each
// recording that shard's registry into its own History ring — the same
// per-shard-then-merge shape Snapshot uses, so shard histories roll up
// without cross-shard lock contention. Idempotent; StopSampler joins
// every sampling goroutine.
func (f *Fleet) StartSampler(cfg metrics.SamplerConfig) {
	f.mu.Lock()
	if f.samplers == nil {
		for _, s := range f.shards {
			f.samplers = append(f.samplers, metrics.NewSampler(s.b.Registry(), cfg))
		}
	}
	samplers := f.samplers
	f.mu.Unlock()
	for _, sm := range samplers {
		sm.Start()
	}
}

// StopSampler stops and joins every shard sampler (no-op when
// StartSampler was never called). The histories stay readable.
func (f *Fleet) StopSampler() {
	f.mu.Lock()
	samplers := f.samplers
	f.mu.Unlock()
	for _, sm := range samplers {
		sm.Stop()
	}
}

// Histories returns the per-shard telemetry rings in shard order (nil
// entries when StartSampler was never called).
func (f *Fleet) Histories() []*metrics.History {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*metrics.History, len(f.shards))
	for i, sm := range f.samplers {
		out[i] = sm.History()
	}
	return out
}

// History merges the per-shard rings into one fleet history —
// MergeHistories aligning samples from the newest end — the window the
// fleet scorecard reads. Nil before StartSampler.
func (f *Fleet) History() *metrics.History {
	return metrics.MergeHistories(f.Histories())
}

// Drain shuts intake down in the order the zero-loss invariant needs:
// stop the stealer first (so no item is ever in the stealer's hands
// when a queue closes), then close every ingest queue (Submit starts
// returning AdmitClosed; epochs seal their final batches and close
// their Full queues), then wait for every epoch to settle every
// accepted item. It returns the joined per-shard epoch errors.
func (f *Fleet) Drain() error {
	f.drainOnce.Do(func() {
		// Join the telemetry samplers first: each records a final sample,
		// so the histories cover the run right up to the drain.
		f.StopSampler()
		f.mu.Lock()
		started := f.started
		f.mu.Unlock()
		if started {
			close(f.stealStop)
			<-f.stealDone
		}
		for _, s := range f.shards {
			s.items.Close()
		}
		if started {
			f.epochWG.Wait()
		}
	})
	f.mu.Lock()
	defer f.mu.Unlock()
	return errors.Join(f.errs...)
}

// Close drains (if not already drained) and tears every shard's
// Booster down.
func (f *Fleet) Close() {
	f.closeOnce.Do(func() {
		_ = f.Drain()
		for _, s := range f.shards {
			s.b.Close()
		}
	})
}
