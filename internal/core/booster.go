package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"dlbooster/internal/fpga"
	"dlbooster/internal/metrics"
	"dlbooster/internal/queue"
)

// Config assembles a DLBooster backend.
type Config struct {
	// BatchSize is images per batch buffer (per-GPU batch in the paper).
	BatchSize int
	// OutW/OutH/Channels is the decoder output geometry (the resizer's
	// target, e.g. 224×224×3).
	OutW, OutH, Channels int
	// PoolBatches is the number of HugePage batch buffers (default 8).
	// It bounds decode-ahead: when all are in flight, the FPGAReader
	// blocks, which is the back-pressure of Algorithm 1.
	PoolBatches int
	// FPGA is the decoder geometry (zero value = the paper's 4/2/1).
	FPGA fpga.Config
	// FPGADevices is the number of decoder boards; commands round-robin
	// across them. "The bottleneck can be overcome by plugging more
	// FPGA devices" (§5.3). Default 1.
	FPGADevices int
	// Mirror names the decoder image to load (default "jpeg").
	Mirror string
	// Source resolves disk DataRefs (nil if inputs are inline/NIC).
	Source fpga.DataSource
	// Cache configures the tiered first-epoch cache of §3.1: decoded
	// batches are retained in a RAM tier up to Cache.RAMBytes, demoted
	// to the optional NVMe spill tier when RAM fills, and later epochs
	// replay from the tiers (re-decoding only what was evicted). A zero
	// RAMBytes disables caching.
	Cache CacheConfig
	// SharedCache, when non-nil, makes this Booster capture into and
	// replay from a cache owned elsewhere — how fleet shards share one
	// tier pair (see fleet.ReplayShared). It overrides Cache.
	SharedCache *TieredCache
	// BatchTimeout enables deadline-flushed dynamic batching: a partial
	// batch is sealed and dispatched once its oldest item has waited
	// this long, instead of stalling until the batch fills or the
	// stream ends — the bounded receipt-to-prediction promise of the
	// online-inference workflow (Figure 8). It takes effect only with a
	// StreamingCollector (network feeds, item queues); a closed-loop
	// disk epoch never pauses, so the deadline is moot there. 0 (the
	// default) keeps strict batches, the paper's closed-loop behaviour.
	BatchTimeout time.Duration
	// Resilience is the failure policy (retry, timeout, CPU fallback).
	Resilience Resilience
	// Metrics, when non-nil, enables full observability: per-batch trace
	// spans, per-stage latency histograms and get_item wait timing are
	// recorded into this registry, alongside the pull-based counters,
	// gauges and queue probes the Booster registers regardless. Nil (the
	// default) keeps every hot path free of timestamp and histogram
	// work — Booster.Snapshot still reports counters, queue depths and
	// events, just no stage latencies.
	Metrics *metrics.Registry
	// Flight, when non-nil, attaches an always-on flight recorder: every
	// completed batch span and every event lands in its fixed-size rings,
	// and degradation or command revocation can trigger an automatic
	// post-mortem dump. Independent of Metrics — a flight recorder alone
	// enables per-batch span stamping (a handful of time.Now calls per
	// batch) but not per-image histogram observes.
	Flight *metrics.FlightRecorder
}

// Resilience is the failure policy of the host bridger: how the
// FPGAReader reacts when decode commands fail, stall, or a board
// wedges outright. The zero value preserves the paper's fail-fast
// behaviour: an errored command marks its slot invalid, and a stuck
// board stalls the reader (the paper's closed-loop testbed never sees
// either, but a production deployment does — so the policy degrades
// the pipeline instead of stalling it).
type Resilience struct {
	// MaxRetries resubmits a failed decode command up to N times before
	// settling it (0 = no retries). Retries target transient decoder
	// faults; a payload that genuinely cannot decode burns its retries
	// and settles like any other final failure.
	MaxRetries int
	// RetryBackoff is the pause before the first retry, doubling per
	// attempt. Defaults to 100µs when MaxRetries is set.
	RetryBackoff time.Duration
	// CmdTimeout bounds the FINISH wait per command: an expired command
	// is revoked on its board (fencing any still-pending DMA write, so
	// the batch slot is safe to rescue and the buffer safe to recycle)
	// and settled host-side. If the revocation loses the race — the
	// FINISH was already raised — the command is simply kept pending and
	// settles normally. The same bound applies to submission, so the
	// full FIFO of a wedged board sheds work instead of blocking the
	// reader forever (0 = wait forever).
	CmdTimeout time.Duration
	// FallbackAfter engages graceful degradation: after N consecutive
	// final FPGA failures the booster places every decode on its host
	// lanes and records the switch in the event log. While fallback is
	// configured, every finally-failed board command is also resubmitted
	// to the lanes, with the same retries, spans and settle path, so a
	// dead decoder loses no images (0 = disabled).
	FallbackAfter int
}

func (r Resilience) normalize() (Resilience, error) {
	if r.MaxRetries < 0 || r.FallbackAfter < 0 {
		return r, fmt.Errorf("core: negative resilience counters %+v", r)
	}
	if r.RetryBackoff < 0 || r.CmdTimeout < 0 {
		return r, fmt.Errorf("core: negative resilience durations %+v", r)
	}
	if r.MaxRetries > 0 && r.RetryBackoff == 0 {
		r.RetryBackoff = 100 * time.Microsecond
	}
	return r, nil
}

// normalize validates what is the Booster's own; batch geometry and
// pool sizing are validated by newBatchPlane.
func (c *Config) normalize() error {
	res, err := c.Resilience.normalize()
	if err != nil {
		return err
	}
	c.Resilience = res
	if c.BatchTimeout < 0 {
		return fmt.Errorf("core: negative batch timeout %v", c.BatchTimeout)
	}
	if c.Mirror == "" {
		c.Mirror = "jpeg"
	}
	if c.FPGADevices == 0 {
		c.FPGADevices = 1
	}
	if c.FPGADevices < 0 {
		return fmt.Errorf("core: %d FPGA devices", c.FPGADevices)
	}
	return nil
}

// Booster is a data-preprocessing backend: the FPGAReader (epoch.go)
// decoding into the batch plane it embeds through two decoders, its FPGA
// boards and its host lanes (host.go), which share one FINISH stream.
// New builds DLBooster proper; NewHost a baseline, which has no boards.
type Booster struct {
	// BatchPlane is the pool, Full queue, cache and replay. Its reg is
	// never nil here: the user's registry when Config.Metrics was set
	// (traced = full span/latency instrumentation), otherwise an
	// internal one carrying only pull-based probes so Snapshot always
	// answers. spanned is on when either the full instrumentation or a
	// flight recorder wants spans.
	*BatchPlane
	cfg    Config
	devs   []*fpga.Device
	boards *FPGAChannel // nil when devs is empty
	lanes  *hostLanes
	fin    finishes

	collected    metrics.Counter
	partialFlush metrics.Counter
	cmdID        uint64
	// idle holds settled pendingSlots for reuse (too big for a map to
	// store by value without a heap object each). It outlives the epoch,
	// so only the first epoch pays new(pendingSlot) for the commands it
	// keeps in flight. Like cmdID it is unguarded: every caller runs one
	// epoch at a time on a Booster (see RunEpoch).
	idle []*pendingSlot

	// flight is the optional always-on recorder (nil-safe to call).
	flight *metrics.FlightRecorder

	// scaledCPU counts a New Booster's lane decodes that took the
	// decode-to-scale fast path below full resolution; the boards keep
	// their own per-device counters.
	scaledCPU metrics.Counter

	// Runtime-tunable knob block (see knobs.go): the dynamic-batching
	// deadline and the fractional CPU decode share, seeded from Config
	// at New and retunable from any goroutine while epochs run.
	batchTimeoutNs atomic.Int64
	cpuShareUnits  atomic.Int64
	// offloads counts images the fractional offload knob placed on the
	// host lanes (distinct from failure-driven fallbacks).
	offloads metrics.Counter

	// Failure-policy accounting (see Resilience).
	retries      metrics.Counter
	timeouts     metrics.Counter
	fallbacks    metrics.Counter
	lateFinishes metrics.Counter
	consecFails  atomic.Int64
	degraded     atomic.Bool
}

// New builds the backend: HugePage pool, FPGA devices with the requested
// mirror, host lanes running the same mirror (one per GOMAXPROCS), and
// the Full_Batch_Queue the Dispatcher consumes.
func New(cfg Config) (*Booster, error) { return build(cfg, runtime.GOMAXPROCS(0), nil) }

// build assembles a Booster with no boards and lanes host lanes calling
// decode, or, when decode is nil, DLBooster proper: cfg.FPGADevices
// boards and lanes host lanes running the same mirror.
func build(cfg Config, lanes int, decode HostDecode) (*Booster, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	plane, err := newBatchPlane(cfg)
	if err != nil {
		return nil, err
	}
	b := &Booster{
		BatchPlane: plane, cfg: cfg, flight: cfg.Flight,
		fin: finishes{queue.New[fpga.Completion](plane.pool.Count() * plane.batchSize)},
	}
	var mirror fpga.Mirror
	boards := 0
	if decode == nil {
		boards = cfg.FPGADevices
		mirror, err = fpga.LoadMirror(cfg.Mirror)
	}
	for err == nil && len(b.devs) < boards {
		var dev *fpga.Device
		if dev, err = fpga.New(cfg.FPGA, plane.pool.Arena(), cfg.Source, mirror); err == nil {
			b.devs = append(b.devs, dev)
		}
	}
	if err != nil {
		for _, d := range b.devs {
			d.Close()
		}
		plane.Close()
		return nil, err
	}
	if decode == nil {
		b.boards = newFPGAChannel(b.devs, b.fin)
		decode = b.mirrorDecode(fpga.NewPipeline(mirror))
	}
	b.lanes = newHostLanes(plane.pool.Arena(), b.fin, lanes, decode)
	plane.reg, plane.traced = cfg.Metrics, cfg.Metrics != nil
	plane.spanned = plane.traced || cfg.Flight != nil
	if plane.reg == nil {
		plane.reg = metrics.NewRegistry()
	}
	b.batchTimeoutNs.Store(int64(cfg.BatchTimeout))
	if b.flight != nil {
		b.reg.AttachFlight(b.flight)
	}
	b.instrument()
	return b, nil
}

// instrument registers the Booster's pull-based telemetry: counters the
// pipeline maintains anyway, queue-depth probes and per-board decoder
// stats. Everything here is read only at Snapshot time, so registration
// costs the hot path nothing — the cheap-by-default contract.
func (b *Booster) instrument() {
	r := b.reg
	r.RegisterCounterFunc("items_collected_total", b.collected.Value)
	r.RegisterCounterFunc("images_decoded_total", b.images.Value)
	r.RegisterCounterFunc("decode_errors_total", b.DecodeErrors)
	r.RegisterCounterFunc("decode_retries_total", b.retries.Value)
	r.RegisterCounterFunc("cmd_timeouts_total", b.timeouts.Value)
	r.RegisterCounterFunc("fallback_decodes_total", b.fallbacks.Value)
	r.RegisterCounterFunc("late_finishes_total", b.lateFinishes.Value)
	r.RegisterCounterFunc("batches_published_total", b.published.Value)
	r.RegisterCounterFunc("serve_partial_flushes_total", b.partialFlush.Value)
	r.RegisterCounterFunc("offload_decodes_total", b.offloads.Value)
	r.RegisterCounterFunc("cache_replay_images_total", b.cacheReplayImages.Value)
	r.RegisterCounterFunc("cache_replay_bytes_total", b.cacheReplayBytes.Value)
	r.RegisterCounterFunc("cache_ram_hit_images_total", b.cacheRAMHitImages.Value)
	r.RegisterCounterFunc("cache_spill_hit_images_total", b.cacheSpillHitImages.Value)
	r.RegisterCounterFunc("cache_redecode_images_total", b.cacheRedecodeImages.Value)
	r.RegisterCounterFunc("cache_demotions_total", func() int64 { return b.cacheStats().Demotions })
	r.RegisterCounterFunc("cache_promotions_total", func() int64 { return b.cacheStats().Promotions })
	r.RegisterCounterFunc("cache_evictions_total", func() int64 { return b.cacheStats().Evictions })
	r.RegisterCounterFunc("cache_spill_writes_total", func() int64 { return b.cacheStats().SpillWrites })
	r.RegisterCounterFunc("cache_spill_write_bytes_total", func() int64 { return b.cacheStats().SpillWriteBytes })
	r.RegisterCounterFunc("cache_spill_read_bytes_total", func() int64 { return b.cacheStats().SpillReadBytes })
	r.RegisterCounterFunc("decode_scaled_total", func() int64 {
		n := b.scaledCPU.Value()
		for _, d := range b.devs {
			n += d.ScaledDecodes()
		}
		return n
	})
	r.RegisterGauge("degraded", func() float64 {
		if b.degraded.Load() {
			return 1
		}
		return 0
	})
	// Knob gauges: the effective runtime-tunable values, so a retune by
	// the autotuner is visible in every snapshot and history sample.
	r.RegisterGauge("knob_batch_timeout_ms", func() float64 {
		return float64(b.BatchTimeout()) / float64(time.Millisecond)
	})
	r.RegisterGauge("knob_cpu_share", b.CPUShare)
	r.RegisterGauge("cache_batches", func() float64 { return float64(b.CachedBatches()) })
	r.RegisterGauge("cache_bytes", func() float64 { return float64(b.cacheStats().RAMBytes) })
	r.RegisterGauge("cache_spill_bytes", func() float64 { return float64(b.cacheStats().SpillBytes) })
	r.RegisterQueue("full_batch", b.full.Len, b.full.Cap)
	r.RegisterQueue("fpga_completions", b.fin.merged.Len, b.fin.merged.Cap)
	b.pool.Instrument(r, b.traced)
	for i, d := range b.devs {
		d.Instrument(r, fmt.Sprintf("fpga%d", i))
	}
}

// Snapshot returns the unified telemetry view of the backend: every
// counter, queue depth, gauge, decoder stage stat and event — plus
// per-stage latency histograms and recent batch spans when the Booster
// was built with Config.Metrics set.
func (b *Booster) Snapshot() *metrics.PipelineSnapshot { return b.reg.Snapshot() }

// Registry exposes the Booster's metrics registry, so callers can hang
// additional instruments (dispatcher queues, engine latencies) off the
// same snapshot.
func (b *Booster) Registry() *metrics.Registry { return b.reg }

// Device exposes the first FPGA decoder, for stats; nil for a Booster
// with none (NewHost).
func (b *Booster) Device() *fpga.Device {
	if len(b.devs) == 0 {
		return nil
	}
	return b.devs[0]
}

// Devices exposes every FPGA decoder board.
func (b *Booster) Devices() []*fpga.Device { return b.devs }

// Channel exposes the FPGAChannel bound to the boards (Table 1); nil for
// a NewHost Booster.
func (b *Booster) Channel() *FPGAChannel { return b.boards }

// Retries returns the count of decode-command resubmissions.
func (b *Booster) Retries() int64 { return b.retries.Value() }

// CmdTimeouts returns the count of commands settled by timeout (FINISH
// never arrived, or the board FIFO never accepted the submit).
func (b *Booster) CmdTimeouts() int64 { return b.timeouts.Value() }

// FallbackDecodes returns the count of images the failure policy
// decoded on the host lanes instead of the FPGA: degraded mode and the
// rescue of failed board commands.
func (b *Booster) FallbackDecodes() int64 { return b.fallbacks.Value() }

// LateFinishes returns the count of commands whose FINISH beat the
// timeout sweep's revocation attempt: the command looked expired but
// had already completed, so it was kept pending and settled normally.
func (b *Booster) LateFinishes() int64 { return b.lateFinishes.Value() }

// PartialFlushes returns the count of batches sealed by the
// BatchTimeout deadline before filling — the dynamic-batching flushes
// that keep online-serving latency bounded.
func (b *Booster) PartialFlushes() int64 { return b.partialFlush.Value() }

// Degraded reports whether the booster has switched decode work to its
// host lanes.
func (b *Booster) Degraded() bool { return b.degraded.Load() }

// Events exposes the failure-event log (degraded-mode switches).
func (b *Booster) Events() []metrics.Event { return b.reg.Events() }

// noteFPGAFailure tracks a final (unretried or unretriable) FPGA
// failure and engages degraded mode at the configured threshold.
func (b *Booster) noteFPGAFailure() {
	n := b.consecFails.Add(1)
	fa := b.cfg.Resilience.FallbackAfter
	if fa > 0 && n >= int64(fa) && b.degraded.CompareAndSwap(false, true) {
		b.reg.Event("degraded",
			fmt.Sprintf("FPGA→CPU fallback engaged after %d consecutive decoder failures", n))
	}
}

// noteFPGASuccess resets the consecutive-failure streak.
func (b *Booster) noteFPGASuccess() { b.consecFails.Store(0) }

// backoffDur returns the pause before retry `attempt` (1-based),
// doubling from the configured base. The reader never sleeps it
// inline — a retry is scheduled by deadline (pendingSlot.retryAt) and
// resubmitted from the event-loop sweep, so one command backing off
// does not head-of-line block completion draining for every other.
func (b *Booster) backoffDur(attempt int) time.Duration {
	d := b.cfg.Resilience.RetryBackoff
	if d <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 10 {
		shift = 10 // cap: backoff is damage control, not a parking lot
	}
	return d << shift
}

// Close tears the backend down: the boards and the lanes first, then
// the FINISH stream they complete into, then the plane.
func (b *Booster) Close() {
	if b.boards != nil {
		b.boards.close()
	}
	b.lanes.close()
	b.fin.merged.Close()
	b.BatchPlane.Close()
}

// ReplayCache serves one epoch from the tiered cache (see
// BatchPlane.replay), re-decoding evicted batches through RunEpoch.
func (b *Booster) ReplayCache() error { return b.replay(0, 1, b.RunEpoch) }

// ReplayCacheShard replays this Booster's 1/shards slice of the cached
// epoch. The fleet uses it to fan one shared cache out across shards
// (fleet.ReplayShared); single-pipeline callers use ReplayCache.
func (b *Booster) ReplayCacheShard(shard, shards int) error {
	return b.replay(shard, shards, b.RunEpoch)
}
