package backends

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/fpga"
	"dlbooster/internal/hugepage"
	"dlbooster/internal/metrics"
	"dlbooster/internal/queue"
)

// base carries the machinery every host-side backend shares: the batch
// buffer pool, the Full queue, decode counters and the optional tiered
// epoch cache — the same core.TieredCache the Booster uses, so the CPU
// baselines get RAM→NVMe spill and hybrid replay for free. Concrete
// backends embed it and supply their own RunEpoch.
type base struct {
	batchSize            int
	outW, outH, channels int
	pool                 *hugepage.Pool
	full                 *queue.Queue[*core.Batch]

	images metrics.Counter
	errs   metrics.Counter

	mu  sync.Mutex
	seq int

	// cache is the tiered epoch cache (nil = caching disabled), possibly
	// shared with other backends or Boosters. replaying suppresses
	// re-capture while ReplayCache re-decodes evicted entries; runEpoch
	// is the concrete backend's RunEpoch, wired by its constructor so
	// the shared replay path can re-decode through it.
	cache     *core.TieredCache
	replaying atomic.Bool
	runEpoch  func(core.DataCollector) error

	closeOnce sync.Once
}

// baseConfig is the geometry shared by all backend constructors.
type baseConfig struct {
	BatchSize            int
	OutW, OutH, Channels int
	PoolBatches          int
	// Cache sizes the tiered epoch cache (see core.CacheConfig).
	Cache core.CacheConfig
	// SharedCache overrides Cache with an externally-owned tier pair.
	SharedCache *core.TieredCache
}

func newBase(cfg baseConfig) (*base, error) {
	if cfg.BatchSize <= 0 {
		return nil, errors.New("backends: batch size must be positive")
	}
	if cfg.OutW <= 0 || cfg.OutH <= 0 || (cfg.Channels != 1 && cfg.Channels != 3) {
		return nil, fmt.Errorf("backends: bad geometry %dx%dx%d", cfg.OutW, cfg.OutH, cfg.Channels)
	}
	if cfg.PoolBatches == 0 {
		cfg.PoolBatches = 8
	}
	if cfg.PoolBatches < 2 {
		return nil, errors.New("backends: need at least 2 pool batches")
	}
	pool, err := hugepage.NewPool(cfg.BatchSize*cfg.OutW*cfg.OutH*cfg.Channels, cfg.PoolBatches)
	if err != nil {
		return nil, err
	}
	cache := cfg.SharedCache
	if cache == nil && cfg.Cache.RAMBytes > 0 {
		cache, err = core.NewTieredCache(cfg.Cache)
		if err != nil {
			pool.Close()
			return nil, err
		}
	}
	return &base{
		batchSize: cfg.BatchSize,
		outW:      cfg.OutW, outH: cfg.OutH, channels: cfg.Channels,
		pool:  pool,
		full:  queue.New[*core.Batch](cfg.PoolBatches),
		cache: cache,
	}, nil
}

func (b *base) imageBytes() int { return b.outW * b.outH * b.channels }

// Batches implements Backend.
func (b *base) Batches() *queue.Queue[*core.Batch] { return b.full }

// RecycleBatch implements Backend.
func (b *base) RecycleBatch(batch *core.Batch) error {
	if batch == nil || batch.Buf == nil {
		return errors.New("backends: nil batch")
	}
	return b.pool.Put(batch.Buf)
}

// CloseBatches implements Backend.
func (b *base) CloseBatches() { b.full.Close() }

// Close implements Backend.
func (b *base) Close() {
	b.closeOnce.Do(func() {
		b.full.Close()
		b.pool.Close()
	})
}

// Images implements Backend.
func (b *base) Images() int64 { return b.images.Value() }

// DecodeErrors implements Backend.
func (b *base) DecodeErrors() int64 { return b.errs.Value() }

// nextSeq issues a batch sequence number.
func (b *base) nextSeq() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	return b.seq
}

// publish caches (if enabled) and pushes a finished batch. refs are the
// items' DataRefs and costNanos the measured build cost, both feeding
// the cache's eviction policy; no-cache callers pass nil and 0.
func (b *base) publish(batch *core.Batch, refs []fpga.DataRef, costNanos float64) error {
	if batch.Images == 0 {
		return b.pool.Put(batch.Buf)
	}
	batch.AssembledAt = time.Now()
	if b.cache != nil && !b.replaying.Load() {
		b.cache.Add(batch, refs, costNanos)
	}
	return b.full.Push(batch)
}

// Cache exposes the tiered epoch cache (nil when caching is disabled),
// for sharing and tests.
func (b *base) Cache() *core.TieredCache { return b.cache }

// CacheComplete implements Backend: the whole first epoch is still
// resident across the cache tiers.
func (b *base) CacheComplete() bool {
	return b.cache != nil && b.cache.Complete()
}

// CacheReplayable implements Backend: ReplayCache can serve an epoch,
// re-decoding evicted entries if it must.
func (b *base) CacheReplayable() bool {
	return b.cache != nil && b.cache.Available() == nil
}

// ReplayCache implements Backend: serve one epoch from the tiered
// cache. Replayed batches share the cached Metas and Valid slices (same
// aliasing contract as core.Booster.ReplayCache): cache entries are
// immutable once written and consumers treat published batches as
// read-only. Evicted entries are re-decoded through the backend's own
// RunEpoch; errors wrap core.ErrCacheUnavailable with the cause.
func (b *base) ReplayCache() error {
	if b.cache == nil {
		return core.ErrCacheDisabled
	}
	sink := core.CacheReplaySink{
		GetBuffer: func() (*hugepage.Buffer, error) {
			buf, err := b.pool.Get()
			if err != nil {
				return nil, fmt.Errorf("backends: pool closed: %w", err)
			}
			return buf, nil
		},
		Publish: func(buf *hugepage.Buffer, images int, metas []core.ItemMeta, valid []bool, _ core.CacheTier) error {
			batch := &core.Batch{
				Buf:    buf,
				Images: images,
				W:      b.outW, H: b.outH, C: b.channels,
				Metas:       metas,
				Valid:       valid,
				Seq:         b.nextSeq(),
				AssembledAt: time.Now(),
			}
			b.images.Add(int64(images))
			return b.full.Push(batch)
		},
	}
	if b.runEpoch != nil {
		sink.Redecode = func(items []core.Item) error {
			b.replaying.Store(true)
			defer b.replaying.Store(false)
			return b.runEpoch(core.CollectorFromItems(items))
		}
	}
	return b.cache.Replay(0, 1, sink)
}
