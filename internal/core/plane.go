// The batch plane — everything between "a decoder filled a slot" and
// "the Dispatcher popped a batch": the MemManager pool (Algorithm 2),
// the Full_Batch_Queue, the batch sequence, the §3.1 tiered cache and
// its replay. Every Booster — DLBooster and each baseline in
// internal/backends — embeds one, so assemble → publish → cache →
// replay exists once.

package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dlbooster/internal/fpga"
	"dlbooster/internal/hugepage"
	"dlbooster/internal/metrics"
	"dlbooster/internal/queue"
)

// BatchPlane owns the batch buffers of one backend from checkout to
// recycle. It is the only caller of TieredCache.Add and Replay, and the
// only place a batch is stamped, pushed onto the Full queue and counted.
type BatchPlane struct {
	batchSize            int
	outW, outH, channels int
	pool                 *hugepage.Pool
	full                 *queue.Queue[*Batch]
	seq                  atomic.Int64

	images    metrics.Counter
	errors    metrics.Counter
	published metrics.Counter

	// Telemetry sinks, wired by the Booster. traced gates per-batch
	// histogram observes, spanned gates per-batch span stamping.
	reg             *metrics.Registry
	traced, spanned bool

	// cache is the tiered first-epoch cache (nil = caching disabled),
	// possibly shared across planes (fleet shards). replaying suppresses
	// capture while replay re-decodes evicted entries — without it every
	// replay would re-admit them as duplicates and later epochs would
	// serve those items twice.
	cache     *TieredCache
	replaying atomic.Bool

	// Cache-hit accounting: images and bytes served from the tiers, split
	// by the tier that served them, plus the evicted images replay had to
	// re-decode. Per-plane even when the cache is shared, so a fleet
	// rollup sums without double-counting.
	cacheReplayImages   metrics.Counter
	cacheReplayBytes    metrics.Counter
	cacheRAMHitImages   metrics.Counter
	cacheSpillHitImages metrics.Counter
	cacheRedecodeImages metrics.Counter

	closeOnce sync.Once
}

// newBatchPlane validates cfg's batch geometry and pool sizing (at
// least 2 buffers, for pipelining) and builds the pool, the Full queue
// and (when sized) the tiered cache.
func newBatchPlane(cfg Config) (*BatchPlane, error) {
	if cfg.BatchSize <= 0 {
		return nil, errors.New("core: batch size must be positive")
	}
	if cfg.OutW <= 0 || cfg.OutH <= 0 || (cfg.Channels != 1 && cfg.Channels != 3) {
		return nil, fmt.Errorf("core: bad output geometry %dx%dx%d (channels must be 1 or 3)", cfg.OutW, cfg.OutH, cfg.Channels)
	}
	if cfg.PoolBatches == 0 {
		cfg.PoolBatches = 8
	}
	if cfg.PoolBatches < 2 {
		return nil, errors.New("core: need at least 2 pool batches for pipelining")
	}
	pool, err := hugepage.NewPool(cfg.BatchSize*cfg.OutW*cfg.OutH*cfg.Channels, cfg.PoolBatches)
	if err != nil {
		return nil, err
	}
	cache := cfg.SharedCache
	if cache == nil && cfg.Cache.RAMBytes > 0 {
		if cache, err = NewTieredCache(cfg.Cache); err != nil {
			pool.Close()
			return nil, err
		}
	}
	return &BatchPlane{
		batchSize: cfg.BatchSize,
		outW:      cfg.OutW, outH: cfg.OutH, channels: cfg.Channels,
		pool:  pool,
		full:  queue.New[*Batch](cfg.PoolBatches),
		cache: cache,
	}, nil
}

// BatchSize returns the capacity of every batch in images.
func (p *BatchPlane) BatchSize() int { return p.batchSize }

// Batches returns the Full_Batch_Queue the Dispatcher drains.
func (p *BatchPlane) Batches() *queue.Queue[*Batch] { return p.full }

// Pool exposes the MemManager, for tests and the Table 1 surface.
func (p *BatchPlane) Pool() *hugepage.Pool { return p.pool }

// Images returns the count of successfully decoded (or replayed) images.
func (p *BatchPlane) Images() int64 { return p.images.Value() }

// DecodeErrors returns the count of failed decodes.
func (p *BatchPlane) DecodeErrors() int64 { return p.errors.Value() }

// settle books the outcome of one slot's decode: the slot's Valid flag
// and the images / decode-errors counters move together.
func (p *BatchPlane) settle(batch *Batch, slot int, ok bool) {
	batch.Valid[slot] = ok
	if ok {
		p.images.Add(1)
	} else {
		p.errors.Add(1)
	}
}

// getBuffer checks one buffer out of the pool (Table 1 get_item),
// blocking until the consumer recycles one.
func (p *BatchPlane) getBuffer() (*hugepage.Buffer, error) {
	buf, err := p.pool.Get()
	if err != nil {
		return nil, fmt.Errorf("core: memory pool closed: %w", err)
	}
	return buf, nil
}

// newBatch wraps a checked-out buffer with the plane's geometry and the
// next batch sequence number.
func (p *BatchPlane) newBatch(buf *hugepage.Buffer) *Batch {
	return &Batch{Buf: buf, W: p.outW, H: p.outH, C: p.channels, Seq: int(p.seq.Add(1))}
}

// acquire blocks for a free buffer and returns it as an empty batch for
// the reader to fill; publish hands it on.
func (p *BatchPlane) acquire() (*Batch, error) {
	buf, err := p.getBuffer()
	if err != nil {
		return nil, err
	}
	batch := p.newBatch(buf)
	if p.spanned {
		batch.Trace = &metrics.Span{Batch: batch.Seq}
	}
	return batch, nil
}

// publish stamps a filled batch, admits it to the cache and pushes it
// onto the Full queue. refs are the items' DataRefs (so an evicted entry
// stays re-decodable) and startedAt the build start, whose distance to
// assembly is the measured decode cost the eviction policy weighs; both
// matter only with caching on. The buffer always leaves the caller's
// hands: an empty batch (stream ended exactly at a boundary) and a
// failed push (queue closed mid-teardown) return it to the pool.
func (p *BatchPlane) publish(batch *Batch, refs []fpga.DataRef, startedAt time.Time) error {
	if batch.Images == 0 {
		return p.pool.Put(batch.Buf)
	}
	batch.AssembledAt = time.Now()
	if tr := batch.Trace; tr != nil {
		tr.Published = batch.AssembledAt
		tr.Images = batch.Images
	}
	if p.traced {
		// Fill ratio (0..1], not milliseconds: 1.0 is a full batch, a
		// low tail means deadline flushes are trading throughput for
		// latency (see docs/METRICS.md).
		p.reg.Observe(metrics.StageBatchFill, float64(batch.Images)/float64(p.batchSize))
	}
	if p.cache != nil && !p.replaying.Load() {
		p.cache.Add(batch, refs, float64(batch.AssembledAt.Sub(startedAt).Nanoseconds()))
	}
	return p.push(batch)
}

func (p *BatchPlane) push(batch *Batch) error {
	if err := p.full.Push(batch); err != nil {
		_ = p.pool.Put(batch.Buf) // Push may fail post-Close; the checkout is cleared regardless
		return err
	}
	p.published.Add(1)
	return nil
}

// RecycleBatch returns a consumed batch's buffer to the pool (Table 1
// recycle_item). The Dispatcher calls it after stream synchronisation.
// A traced batch's span terminates here: the recycle timestamp is
// stamped and the completed span handed to the registry exactly once.
func (p *BatchPlane) RecycleBatch(batch *Batch) error {
	if batch == nil || batch.Buf == nil {
		return errors.New("core: nil batch")
	}
	if tr := batch.Trace; tr != nil {
		batch.Trace = nil
		tr.Recycled = time.Now()
		p.reg.CompleteSpan(*tr)
	}
	return p.pool.Put(batch.Buf)
}

// CloseBatches marks the end of the batch stream, letting consumers
// drain and exit.
func (p *BatchPlane) CloseBatches() { p.full.Close() }

// Close shuts the Full queue and the pool down; embedders stop their
// decoders first.
func (p *BatchPlane) Close() {
	p.closeOnce.Do(func() {
		p.full.Close()
		p.pool.Close()
	})
}

// Cache exposes the tiered epoch cache (nil when caching is disabled),
// for sharing with other shards and for tests.
func (p *BatchPlane) Cache() *TieredCache { return p.cache }

// CacheComplete reports whether the whole first epoch is still resident
// across the cache tiers, i.e. a replay would touch the decoder zero
// times.
func (p *BatchPlane) CacheComplete() bool { return p.cache != nil && p.cache.Complete() }

// CacheReplayable reports whether ReplayCache can serve an epoch at all —
// possibly re-decoding evicted batches through the decode path. Weaker
// than CacheComplete: use it when a partially-cached epoch is still
// worth replaying.
func (p *BatchPlane) CacheReplayable() bool { return p.cache != nil && p.cache.Available() == nil }

// cacheStats snapshots the tiered cache (zero value when caching is
// disabled), backing the cache gauges and counters.
func (p *BatchPlane) cacheStats() CacheStats {
	if p.cache == nil {
		return CacheStats{}
	}
	return p.cache.Stats()
}

// CachedBatches returns the number of captured batches still resident
// in some cache tier (evicted entries excluded).
func (p *BatchPlane) CachedBatches() int {
	st := p.cacheStats()
	return st.RAMResident + st.SpillResident
}

// replay serves this plane's 1/shards slice of the cached epoch — entry
// indices congruent to shard modulo shards — the offline-like fast path
// of the hybrid service (§3.1). RAM-tier batches are copied into pool
// buffers, spill-tier batches are read into them from the NVMe store
// (paced by its bandwidth model), and evicted batches are re-decoded from
// their retained DataRefs through redecode, the Booster's RunEpoch —
// every batch still flows through pool buffers and the Full queue so
// the downstream pipeline is identical either way.
//
// Replayed batches share the cached Metas and Valid slices rather than
// copying them per epoch: cache entries are immutable once written, and
// every downstream consumer (Dispatcher, engines) treats a published
// batch's Metas/Valid as read-only, so the aliasing is safe and saves
// two allocations per batch per replayed epoch.
//
// When nothing can be served the error wraps ErrCacheUnavailable with
// the cause — disabled, never filled, over the RAM limit with no spill
// tier, or fully evicted (see docs/API.md).
func (p *BatchPlane) replay(shard, shards int, redecode func(DataCollector) error) error {
	if p.cache == nil {
		return ErrCacheDisabled
	}
	return p.cache.Replay(shard, shards, CacheReplaySink{
		GetBuffer: p.getBuffer,
		Publish: func(buf *hugepage.Buffer, images int, metas []ItemMeta, valid []bool, tier CacheTier) error {
			batch := p.newBatch(buf)
			batch.Images, batch.Metas, batch.Valid = images, metas, valid
			batch.AssembledAt = time.Now()
			p.images.Add(int64(images))
			p.cacheReplayImages.Add(int64(images))
			p.cacheReplayBytes.Add(int64(images * batch.ImageBytes()))
			switch tier {
			case TierRAM:
				p.cacheRAMHitImages.Add(int64(images))
			case TierSpill:
				p.cacheSpillHitImages.Add(int64(images))
			}
			return p.push(batch)
		},
		Redecode: func(items []Item) error {
			p.cacheRedecodeImages.Add(int64(len(items)))
			p.replaying.Store(true)
			defer p.replaying.Store(false)
			return redecode(CollectorFromItems(items))
		},
	})
}
