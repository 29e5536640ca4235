package backends

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/fpga"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/metrics"
	"dlbooster/internal/pix"
)

// CPU is the CPU-based online preprocessing baseline: a pool of worker
// threads decoding JPEGs at runtime — the backend that "achieves only
// ∼25% training performance in the default configuration or makes up the
// performance gaps by burning more than 12 CPU cores per GPU" (§1).
// Decode busy time per worker is accounted to a BusyTracker so
// experiments can report the paper's cores-consumed metric from the same
// run that produced throughput.
type CPU struct {
	*core.BatchPlane
	workers      int
	source       fpga.DataSource
	busy         *metrics.BusyTracker
	batchTimeout time.Duration
	partialFlush metrics.Counter
	scaled       metrics.Counter

	jobs      chan cpuJob
	workerWG  sync.WaitGroup
	closeOnce sync.Once
}

type cpuJob struct {
	ref   fpga.DataRef
	batch *cpuBatch
	index int
}

// cpuBatch tracks a batch buffer being filled by the workers. refs and
// startedAt feed the tiered cache's admission (re-decodability and
// measured cost); refs is only captured when caching is on.
type cpuBatch struct {
	batch     *core.Batch
	pending   atomic.Int32
	done      *sync.WaitGroup // epoch-level join
	refs      []fpga.DataRef
	startedAt time.Time
}

// CPUConfig configures the CPU baseline.
type CPUConfig struct {
	BatchSize            int
	OutW, OutH, Channels int
	PoolBatches          int
	// Cache sizes the tiered epoch cache (RAM → NVMe spill); a zero
	// RAMBytes disables caching.
	Cache core.CacheConfig
	// SharedCache, when non-nil, captures into and replays from an
	// externally-owned cache instead of building one from Cache.
	SharedCache *core.TieredCache
	// Workers is the number of decode threads; the paper's "default
	// configuration" is perf.DefaultCPUDecodeThreads, and its
	// max-performance sweeps raise it until the GPU is fed.
	Workers int
	// Source resolves disk DataRefs.
	Source fpga.DataSource
	// Busy receives per-worker decode busy time under the component
	// name "preprocess" (optional).
	Busy *metrics.BusyTracker
	// BatchTimeout, when positive and the collector is a
	// core.StreamingCollector, seals a partial batch once its oldest
	// item has waited this long — the same deadline-flushed dynamic
	// batching as core.Config.BatchTimeout, so the CPU serving baseline
	// honours the bounded-latency contract too. 0 keeps strict batches.
	BatchTimeout time.Duration
}

// NewCPU builds the baseline and starts its workers.
func NewCPU(cfg CPUConfig) (*CPU, error) {
	if cfg.Workers <= 0 {
		return nil, errors.New("backends: cpu workers must be positive")
	}
	if cfg.BatchTimeout < 0 {
		return nil, fmt.Errorf("backends: negative batch timeout %v", cfg.BatchTimeout)
	}
	plane, err := core.NewBatchPlane(core.PlaneConfig{
		BatchSize: cfg.BatchSize, OutW: cfg.OutW, OutH: cfg.OutH,
		Channels: cfg.Channels, PoolBatches: cfg.PoolBatches,
		Cache: cfg.Cache, SharedCache: cfg.SharedCache,
	})
	if err != nil {
		return nil, err
	}
	c := &CPU{
		BatchPlane:   plane,
		workers:      cfg.Workers,
		source:       cfg.Source,
		busy:         cfg.Busy,
		batchTimeout: cfg.BatchTimeout,
		jobs:         make(chan cpuJob, cfg.Workers*2),
	}
	for i := 0; i < c.workers; i++ {
		c.workerWG.Add(1)
		go func() {
			defer c.workerWG.Done()
			// Each worker owns one Scratch: steady-state decoding
			// then allocates nothing per image.
			var sc jpeg.Scratch
			for j := range c.jobs {
				c.decodeOne(j, &sc)
			}
		}()
	}
	return c, nil
}

// Name implements Backend.
func (c *CPU) Name() string { return "cpu" }

// Workers returns the decode thread count.
func (c *CPU) Workers() int { return c.workers }

// PartialFlushes returns the count of batches sealed by the
// BatchTimeout deadline before filling.
func (c *CPU) PartialFlushes() int64 { return c.partialFlush.Value() }

// ScaledDecodes returns the count of images decoded below full scale by
// the decode-to-scale fast path.
func (c *CPU) ScaledDecodes() int64 { return c.scaled.Value() }

// ReplayCache implements Backend, re-decoding evicted entries through
// the worker pool.
func (c *CPU) ReplayCache() error { return c.Replay(0, 1, c.RunEpoch) }

// decodeOne is the per-image work a baseline burns a core on: fetch,
// entropy decode, iDCT, colour convert, resize — all on the CPU, through
// the decode-to-scale fast path: it reconstructs only the resolution the
// batch slot needs and writes straight into it.
func (c *CPU) decodeOne(j cpuJob, sc *jpeg.Scratch) {
	start := time.Now()
	ok := func() bool {
		data := j.ref.Inline
		if data == nil {
			if c.source == nil {
				return false
			}
			var err error
			data, err = c.source.Fetch(j.ref)
			if err != nil {
				return false
			}
		}
		bt := j.batch.batch
		dst := pix.Image{W: bt.W, H: bt.H, C: bt.C, Pix: bt.Image(j.index)}
		scale, err := jpeg.DecodeScaledInto(data, &dst, sc)
		if err != nil {
			return false
		}
		if scale < 8 {
			c.scaled.Add(1)
		}
		return true
	}()
	if c.busy != nil {
		c.busy.Record("preprocess", time.Since(start).Seconds())
	}
	c.Settle(j.batch.batch, j.index, ok)
	if j.batch.pending.Add(-1) == 0 {
		// Publish failure means shutdown mid-epoch (the plane took the
		// buffer back); the epoch join must still complete so RunEpoch
		// can return.
		_ = c.Publish(j.batch.batch, j.batch.refs, j.batch.startedAt)
		j.batch.done.Done()
	}
}

// RunEpoch implements Backend: assemble batches and fan decode jobs out
// to the worker pool, pipelined across batch buffers.
func (c *CPU) RunEpoch(col core.DataCollector) error {
	if col == nil {
		return errors.New("backends: nil collector")
	}
	var epochWG sync.WaitGroup
	var cur *cpuBatch
	var curJobs []cpuJob
	var flushAt time.Time
	flush := func() {
		if cur == nil {
			return
		}
		// Arm the pending count before releasing any job, so the last
		// decode (not this goroutine) publishes the batch.
		cur.pending.Store(int32(len(curJobs)))
		for _, j := range curJobs {
			c.jobs <- j
		}
		cur, curJobs = nil, nil
	}
	// Deadline-flushed dynamic batching only engages with a streaming
	// collector: a disk epoch never pauses, so the timeout is moot.
	stream, _ := col.(core.StreamingCollector)
	bt := c.batchTimeout
collect:
	for {
		var item core.Item
		var ok bool
		if cur != nil && bt > 0 && stream != nil {
			for {
				d := time.Until(flushAt)
				if d <= 0 {
					c.partialFlush.Add(1)
					flush()
					continue collect
				}
				var alive bool
				item, ok, alive = stream.NextTimeout(d)
				if ok || !alive {
					break
				}
			}
		} else {
			item, ok = col.Next()
		}
		if !ok {
			break
		}
		if cur == nil {
			batch, err := c.Acquire()
			if err != nil {
				return err
			}
			cur = &cpuBatch{batch: batch, done: &epochWG, startedAt: time.Now()}
			epochWG.Add(1)
			if bt > 0 {
				flushAt = time.Now().Add(bt)
			}
		}
		slot := cur.batch.Images
		cur.batch.Images++
		cur.batch.Metas = append(cur.batch.Metas, item.Meta)
		cur.batch.Valid = append(cur.batch.Valid, false)
		if c.Cache() != nil {
			cur.refs = append(cur.refs, item.Ref)
		}
		curJobs = append(curJobs, cpuJob{ref: item.Ref, batch: cur, index: slot})
		if cur.batch.Images == c.BatchSize() {
			flush()
		}
	}
	flush()
	epochWG.Wait()
	return nil
}

// Close stops the workers and releases resources.
func (c *CPU) Close() {
	c.closeOnce.Do(func() {
		close(c.jobs)
		c.workerWG.Wait()
	})
	c.BatchPlane.Close()
}

var _ Backend = (*CPU)(nil)
