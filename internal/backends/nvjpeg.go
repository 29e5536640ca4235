package backends

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/imageproc"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/metrics"
	"dlbooster/internal/pix"
)

// NvJPEG is the GPU-decode baseline: raw JPEG bytes are shipped to the
// GPU and decoded there, as NVIDIA's nvJPEG/DALI does. Decode work runs
// on the target device's streams and its busy time is charged to the
// device's kernel accounting — the mechanism behind the paper's finding
// that nvJPEG "can dominate 40% GPU utilization ... downgrading the GPU
// performance in model computation by more than 30%" (§2.2). A couple of
// host cores remain busy launching decode kernels (§5.3), which the
// BusyTracker records as "launch".
type NvJPEG struct {
	*base
	dev     *gpu.Device
	lanes   []*gpu.Stream
	source  fpga.DataSource
	busy    *metrics.BusyTracker
	rr      int
	laneMu  sync.Mutex
	closeMu sync.Mutex
}

// NvJPEGConfig configures the GPU-decode baseline.
type NvJPEGConfig struct {
	BatchSize            int
	OutW, OutH, Channels int
	PoolBatches          int
	// Cache sizes the tiered epoch cache (RAM → NVMe spill); a zero
	// RAMBytes disables caching.
	Cache core.CacheConfig
	// SharedCache, when non-nil, captures into and replays from an
	// externally-owned cache instead of building one from Cache.
	SharedCache *core.TieredCache
	// Device is the GPU that both decodes and (elsewhere) runs the
	// model — sharing it is the point.
	Device *gpu.Device
	// Lanes is the number of parallel decode streams (default 2).
	Lanes int
	// Source resolves disk DataRefs.
	Source fpga.DataSource
	// Busy receives host-side kernel-launch busy time as "launch".
	Busy *metrics.BusyTracker
}

// NewNvJPEG builds the baseline on the given device.
func NewNvJPEG(cfg NvJPEGConfig) (*NvJPEG, error) {
	if cfg.Device == nil {
		return nil, errors.New("backends: nil gpu device")
	}
	if cfg.Lanes == 0 {
		cfg.Lanes = 2
	}
	if cfg.Lanes < 0 {
		return nil, errors.New("backends: negative decode lanes")
	}
	b, err := newBase(baseConfig{
		BatchSize: cfg.BatchSize, OutW: cfg.OutW, OutH: cfg.OutH,
		Channels: cfg.Channels, PoolBatches: cfg.PoolBatches,
		Cache: cfg.Cache, SharedCache: cfg.SharedCache,
	})
	if err != nil {
		return nil, err
	}
	n := &NvJPEG{base: b, dev: cfg.Device, source: cfg.Source, busy: cfg.Busy}
	n.runEpoch = n.RunEpoch
	for i := 0; i < cfg.Lanes; i++ {
		s, err := cfg.Device.NewStream()
		if err != nil {
			return nil, err
		}
		n.lanes = append(n.lanes, s)
	}
	return n, nil
}

// Name implements Backend.
func (n *NvJPEG) Name() string { return "nvjpeg" }

// nextLane round-robins decode submissions across streams.
func (n *NvJPEG) nextLane() *gpu.Stream {
	n.laneMu.Lock()
	defer n.laneMu.Unlock()
	s := n.lanes[n.rr%len(n.lanes)]
	n.rr++
	return s
}

type nvBatch struct {
	batch   *core.Batch
	pending atomic.Int32
	done    *sync.WaitGroup
	// refs and startedAt feed the tiered cache's admission; refs is only
	// captured when caching is on.
	refs      []fpga.DataRef
	startedAt time.Time
}

// RunEpoch implements Backend: per image, enqueue a decode "kernel" on a
// device stream; the host thread only launches and moves on.
func (n *NvJPEG) RunEpoch(col core.DataCollector) error {
	if col == nil {
		return errors.New("backends: nil collector")
	}
	stride := n.imageBytes()
	var epochWG sync.WaitGroup
	var cur *nvBatch
	var slots [][]byte
	var refs []fpga.DataRef
	flush := func() error {
		if cur == nil {
			return nil
		}
		cur.pending.Store(int32(len(slots)))
		for i := range slots {
			i := i
			b := cur
			ref := refs[i]
			slot := slots[i]
			idx := i
			launchStart := time.Now()
			err := n.nextLane().CallbackAsync(func() {
				n.decodeOnDevice(ref, slot, b, idx)
			})
			if n.busy != nil {
				n.busy.Record("launch", time.Since(launchStart).Seconds())
			}
			if err != nil {
				return fmt.Errorf("backends: decode lane closed: %w", err)
			}
		}
		cur, slots, refs = nil, nil, nil
		return nil
	}
	for {
		item, ok := col.Next()
		if !ok {
			break
		}
		if cur == nil {
			buf, err := n.pool.Get()
			if err != nil {
				return fmt.Errorf("backends: pool closed: %w", err)
			}
			cur = &nvBatch{
				batch:     &core.Batch{Buf: buf, W: n.outW, H: n.outH, C: n.channels, Seq: n.nextSeq()},
				done:      &epochWG,
				startedAt: time.Now(),
			}
			epochWG.Add(1)
		}
		slot := cur.batch.Images
		cur.batch.Images++
		cur.batch.Metas = append(cur.batch.Metas, item.Meta)
		cur.batch.Valid = append(cur.batch.Valid, false)
		slots = append(slots, cur.batch.Buf.Bytes()[slot*stride:(slot+1)*stride])
		refs = append(refs, item.Ref)
		if n.cache != nil {
			cur.refs = append(cur.refs, item.Ref)
		}
		if cur.batch.Images == n.batchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	epochWG.Wait()
	return nil
}

// decodeOnDevice runs inside a device stream: the decode cost lands on
// the GPU's kernel accounting, not on a host core.
func (n *NvJPEG) decodeOnDevice(ref fpga.DataRef, slot []byte, b *nvBatch, idx int) {
	start := time.Now()
	ok := func() bool {
		data := ref.Inline
		if data == nil {
			if n.source == nil {
				return false
			}
			var err error
			data, err = n.source.Fetch(ref)
			if err != nil {
				return false
			}
		}
		img, err := jpeg.Decode(data)
		if err != nil || img.C != n.channels {
			return false
		}
		dst, err := pix.FromBytes(n.outW, n.outH, n.channels, slot)
		if err != nil {
			return false
		}
		return imageproc.ResizeInto(img, dst, imageproc.Bilinear) == nil
	}()
	n.dev.RecordKernelBusy(time.Since(start))
	if ok {
		n.images.Add(1)
		b.batch.Valid[idx] = true
	} else {
		n.errs.Add(1)
	}
	if b.pending.Add(-1) == 0 {
		cost := float64(time.Since(b.startedAt).Nanoseconds())
		_ = n.publish(b.batch, b.refs, cost)
		b.done.Done()
	}
}

// Close drains the decode lanes and releases resources.
func (n *NvJPEG) Close() {
	n.closeOnce.Do(func() {
		for _, s := range n.lanes {
			s.Close()
		}
		n.full.Close()
		n.pool.Close()
	})
}

var _ Backend = (*NvJPEG)(nil)
