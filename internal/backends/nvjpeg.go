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
	*core.BatchPlane
	dev    *gpu.Device
	lanes  []*gpu.Stream
	source fpga.DataSource
	busy   *metrics.BusyTracker
	rr     int
	laneMu sync.Mutex
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
	plane, err := core.NewBatchPlane(core.PlaneConfig{
		BatchSize: cfg.BatchSize, OutW: cfg.OutW, OutH: cfg.OutH,
		Channels: cfg.Channels, PoolBatches: cfg.PoolBatches,
		Cache: cfg.Cache, SharedCache: cfg.SharedCache,
	})
	if err != nil {
		return nil, err
	}
	n := &NvJPEG{BatchPlane: plane, dev: cfg.Device, source: cfg.Source, busy: cfg.Busy}
	for i := 0; i < cfg.Lanes; i++ {
		s, err := cfg.Device.NewStream()
		if err != nil {
			n.Close()
			return nil, err
		}
		n.lanes = append(n.lanes, s)
	}
	return n, nil
}

// Name implements Backend.
func (n *NvJPEG) Name() string { return "nvjpeg" }

// ReplayCache implements Backend, re-decoding evicted entries on the
// device.
func (n *NvJPEG) ReplayCache() error { return n.Replay(0, 1, n.RunEpoch) }

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
	// refs are what the lanes decode; with startedAt they also feed the
	// tiered cache's admission.
	refs      []fpga.DataRef
	startedAt time.Time
}

// RunEpoch implements Backend: per image, enqueue a decode "kernel" on a
// device stream; the host thread only launches and moves on.
func (n *NvJPEG) RunEpoch(col core.DataCollector) error {
	if col == nil {
		return errors.New("backends: nil collector")
	}
	var epochWG sync.WaitGroup
	var cur *nvBatch
	flush := func() error {
		if cur == nil {
			return nil
		}
		b := cur
		b.pending.Store(int32(len(b.refs)))
		for i, ref := range b.refs {
			launchStart := time.Now()
			err := n.nextLane().CallbackAsync(func() {
				n.decodeOnDevice(ref, b, i)
			})
			if n.busy != nil {
				n.busy.Record("launch", time.Since(launchStart).Seconds())
			}
			if err != nil {
				return fmt.Errorf("backends: decode lane closed: %w", err)
			}
		}
		cur = nil
		return nil
	}
	for {
		item, ok := col.Next()
		if !ok {
			break
		}
		if cur == nil {
			batch, err := n.Acquire()
			if err != nil {
				return err
			}
			cur = &nvBatch{batch: batch, done: &epochWG, startedAt: time.Now()}
			epochWG.Add(1)
		}
		cur.batch.Images++
		cur.batch.Metas = append(cur.batch.Metas, item.Meta)
		cur.batch.Valid = append(cur.batch.Valid, false)
		cur.refs = append(cur.refs, item.Ref)
		if cur.batch.Images == n.BatchSize() {
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
func (n *NvJPEG) decodeOnDevice(ref fpga.DataRef, b *nvBatch, idx int) {
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
		bt := b.batch
		img, err := jpeg.Decode(data)
		if err != nil || img.C != bt.C {
			return false
		}
		dst, err := pix.View(bt.W, bt.H, bt.C, bt.Image(idx))
		if err != nil {
			return false
		}
		return imageproc.ResizeInto(img, &dst, imageproc.Bilinear) == nil
	}()
	n.dev.RecordKernelBusy(time.Since(start))
	n.Settle(b.batch, idx, ok)
	if b.pending.Add(-1) == 0 {
		_ = n.Publish(b.batch, b.refs, b.startedAt)
		b.done.Done()
	}
}

// Close drains the decode lanes and releases resources.
func (n *NvJPEG) Close() {
	for _, s := range n.lanes {
		s.Close()
	}
	n.BatchPlane.Close()
}

var _ Backend = (*NvJPEG)(nil)
