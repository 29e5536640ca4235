package backends

import (
	"errors"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/fpga"
	"dlbooster/internal/lmdb"
	"dlbooster/internal/metrics"
)

// LMDB is the offline baseline: training records were decoded and
// resized ahead of time (dataset.ConvertToLMDB — the "more than 2 hours"
// conversion of §2.2) and are served from a shared embedded store at
// train time. Each GPU worker runs its own LMDB backend instance against
// the same *lmdb.DB, which is exactly the shared-store arrangement whose
// reader competition costs ≈30 % at two GPUs in Figure 2.
type LMDB struct {
	*core.BatchPlane
	db   *lmdb.DB
	busy *metrics.BusyTracker
}

// LMDBConfig configures the offline baseline.
type LMDBConfig struct {
	BatchSize            int
	OutW, OutH, Channels int
	PoolBatches          int
	// Cache sizes the tiered epoch cache (RAM → NVMe spill); a zero
	// RAMBytes disables caching.
	Cache core.CacheConfig
	// SharedCache, when non-nil, captures into and replays from an
	// externally-owned cache instead of building one from Cache.
	SharedCache *core.TieredCache
	// DB is the shared record store; collector item paths are its keys.
	DB *lmdb.DB
	// Busy receives read/deserialise busy time as "preprocess".
	Busy *metrics.BusyTracker
}

// NewLMDB builds the baseline over an existing store.
func NewLMDB(cfg LMDBConfig) (*LMDB, error) {
	if cfg.DB == nil {
		return nil, errors.New("backends: nil lmdb store")
	}
	plane, err := core.NewBatchPlane(core.PlaneConfig{
		BatchSize: cfg.BatchSize, OutW: cfg.OutW, OutH: cfg.OutH,
		Channels: cfg.Channels, PoolBatches: cfg.PoolBatches,
		Cache: cfg.Cache, SharedCache: cfg.SharedCache,
	})
	if err != nil {
		return nil, err
	}
	return &LMDB{BatchPlane: plane, db: cfg.DB, busy: cfg.Busy}, nil
}

// Name implements Backend.
func (l *LMDB) Name() string { return "lmdb" }

// ReplayCache implements Backend, re-reading evicted entries from the
// store.
func (l *LMDB) ReplayCache() error { return l.Replay(0, 1, l.RunEpoch) }

// RunEpoch implements Backend: read each item's record from the shared
// store and copy it into the batch buffer. There is no decode — that was
// paid offline — but every record still crosses the store's reader lock
// and gets copied per datum.
func (l *LMDB) RunEpoch(col core.DataCollector) error {
	if col == nil {
		return errors.New("backends: nil collector")
	}
	var cur *core.Batch
	var curRefs []fpga.DataRef
	var curStart time.Time
	for {
		item, ok := col.Next()
		if !ok {
			break
		}
		if cur == nil {
			var err error
			if cur, err = l.Acquire(); err != nil {
				return err
			}
			curRefs, curStart = nil, time.Now()
		}
		slot := cur.Images
		cur.Images++
		cur.Metas = append(cur.Metas, item.Meta)
		cur.Valid = append(cur.Valid, false)
		if l.Cache() != nil {
			curRefs = append(curRefs, item.Ref)
		}
		start := time.Now()
		valid := l.loadRecord(item.Ref.Path, cur, slot)
		if l.busy != nil {
			l.busy.Record("preprocess", time.Since(start).Seconds())
		}
		l.Settle(cur, slot, valid)
		if cur.Images == l.BatchSize() {
			if err := l.Publish(cur, curRefs, curStart); err != nil {
				return err
			}
			cur = nil
		}
	}
	if cur != nil {
		return l.Publish(cur, curRefs, curStart)
	}
	return nil
}

// loadRecord fetches and deserialises one record into the batch slot;
// the record's label overrides the collector's (the store is
// authoritative for offline data).
func (l *LMDB) loadRecord(key string, batch *core.Batch, slot int) bool {
	val, ok, err := l.db.Get([]byte(key))
	if err != nil || !ok {
		return false
	}
	rec, err := dataset.DecodeRecord(val)
	if err != nil {
		return false
	}
	if rec.W != batch.W || rec.H != batch.H || rec.C != batch.C {
		return false
	}
	copy(batch.Image(slot), rec.Pixels)
	batch.Metas[slot].Label = rec.Label
	return true
}

var _ Backend = (*LMDB)(nil)
