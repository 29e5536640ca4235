package backends

import (
	"errors"
	"fmt"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/fpga"
	"dlbooster/internal/lmdb"
	"dlbooster/internal/metrics"
	"dlbooster/internal/pix"
)

// LMDBConfig configures the offline baseline: training records were
// decoded and resized ahead of time (dataset.ConvertToLMDB — the "more
// than 2 hours" conversion of §2.2) and are served from a shared
// embedded store at train time. Each GPU worker runs its own LMDB
// backend against the same *lmdb.DB, which is exactly the shared-store
// arrangement whose reader competition costs ≈30 % at two GPUs in
// Figure 2.
type LMDBConfig struct {
	// DB is the shared record store; collector item paths are its keys.
	DB *lmdb.DB
	// Busy receives read/deserialise busy time as "preprocess".
	Busy *metrics.BusyTracker
}

var errNoRecord = errors.New("backends: no lmdb record")

// NewLMDB builds the baseline over base's batch geometry and cache. Its
// one lane reads each item's record and copies it into the slot. There
// is no decode — that was paid offline — but every record still crosses
// the store's reader lock and gets copied per datum. The label is the
// collector's, as for every backend.
func NewLMDB(base core.Config, cfg LMDBConfig) (*core.Booster, error) {
	if cfg.DB == nil {
		return nil, errors.New("backends: nil lmdb store")
	}
	return core.NewHost(base, 1, func(_ int, ref fpga.DataRef, dst *pix.Image) error {
		start := time.Now()
		err := loadRecord(cfg.DB, ref.Path, dst)
		if cfg.Busy != nil {
			cfg.Busy.Record("preprocess", time.Since(start).Seconds())
		}
		return err
	})
}

// loadRecord fetches and deserialises one record into dst.
func loadRecord(db *lmdb.DB, key string, dst *pix.Image) error {
	val, ok, err := db.Get([]byte(key))
	if err == nil && !ok {
		err = errNoRecord
	}
	if err != nil {
		return err
	}
	rec, err := dataset.DecodeRecord(val)
	if err != nil {
		return err
	}
	if rec.W != dst.W || rec.H != dst.H || rec.C != dst.C {
		return fmt.Errorf("backends: lmdb record %dx%dx%d, slot %dx%dx%d", rec.W, rec.H, rec.C, dst.W, dst.H, dst.C)
	}
	copy(dst.Pix, rec.Pixels)
	return nil
}
