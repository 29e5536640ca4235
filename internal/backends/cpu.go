package backends

import (
	"errors"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/fpga"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/metrics"
	"dlbooster/internal/pix"
)

// CPUConfig configures the CPU-based online preprocessing baseline: a
// pool of worker threads decoding JPEGs at runtime — the backend that
// "achieves only ∼25% training performance in the default configuration
// or makes up the performance gaps by burning more than 12 CPU cores per
// GPU" (§1).
type CPUConfig struct {
	// Workers is the number of decode threads; the paper's "default
	// configuration" is perf.DefaultCPUDecodeThreads, and its
	// max-performance sweeps raise it until the GPU is fed.
	Workers int
	// Busy receives per-worker decode busy time under the component
	// name "preprocess" (optional), so experiments can report the
	// paper's cores-consumed metric from the same run that produced
	// throughput.
	Busy *metrics.BusyTracker
}

// NewCPU builds the baseline over base's batch geometry, cache and
// source. Each worker fetches, entropy decodes, reconstructs only the
// resolution the slot needs and resizes straight into it — all on a host
// core, progressive streams included, with one Scratch per worker so
// steady-state decoding allocates nothing per image.
func NewCPU(base core.Config, cfg CPUConfig) (*core.Booster, error) {
	if cfg.Workers <= 0 {
		return nil, errors.New("backends: cpu workers must be positive")
	}
	scratch := make([]jpeg.Scratch, cfg.Workers)
	return core.NewHost(base, cfg.Workers, func(lane int, ref fpga.DataRef, dst *pix.Image) error {
		start := time.Now()
		data, err := ref.Bytes(base.Source)
		if err == nil {
			_, err = jpeg.DecodeScaledInto(data, dst, &scratch[lane])
		}
		if cfg.Busy != nil {
			cfg.Busy.Record("preprocess", time.Since(start).Seconds())
		}
		return err
	})
}
