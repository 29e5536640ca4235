package backends

import (
	"errors"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/imageproc"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/pix"
)

// NvJPEGConfig configures the GPU-decode baseline: raw JPEG bytes are
// shipped to the GPU and decoded there, as NVIDIA's nvJPEG/DALI does.
// Each lane stands for one decode stream on the device, and its busy
// time is charged to the device's kernel accounting — the mechanism
// behind the paper's finding that nvJPEG "can dominate 40% GPU
// utilization ... downgrading the GPU performance in model computation
// by more than 30%" (§2.2).
type NvJPEGConfig struct {
	// Device is the GPU that both decodes and (elsewhere) runs the
	// model — sharing it is the point.
	Device *gpu.Device
	// Lanes is the number of parallel decode streams (default 2).
	Lanes int
}

// NewNvJPEG builds the baseline on cfg.Device over base's batch
// geometry, cache and source. A lane decodes at full scale, as the GPU
// decoder does, then resizes into the slot.
func NewNvJPEG(base core.Config, cfg NvJPEGConfig) (*core.Booster, error) {
	if cfg.Device == nil {
		return nil, errors.New("backends: nil gpu device")
	}
	if cfg.Lanes == 0 {
		cfg.Lanes = 2
	}
	if cfg.Lanes < 0 {
		return nil, errors.New("backends: negative decode lanes")
	}
	return core.NewHost(base, cfg.Lanes, func(_ int, ref fpga.DataRef, dst *pix.Image) error {
		start := time.Now()
		err := decodeFull(ref, base.Source, dst)
		cfg.Device.RecordKernelBusy(time.Since(start))
		return err
	})
}

func decodeFull(ref fpga.DataRef, src fpga.DataSource, dst *pix.Image) error {
	data, err := ref.Bytes(src)
	if err != nil {
		return err
	}
	img, err := jpeg.Decode(data)
	if err != nil {
		return err
	}
	if img.C != dst.C {
		return jpeg.ErrChannelMismatch
	}
	return imageproc.ResizeInto(img, dst, imageproc.Bilinear)
}
