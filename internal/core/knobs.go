// The runtime-tunable knob block of a running Booster: the dynamic-
// batching deadline and the fractional FPGA/CPU decode split, settable
// from any goroutine while epochs run. These are the per-pipeline
// actuation points of the adaptive SLO autotuner (internal/control) —
// the third knob, the admission threshold, lives with the ingest queue
// (fleet.Shard) rather than here. Construction
// seeds both knobs from Config, so a pipeline that never retunes
// behaves exactly as configured.

package core

import "time"

// cpuShareScale is the fixed-point scale the CPU-share knob is stored
// at (atomic integers; floats have no atomic ops). 2^20 steps keep the
// quantisation error far below anything the error-diffusion router
// could express over an epoch.
const cpuShareScale = 1 << 20

// SetBatchTimeout retunes the dynamic-batching deadline at runtime.
//
// Ordering contract: the collector re-reads the knob each time a new
// building batch arms its flush deadline (when the batch's first item
// lands), so a retune takes effect at the next deadline arm — mid-
// epoch, but never mid-batch. A batch already armed keeps the deadline
// it was armed with until it seals; a retune to 0 (strict batches)
// likewise applies from the next batch on. Safe from any goroutine.
func (b *Booster) SetBatchTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b.batchTimeoutNs.Store(int64(d))
}

// BatchTimeout returns the effective dynamic-batching deadline — the
// value the next deadline arm will use (Config.BatchTimeout until the
// first SetBatchTimeout).
func (b *Booster) BatchTimeout() time.Duration {
	return time.Duration(b.batchTimeoutNs.Load())
}

// SetCPUShare retunes the fractional FPGA/CPU decode split: the given
// fraction [0,1] of decode submissions is placed on the Booster's host
// lanes, which decode concurrently next to the FPGA boards —
// deliberate load-splitting, unlike the all-or-nothing degradation
// latch the failure policy flips. The collector spreads the share with
// an error-diffusion accumulator (a 0.25 share offloads every 4th item,
// not bursts of four), re-reading the knob per submission, so a retune
// takes effect on the very next item. Out-of-range values clamp;
// degraded mode overrides any share (everything is on the lanes
// already). Safe from any goroutine.
func (b *Booster) SetCPUShare(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	b.cpuShareUnits.Store(int64(f*cpuShareScale + 0.5))
}

// CPUShare returns the effective fractional CPU decode share (0 until
// the first SetCPUShare).
func (b *Booster) CPUShare() float64 {
	return float64(b.cpuShareUnits.Load()) / cpuShareScale
}

// OffloadDecodes returns the count of images decoded on the host lanes
// by the fractional offload knob — distinct from FallbackDecodes, which
// counts the failure policy's rescue and degraded-mode decodes.
func (b *Booster) OffloadDecodes() int64 { return b.offloads.Value() }
