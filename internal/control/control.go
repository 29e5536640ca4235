// Package control is the adaptive SLO autotuner: a feedback controller
// that reads the windowed telemetry history (internal/metrics.History),
// judges it against an SLO spec, and actuates the pipeline's three
// runtime-tunable knobs — the dynamic-batching deadline, the fractional
// FPGA/CPU decode split, and the admission (effective ingest cap) —
// to hold the SLO under shifting load instead of serving a static
// config tuned for yesterday's traffic.
//
// The control loop is deliberately conservative. Every decision passes
// three gates before a knob moves: the evaluation window must hold
// enough samples to mean anything, the doctor (metrics.Diagnose) must
// not be reporting a FLAPPING verdict (load sitting at a capacity knee,
// where steering would amplify the oscillation), and a cooldown of full
// windows must have elapsed since the last retune (so each actuation
// is judged on settled evidence, not its own transient). Inside the
// gates a small deadband around attainment 1.0 keeps the controller
// from chasing noise.
//
// Every decision — hold or retune — is visible: counters for
// decisions/retunes/holds, a gauge for the remaining cooldown, and a
// registry trace event per retune carrying the knob deltas. docs/
// CONTROL.md is the operator's guide.
package control

import (
	"time"
)

// Knobs is one pipeline's runtime-tunable operating point: the three
// actuation targets of the controller, read and applied atomically as
// a block so a decision never interleaves with another writer's.
type Knobs struct {
	// CPUShare is the fractional FPGA/CPU decode split in [0,1]
	// (core.Booster.SetCPUShare).
	CPUShare float64
	// BatchTimeout is the dynamic-batching deadline
	// (core.Booster.SetBatchTimeout); 0 = strict batches, and the
	// controller leaves a strict-batching pipeline's deadline alone.
	BatchTimeout time.Duration
	// QueueCap is the effective admission cap
	// (fleet.Shard.SetQueueCap); 0 = the plant has no admission knob.
	QueueCap int
}

// BoosterKnobs is the decode-side knob block — satisfied by
// *core.Booster (DLBooster and every baseline in internal/backends
// alike) without this package importing core.
type BoosterKnobs interface {
	BatchTimeout() time.Duration
	SetBatchTimeout(time.Duration)
	CPUShare() float64
	SetCPUShare(float64)
}

// AdmissionKnobs is the front-door knob — satisfied by *fleet.Shard.
type AdmissionKnobs interface {
	QueueCap() int
	SetQueueCap(int)
}

// Plant is what a Controller actuates: the current knob block and the
// atomic application of a new one. Implementations must be safe to
// call concurrently with the pipeline serving.
type Plant interface {
	Knobs() Knobs
	Apply(Knobs)
}

// PipelinePlant adapts one pipeline's knob surfaces to the Plant
// interface: a Booster's decode knobs plus an optional admission knob
// (nil Admission = the controller never touches admission).
type PipelinePlant struct {
	Booster   BoosterKnobs
	Admission AdmissionKnobs
}

// Knobs reads the pipeline's current operating point.
func (p PipelinePlant) Knobs() Knobs {
	k := Knobs{
		CPUShare:     p.Booster.CPUShare(),
		BatchTimeout: p.Booster.BatchTimeout(),
	}
	if p.Admission != nil {
		k.QueueCap = p.Admission.QueueCap()
	}
	return k
}

// Apply actuates the knob block. Each setter is individually atomic
// and clamps its own range, so a concurrent reader sees either the old
// or the new value of each knob, never garbage.
func (p PipelinePlant) Apply(k Knobs) {
	p.Booster.SetCPUShare(k.CPUShare)
	p.Booster.SetBatchTimeout(k.BatchTimeout)
	if p.Admission != nil && k.QueueCap > 0 {
		p.Admission.SetQueueCap(k.QueueCap)
	}
}
