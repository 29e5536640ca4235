// The feedback controller: gates (window depth, flapping, cooldown),
// the rule table mapping scorecard misses to knob moves, and the
// ticker loop that drives Step against wall-clock serving.

package control

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"dlbooster/internal/metrics"
)

// Decision action codes, also the detail prefix of control_retune
// trace events.
const (
	// ActionHold means no knob moved this step (gate or deadband).
	ActionHold = "hold"
	// ActionTightenLatency halves the batching deadline (and trims
	// admission) because the p99 objective is missing its target.
	ActionTightenLatency = "tighten-latency"
	// ActionGrowThroughput lengthens the deadline toward the latency
	// budget and reopens admission because throughput or shed budget
	// is missing while p99 has headroom.
	ActionGrowThroughput = "grow-throughput"
	// ActionRestoreBaseline steps the knobs halfway back toward the
	// configured baseline after RelaxAfter consecutive comfortable
	// windows.
	ActionRestoreBaseline = "restore-baseline"
)

// shareStep is how much one decision may move the CPU-share knob.
const shareStep = 0.125

// minWindowSamples is the evidence gate: a scorecard over fewer
// history samples holds rather than actuates.
const minWindowSamples = 3

// Limits bounds every knob the controller may set. Zero values resolve
// to defaults derived from the plant's baseline knobs and the SLO at
// New (see ResolveLimits).
type Limits struct {
	// MinBatchTimeout / MaxBatchTimeout bound the deadline knob.
	// Defaults: baseline/8 (floored at 100µs) and the larger of the
	// baseline and half the p99 budget (baseline×8 without a p99
	// objective).
	MinBatchTimeout time.Duration
	MaxBatchTimeout time.Duration
	// MinQueueCap / MaxQueueCap bound the admission knob. Defaults:
	// baseline/8 (floored at 1) and the baseline itself — the
	// controller sheds earlier under pressure but never above the
	// operator's configured queue.
	MinQueueCap int
	MaxQueueCap int
	// MaxCPUShare caps the fractional offload (default 0.5: the CPU
	// assists the decoder, it never becomes the decoder).
	MaxCPUShare float64
}

// ResolveLimits fills zero fields from the baseline knob block and the
// SLO, per the defaults documented on Limits.
func ResolveLimits(l Limits, base Knobs, slo *metrics.SLO) Limits {
	if base.BatchTimeout > 0 {
		if l.MinBatchTimeout <= 0 {
			l.MinBatchTimeout = base.BatchTimeout / 8
			if l.MinBatchTimeout < 100*time.Microsecond {
				l.MinBatchTimeout = 100 * time.Microsecond
			}
		}
		if l.MaxBatchTimeout <= 0 {
			if slo != nil && slo.TargetP99Ms > 0 {
				l.MaxBatchTimeout = time.Duration(slo.TargetP99Ms / 2 * float64(time.Millisecond))
			} else {
				l.MaxBatchTimeout = base.BatchTimeout * 8
			}
			if l.MaxBatchTimeout < base.BatchTimeout {
				l.MaxBatchTimeout = base.BatchTimeout
			}
		}
	}
	if base.QueueCap > 0 {
		if l.MinQueueCap <= 0 {
			l.MinQueueCap = base.QueueCap / 8
			if l.MinQueueCap < 1 {
				l.MinQueueCap = 1
			}
		}
		if l.MaxQueueCap <= 0 {
			l.MaxQueueCap = base.QueueCap
		}
	}
	if l.MaxCPUShare <= 0 {
		l.MaxCPUShare = 0.5
	}
	return l
}

// Config parameterises one Controller.
type Config struct {
	// SLO is the objective the controller steers toward. Required.
	SLO *metrics.SLO
	// Interval is the Start ticker period (default 1s). Step may also
	// be driven directly (tests, virtual-time simulations).
	Interval time.Duration
	// Cooldown is how many decisions to hold after a retune so the
	// next move is judged on settled evidence (default 2).
	Cooldown int
	// Deadband is the attainment margin around 1.0 inside which the
	// controller does nothing (default 0.05).
	Deadband float64
	// RelaxAfter is how many consecutive comfortable windows —
	// everything met with margin — before knobs step back toward the
	// baseline (default 3).
	RelaxAfter int
	// Limits bounds the knobs; zero fields resolve at New.
	Limits Limits
	// Registry, when set, receives the decision counters, the cooldown
	// gauge and a trace event per retune.
	Registry *metrics.Registry
	// Name labels this controller's events (e.g. "shard 1").
	Name string
}

func (c *Config) normalize() error {
	if c.SLO == nil {
		return errors.New("control: an SLO spec is required")
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2
	}
	if c.Deadband <= 0 {
		c.Deadband = 0.05
	}
	if c.RelaxAfter <= 0 {
		c.RelaxAfter = 3
	}
	return nil
}

// Decision is one Step's outcome: what the controller did and why.
// Applied is nil on a hold; on a retune it is the knob block that went
// to the plant.
type Decision struct {
	// Action is one of the Action* codes.
	Action string
	// Reason is the operator-readable explanation.
	Reason string
	// Before is the knob block the decision was judged against.
	Before Knobs
	// Applied is the knob block actuated, nil when nothing moved.
	Applied *Knobs
}

// Controller is the feedback loop for one pipeline (or one fleet
// shard): it evaluates the SLO over the history's trailing window and
// actuates the plant's knob block through the gates described in the
// package comment. Step is single-threaded — drive it from the Start
// ticker or directly, not both.
type Controller struct {
	cfg   Config
	plant Plant
	hist  *metrics.History
	base  Knobs
	lim   Limits

	cooldown int
	comfy    int

	decisions metrics.Counter
	retunes   metrics.Counter
	holds     metrics.Counter

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a controller over a plant and the telemetry history its
// sampler records. The plant's knob block at New becomes the baseline
// the controller relaxes back toward.
func New(plant Plant, hist *metrics.History, cfg Config) (*Controller, error) {
	if plant == nil {
		return nil, errors.New("control: nil plant")
	}
	if hist == nil {
		return nil, errors.New("control: nil history — the controller needs a sampled telemetry window")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	base := plant.Knobs()
	c := &Controller{
		cfg:   cfg,
		plant: plant,
		hist:  hist,
		base:  base,
		lim:   ResolveLimits(cfg.Limits, base, cfg.SLO),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if r := cfg.Registry; r != nil {
		r.RegisterCounterFunc("control_decisions_total", c.decisions.Value)
		r.RegisterCounterFunc("control_retunes_total", c.retunes.Value)
		r.RegisterCounterFunc("control_holds_total", c.holds.Value)
		r.RegisterGauge("control_cooldown_ticks", func() float64 { return float64(c.Cooldown()) })
	}
	return c, nil
}

// Base returns the baseline knob block captured at New.
func (c *Controller) Base() Knobs { return c.base }

// Current reads the plant's knob block right now.
func (c *Controller) Current() Knobs { return c.plant.Knobs() }

// Limits returns the resolved knob bounds.
func (c *Controller) Limits() Limits { return c.lim }

// Decisions, Retunes and Holds expose the decision counters.
func (c *Controller) Decisions() int64 { return c.decisions.Value() }

// Retunes returns how many decisions actuated the plant.
func (c *Controller) Retunes() int64 { return c.retunes.Value() }

// Holds returns how many decisions left the knobs alone.
func (c *Controller) Holds() int64 { return c.holds.Value() }

// Cooldown returns the remaining hold-after-retune ticks.
func (c *Controller) Cooldown() int { return c.cooldown }

// Start drives Step on the configured interval until Stop. Idempotent.
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		go func() {
			defer close(c.done)
			t := time.NewTicker(c.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-t.C:
					c.Step()
				}
			}
		}()
	})
}

// Stop ends and joins the Start loop (no-op if never started).
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	select {
	case <-c.done:
	default:
		c.startOnce.Do(func() { close(c.done) }) // never started: nothing to join
		<-c.done
	}
}

// Step runs one control decision: evaluate the SLO over the window,
// pass the gates, move the knobs if the rule table says so. Returns
// the decision for callers that want to log or assert it; the same
// information lands in the counters and (for retunes) a trace event.
func (c *Controller) Step() Decision {
	c.decisions.Add(1)
	d := c.decide()
	if d.Applied == nil {
		c.holds.Add(1)
		return d
	}
	c.plant.Apply(*d.Applied)
	c.retunes.Add(1)
	c.cooldown = c.cfg.Cooldown
	c.comfy = 0
	if r := c.cfg.Registry; r != nil {
		r.Event("control_retune", c.eventDetail(d))
	}
	return d
}

func (c *Controller) hold(reason string) Decision {
	return Decision{Action: ActionHold, Reason: reason, Before: c.plant.Knobs()}
}

// decide is the gate chain plus the rule table; it never actuates.
func (c *Controller) decide() Decision {
	card := c.cfg.SLO.Evaluate(c.hist)
	if card == nil || card.Samples < minWindowSamples {
		return c.hold(fmt.Sprintf("window too thin (%d samples, need %d)", cardSamples(card), minWindowSamples))
	}
	td := metrics.Diagnose([]*metrics.History{c.hist})
	if td != nil && td.Flapping {
		// The actuation gate: a flapping verdict means load is sitting
		// at a capacity knee, where any steering amplifies the
		// oscillation. Wait for the trend to commit.
		return c.hold("trend doctor reports flapping; holding at the capacity knee")
	}
	if c.cooldown > 0 {
		c.cooldown--
		return c.hold(fmt.Sprintf("cooldown (%d ticks left)", c.cooldown))
	}

	cur := c.plant.Knobs()
	dead := c.cfg.Deadband
	p99A, hasP99 := attainment(card, metrics.ObjectiveP99)
	tputA, hasTput := attainment(card, metrics.ObjectiveThroughput)
	shedA, hasShed := attainment(card, metrics.ObjectiveShed)

	latencyMiss := hasP99 && p99A < 1-dead
	supplyMiss := (hasTput && tputA < 1-dead) || (hasShed && shedA < 1-dead)
	latencyHeadroom := !hasP99 || p99A > 1+dead
	// A sustained decoder-bound (or ingest-overloaded, which decode
	// starvation causes) trend is the evidence that decode capacity —
	// not batching policy — is the constraint, so the offload knob may
	// move. Even then the share escalates only after the deadline knob
	// is pinned at its limit: offloaded decodes run on the host lanes
	// and take host cores from the collector, the dispatcher and the
	// engines, while a longer deadline costs no CPU at all — exhaust the
	// cheap knob before paying for the expensive one.
	decodeConstrained := td != nil && td.Sustained &&
		(td.Verdict == metrics.VerdictDecoderBound || td.Verdict == metrics.VerdictIngestOverloaded)

	switch {
	case latencyMiss:
		k := cur
		if cur.BatchTimeout > 0 {
			k.BatchTimeout = c.clampBT(cur.BatchTimeout / 2)
		}
		if cur.QueueCap > 0 {
			k.QueueCap = c.clampQC(cur.QueueCap * 3 / 4)
		}
		if decodeConstrained && (cur.BatchTimeout <= 0 || cur.BatchTimeout <= c.lim.MinBatchTimeout) {
			k.CPUShare = c.clampShare(cur.CPUShare + shareStep)
		}
		return c.propose(ActionTightenLatency,
			fmt.Sprintf("p99 attainment %.3f below target", p99A), cur, k)
	case supplyMiss && latencyHeadroom:
		k := cur
		if cur.BatchTimeout > 0 {
			k.BatchTimeout = c.clampBT(cur.BatchTimeout * 3 / 2)
		}
		if cur.QueueCap > 0 && cur.QueueCap < c.lim.MaxQueueCap {
			k.QueueCap = c.clampQC(cur.QueueCap + maxInt(1, (c.lim.MaxQueueCap-cur.QueueCap)/2))
		}
		if decodeConstrained && (cur.BatchTimeout <= 0 || cur.BatchTimeout >= c.lim.MaxBatchTimeout) {
			k.CPUShare = c.clampShare(cur.CPUShare + shareStep)
		}
		return c.propose(ActionGrowThroughput,
			fmt.Sprintf("throughput/shed attainment %.3f/%.3f with p99 headroom", tputA, shedA), cur, k)
	case card.Met && minAttainment(card) > 1+dead:
		c.comfy++
		// Relaxing trades capacity away, so it needs real headroom, not
		// bare margin: stepping back toward baseline from a thin margin
		// re-breaks the SLO next window and the loop oscillates between
		// restore and grow. 4× the deadband is the "this would survive a
		// half-step back" bar.
		if c.comfy >= c.cfg.RelaxAfter && cur != c.base && minAttainment(card) > 1+4*dead {
			return c.propose(ActionRestoreBaseline,
				fmt.Sprintf("%d comfortable windows; stepping back toward baseline", c.comfy),
				cur, stepToward(cur, c.base))
		}
		return c.hold("every objective met with margin")
	default:
		return c.hold("attainment inside the deadband")
	}
}

// propose turns a candidate knob block into a retune decision — or a
// hold when clamping left nothing to change (anti-windup: a decision
// pinned at the limits is not a retune and starts no cooldown).
func (c *Controller) propose(action, reason string, cur, k Knobs) Decision {
	if k == cur {
		return c.hold(action + " wanted, but every knob is at its limit")
	}
	return Decision{Action: action, Reason: reason, Before: cur, Applied: &k}
}

func (c *Controller) eventDetail(d Decision) string {
	name := c.cfg.Name
	if name != "" {
		name += ": "
	}
	k := d.Applied
	return fmt.Sprintf("%s%s (%s): batch_timeout %v→%v, queue_cap %d→%d, cpu_share %.3f→%.3f",
		name, d.Action, d.Reason,
		d.Before.BatchTimeout, k.BatchTimeout,
		d.Before.QueueCap, k.QueueCap,
		d.Before.CPUShare, k.CPUShare)
}

func (c *Controller) clampBT(d time.Duration) time.Duration {
	if d < c.lim.MinBatchTimeout {
		d = c.lim.MinBatchTimeout
	}
	if c.lim.MaxBatchTimeout > 0 && d > c.lim.MaxBatchTimeout {
		d = c.lim.MaxBatchTimeout
	}
	return d
}

func (c *Controller) clampQC(n int) int {
	if n < c.lim.MinQueueCap {
		n = c.lim.MinQueueCap
	}
	if c.lim.MaxQueueCap > 0 && n > c.lim.MaxQueueCap {
		n = c.lim.MaxQueueCap
	}
	return n
}

func (c *Controller) clampShare(f float64) float64 {
	if f < 0 {
		f = 0
	}
	if f > c.lim.MaxCPUShare {
		f = c.lim.MaxCPUShare
	}
	return f
}

// stepToward moves each knob halfway from cur to base, snapping when
// the remaining gap is small — the relax path converges in a few
// comfortable windows instead of asymptoting forever.
func stepToward(cur, base Knobs) Knobs {
	k := cur
	// Deadline: halve the gap, snap inside 1/8 of the baseline.
	gap := base.BatchTimeout - cur.BatchTimeout
	k.BatchTimeout = cur.BatchTimeout + gap/2
	if snapBand := base.BatchTimeout / 8; absDur(base.BatchTimeout-k.BatchTimeout) <= snapBand {
		k.BatchTimeout = base.BatchTimeout
	}
	// Admission: halve the gap, snap inside one slot.
	qgap := base.QueueCap - cur.QueueCap
	k.QueueCap = cur.QueueCap + qgap/2
	if absInt(base.QueueCap-k.QueueCap) <= 1 {
		k.QueueCap = base.QueueCap
	}
	// Offload: halve the gap, snap inside half a step.
	sgap := base.CPUShare - cur.CPUShare
	k.CPUShare = cur.CPUShare + sgap/2
	if s := base.CPUShare - k.CPUShare; s < shareStep/2 && s > -shareStep/2 {
		k.CPUShare = base.CPUShare
	}
	return k
}

// minAttainment is the true minimum attainment across objectives. The
// scorecard's own Attainment rollup is capped at 1.0 (met is met in a
// report), but the controller needs the uncapped margin to judge
// whether a step back toward baseline would survive.
func minAttainment(card *metrics.Scorecard) float64 {
	min := math.Inf(1)
	for _, o := range card.Objectives {
		if o.Attainment < min {
			min = o.Attainment
		}
	}
	if math.IsInf(min, 1) {
		return 1
	}
	return min
}

// attainment pulls one objective's attainment off the scorecard.
func attainment(card *metrics.Scorecard, name string) (float64, bool) {
	for _, o := range card.Objectives {
		if o.Name == name {
			return o.Attainment, true
		}
	}
	return 0, false
}

func cardSamples(card *metrics.Scorecard) int {
	if card == nil {
		return 0
	}
	return card.Samples
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
