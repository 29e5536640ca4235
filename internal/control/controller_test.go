package control

import (
	"math"
	"strings"
	"testing"
	"time"

	"dlbooster/internal/metrics"
	"dlbooster/internal/simtime"
)

// fakePlant is a knob block with no pipeline behind it.
type fakePlant struct {
	k       Knobs
	applies []Knobs
}

func (p *fakePlant) Knobs() Knobs  { return p.k }
func (p *fakePlant) Apply(k Knobs) { p.k = k; p.applies = append(p.applies, k) }

// synth fabricates the cumulative telemetry a sampler would record, so
// controller tests exercise the real History → SLO scorecard → trend
// doctor stack with virtual timestamps instead of a live pipeline.
type synth struct {
	hist    *metrics.History
	t0      time.Time
	decoded int64
	shed    int64
	e2e     metrics.Histogram
}

func newSynth(capacity int) *synth {
	return &synth{
		hist: metrics.NewHistory(capacity),
		t0:   time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
	}
}

// sample records one cumulative snapshot at virtual time at, after an
// interval that decoded decodedInc and shed shedInc frames, each with
// a batch_e2e latency of p99Ms (so the interval's p99 is p99Ms). The
// queue probes are shaped so the bottleneck doctor reads
// "ingest-overloaded" whenever the interval shed (or the ingest queue
// sits at capacity) and "healthy" otherwise.
func (s *synth) sample(at simtime.Time, decodedInc, shedInc int64, p99Ms float64, ingest metrics.QueueDepth) {
	s.decoded += decodedInc
	s.shed += shedInc
	for i := int64(0); i < decodedInc; i++ {
		s.e2e.Add(p99Ms)
	}
	snap := &metrics.PipelineSnapshot{
		TakenAt:       s.t0.Add(time.Duration(at)),
		UptimeSeconds: at.Seconds(),
		Counters: map[string]int64{
			"images_decoded_total": s.decoded,
			"serve_shed_total":     s.shed,
		},
		Gauges: map[string]float64{},
		Stages: map[string]metrics.Summary{
			metrics.StageBatchE2E: s.e2e.Summarize(),
		},
		Queues: map[string]metrics.QueueDepth{
			"full_batch":   {Len: 0, Cap: 4},
			"trans0_full":  {Len: 0, Cap: 8},
			"ingest_items": ingest,
		},
	}
	s.hist.Record(snap)
}

func mustSLO(t *testing.T, spec string) *metrics.SLO {
	t.Helper()
	slo, err := metrics.ParseSLO(spec)
	if err != nil {
		t.Fatalf("ParseSLO(%q): %v", spec, err)
	}
	return slo
}

func TestResolveLimitsDefaults(t *testing.T) {
	slo := mustSLO(t, "tput=900,p99ms=200")
	base := Knobs{BatchTimeout: 8 * time.Millisecond, QueueCap: 64}
	l := ResolveLimits(Limits{}, base, slo)
	if l.MinBatchTimeout != time.Millisecond {
		t.Fatalf("MinBatchTimeout = %v, want baseline/8 = 1ms", l.MinBatchTimeout)
	}
	if l.MaxBatchTimeout != 100*time.Millisecond {
		t.Fatalf("MaxBatchTimeout = %v, want half the p99 budget = 100ms", l.MaxBatchTimeout)
	}
	if l.MinQueueCap != 8 || l.MaxQueueCap != 64 {
		t.Fatalf("queue-cap limits = [%d, %d], want [8, 64]", l.MinQueueCap, l.MaxQueueCap)
	}
	if l.MaxCPUShare != 0.5 {
		t.Fatalf("MaxCPUShare = %v, want default 0.5", l.MaxCPUShare)
	}

	// Without a p99 objective the deadline ceiling is baseline×8; tiny
	// baselines floor the minimum at 100µs.
	l = ResolveLimits(Limits{}, Knobs{BatchTimeout: 200 * time.Microsecond}, mustSLO(t, "tput=900"))
	if l.MinBatchTimeout != 100*time.Microsecond {
		t.Fatalf("MinBatchTimeout = %v, want the 100µs floor", l.MinBatchTimeout)
	}
	if l.MaxBatchTimeout != 1600*time.Microsecond {
		t.Fatalf("MaxBatchTimeout = %v, want baseline×8", l.MaxBatchTimeout)
	}

	// Explicit limits pass through untouched.
	l = ResolveLimits(Limits{MinBatchTimeout: 5 * time.Millisecond, MaxQueueCap: 32}, base, slo)
	if l.MinBatchTimeout != 5*time.Millisecond || l.MaxQueueCap != 32 {
		t.Fatalf("explicit limits overridden: %+v", l)
	}
}

func TestControlGateWindowTooThin(t *testing.T) {
	s := newSynth(16)
	p := &fakePlant{k: Knobs{BatchTimeout: 2 * time.Millisecond, QueueCap: 256}}
	c, err := New(p, s.hist, Config{SLO: mustSLO(t, "tput=900,p99ms=250,shed=0.05,window=6s")})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	if d := c.Step(); d.Action != ActionHold || !strings.Contains(d.Reason, "window too thin") {
		t.Fatalf("empty history decision = %+v, want thin-window hold", d)
	}
	s.sample(1*simtime.Second, 500, 500, 25, metrics.QueueDepth{Len: 256, Cap: 256})
	s.sample(2*simtime.Second, 500, 500, 25, metrics.QueueDepth{Len: 256, Cap: 256})
	if d := c.Step(); d.Action != ActionHold || !strings.Contains(d.Reason, "window too thin") {
		t.Fatalf("2-sample decision = %+v, want thin-window hold", d)
	}
	if len(p.applies) != 0 || c.Retunes() != 0 || c.Holds() != 2 {
		t.Fatalf("thin window actuated: applies %d retunes %d holds %d", len(p.applies), c.Retunes(), c.Holds())
	}
}

func TestControlGateFlapping(t *testing.T) {
	// Alternating shed-burst / clean intervals make the trend doctor's
	// verdict flip every window — the capacity-knee signature. The SLO
	// is badly violated, but the actuation gate must hold anyway.
	s := newSynth(16)
	for i := int64(1); i <= 8; i++ {
		var shed int64
		if i%2 == 0 {
			shed = 400
		}
		s.sample(simtime.Time(i)*simtime.Second, 500, shed, 25, metrics.QueueDepth{Len: 0, Cap: 256})
	}
	if td := metrics.Diagnose([]*metrics.History{s.hist}); td == nil || !td.Flapping {
		t.Fatalf("fixture does not flap: %+v", td)
	}
	p := &fakePlant{k: Knobs{BatchTimeout: 2 * time.Millisecond, QueueCap: 256}}
	c, err := New(p, s.hist, Config{SLO: mustSLO(t, "tput=900,shed=0.05,window=8s")})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d := c.Step()
	if d.Action != ActionHold || !strings.Contains(d.Reason, "flapping") {
		t.Fatalf("decision = %+v, want flapping-gate hold", d)
	}
	if len(p.applies) != 0 {
		t.Fatalf("flapping gate actuated anyway: %+v", p.applies)
	}
}

func TestControlTightenLatencyAndCooldown(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newSynth(16)
	for i := int64(1); i <= 4; i++ {
		s.sample(simtime.Time(i)*simtime.Second, 500, 0, 80, metrics.QueueDepth{Len: 0, Cap: 64})
	}
	p := &fakePlant{k: Knobs{BatchTimeout: 8 * time.Millisecond, QueueCap: 64}}
	c, err := New(p, s.hist, Config{SLO: mustSLO(t, "p99ms=50,window=6s"), Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	d := c.Step()
	if d.Action != ActionTightenLatency || d.Applied == nil {
		t.Fatalf("decision = %+v, want tighten-latency retune", d)
	}
	if d.Applied.BatchTimeout != 4*time.Millisecond {
		t.Fatalf("BatchTimeout = %v, want halved to 4ms", d.Applied.BatchTimeout)
	}
	if d.Applied.QueueCap != 48 {
		t.Fatalf("QueueCap = %d, want trimmed to 48", d.Applied.QueueCap)
	}
	if d.Applied.CPUShare != 0 {
		t.Fatalf("CPUShare moved to %v without a decode-constrained trend", d.Applied.CPUShare)
	}
	if p.k != *d.Applied {
		t.Fatalf("plant knobs %+v, want applied block %+v", p.k, *d.Applied)
	}

	// The retune starts a cooldown; the next decisions hold on it even
	// though the (unchanged) scorecard still misses.
	if d := c.Step(); d.Action != ActionHold || !strings.Contains(d.Reason, "cooldown") {
		t.Fatalf("post-retune decision = %+v, want cooldown hold", d)
	}
	if d := c.Step(); d.Action != ActionHold || !strings.Contains(d.Reason, "cooldown") {
		t.Fatalf("second post-retune decision = %+v, want cooldown hold", d)
	}
	if d := c.Step(); d.Action != ActionTightenLatency {
		t.Fatalf("post-cooldown decision = %+v, want a second tighten", d)
	}

	snap := reg.Snapshot()
	if snap.Counters["control_decisions_total"] != 4 ||
		snap.Counters["control_retunes_total"] != 2 ||
		snap.Counters["control_holds_total"] != 2 {
		t.Fatalf("decision counters = %v", snap.Counters)
	}
	var retuneEvents int
	for _, e := range snap.Events {
		if e.Name == "control_retune" {
			retuneEvents++
			if !strings.Contains(e.Detail, ActionTightenLatency) || !strings.Contains(e.Detail, "batch_timeout") {
				t.Fatalf("retune event detail = %q, want action + knob deltas", e.Detail)
			}
		}
	}
	if retuneEvents != 2 {
		t.Fatalf("control_retune events = %d, want one per retune", retuneEvents)
	}
}

func TestControlGrowThroughputWithOffloadAssist(t *testing.T) {
	// Sustained overload: every interval sheds, so the trend doctor
	// reports sustained ingest-overloaded — which licenses the CPU-share
	// knob, but only once the deadline knob is pinned at its ceiling
	// (the escalation order: batching policy first, offload second).
	s := newSynth(16)
	for i := int64(1); i <= 6; i++ {
		s.sample(simtime.Time(i)*simtime.Second, 500, 500, 27, metrics.QueueDepth{Len: 128, Cap: 128})
	}
	p := &fakePlant{k: Knobs{BatchTimeout: 2 * time.Millisecond, QueueCap: 128}}
	c, err := New(p, s.hist, Config{SLO: mustSLO(t, "tput=900,p99ms=250,shed=0.05,window=6s")})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d := c.Step()
	if d.Action != ActionGrowThroughput || d.Applied == nil {
		t.Fatalf("decision = %+v, want grow-throughput retune", d)
	}
	if d.Applied.BatchTimeout != 3*time.Millisecond {
		t.Fatalf("BatchTimeout = %v, want 3ms (×3/2)", d.Applied.BatchTimeout)
	}
	if d.Applied.QueueCap != 128 {
		t.Fatalf("QueueCap = %d, want unchanged at its 128 ceiling", d.Applied.QueueCap)
	}
	if d.Applied.CPUShare != 0 {
		t.Fatalf("CPUShare = %v, want 0 while the deadline still has room to grow", d.Applied.CPUShare)
	}

	// With the deadline pinned at its ceiling, the same evidence
	// escalates to the offload knob.
	p2 := &fakePlant{k: Knobs{BatchTimeout: 2 * time.Millisecond, QueueCap: 128}}
	c2, err := New(p2, s.hist, Config{
		SLO:    mustSLO(t, "tput=900,p99ms=250,shed=0.05,window=6s"),
		Limits: Limits{MaxBatchTimeout: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d = c2.Step()
	if d.Action != ActionGrowThroughput || d.Applied == nil {
		t.Fatalf("pinned-deadline decision = %+v, want grow-throughput retune", d)
	}
	if d.Applied.BatchTimeout != 2*time.Millisecond {
		t.Fatalf("BatchTimeout = %v, want pinned at its 2ms ceiling", d.Applied.BatchTimeout)
	}
	if d.Applied.CPUShare != shareStep {
		t.Fatalf("CPUShare = %v, want one offload step (%v)", d.Applied.CPUShare, shareStep)
	}
}

func TestControlAntiWindupAtLimits(t *testing.T) {
	// A p99 miss with every knob already pinned at its floor proposes a
	// no-op block: the controller must report a hold (not a retune) and
	// must not start a cooldown it would spend holding anyway.
	s := newSynth(16)
	for i := int64(1); i <= 4; i++ {
		s.sample(simtime.Time(i)*simtime.Second, 500, 0, 80, metrics.QueueDepth{Len: 0, Cap: 64})
	}
	p := &fakePlant{k: Knobs{BatchTimeout: 8 * time.Millisecond, QueueCap: 64}}
	c, err := New(p, s.hist, Config{
		SLO:    mustSLO(t, "p99ms=50,window=6s"),
		Limits: Limits{MinBatchTimeout: 8 * time.Millisecond, MinQueueCap: 64},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 3; i++ {
		d := c.Step()
		if d.Action != ActionHold || !strings.Contains(d.Reason, "limit") {
			t.Fatalf("step %d decision = %+v, want at-limit hold", i, d)
		}
		if c.Cooldown() != 0 {
			t.Fatalf("step %d started a cooldown (%d ticks)", i, c.Cooldown())
		}
	}
	if c.Retunes() != 0 || len(p.applies) != 0 {
		t.Fatalf("anti-windup actuated: retunes %d applies %d", c.Retunes(), len(p.applies))
	}
}

func TestControlRestoreBaselineNeedsHeadroom(t *testing.T) {
	s := newSynth(32)
	p := &fakePlant{k: Knobs{BatchTimeout: 40 * time.Millisecond, QueueCap: 64}}
	c, err := New(p, s.hist, Config{SLO: mustSLO(t, "p99ms=100,window=6s"), RelaxAfter: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The controller previously tightened away from the 40ms baseline.
	p.k.BatchTimeout = 10 * time.Millisecond

	// Met with thin margin (attainment ≈ 1.09 < the 1.2 restore bar):
	// comfortable windows accumulate but never restore.
	var at simtime.Time
	sampleN := func(n int64, p99 float64) {
		for i := int64(0); i < n; i++ {
			at += simtime.Second
			s.sample(at, 500, 0, p99, metrics.QueueDepth{Len: 0, Cap: 64})
		}
	}
	sampleN(8, 92)
	for i := 0; i < 3; i++ {
		d := c.Step()
		if d.Action != ActionHold || !strings.Contains(d.Reason, "met with margin") {
			t.Fatalf("thin-margin step %d = %+v, want met-with-margin hold", i, d)
		}
	}

	// Real headroom (attainment 2.5): the accumulated comfortable
	// windows now release a restore that steps halfway back to baseline.
	sampleN(8, 40)
	d := c.Step()
	if d.Action != ActionRestoreBaseline || d.Applied == nil {
		t.Fatalf("headroom decision = %+v, want restore-baseline", d)
	}
	if d.Applied.BatchTimeout != 25*time.Millisecond {
		t.Fatalf("restored BatchTimeout = %v, want halfway (25ms)", d.Applied.BatchTimeout)
	}

	// Driving on, the relax path converges to the baseline exactly (the
	// snap band) and then stops moving.
	for i := 0; i < 12 && p.k != c.Base(); i++ {
		sampleN(1, 40)
		c.Step()
	}
	if p.k != c.Base() {
		t.Fatalf("knobs never converged back to baseline: %+v vs %+v", p.k, c.Base())
	}
	retunes := c.Retunes()
	for i := 0; i < 4; i++ {
		sampleN(1, 40)
		c.Step()
	}
	if c.Retunes() != retunes {
		t.Fatalf("controller kept retuning at baseline: %d → %d", retunes, c.Retunes())
	}
}

func TestControllerStartStop(t *testing.T) {
	s := newSynth(8)
	p := &fakePlant{k: Knobs{BatchTimeout: 2 * time.Millisecond}}
	c, err := New(p, s.hist, Config{SLO: mustSLO(t, "tput=900"), Interval: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	c.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for c.Decisions() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("ticker loop made %d decisions, want ≥ 3", c.Decisions())
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	n := c.Decisions()
	time.Sleep(5 * time.Millisecond)
	if c.Decisions() != n {
		t.Fatalf("decisions kept flowing after Stop: %d → %d", n, c.Decisions())
	}

	// Stop without Start must not hang or panic.
	c2, err := New(p, s.hist, Config{SLO: mustSLO(t, "tput=900")})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c2.Stop()
}

// TestControlConvergeUnderOverloadSim is the deterministic
// convergence/anti-flapping proof from the ISSUE: a 2× open-loop
// overload served through the real History → scorecard → trend-doctor
// stack on the simtime kernel's virtual clock. The plant is a queueing
// model where a longer batching deadline amortises per-batch overhead
// (capacity rises toward the asymptote) and fractional CPU offload adds
// decode bandwidth. The controller must grow the operating point until
// the SLO holds, then freeze — zero retunes over the tail of the run —
// and shed a smaller share of the offered load than the same model with
// its knobs frozen at the starting point.
func TestControlConvergeUnderOverloadSim(t *testing.T) {
	const (
		offered = 1000.0 // img/s, ≈2× the capacity at the static operating point
		steps   = 60
		settle  = 30 // no retunes allowed after this step
	)
	reg := metrics.NewRegistry()
	s := newSynth(64)
	p := &fakePlant{k: Knobs{BatchTimeout: 2 * time.Millisecond, QueueCap: 256}}
	c, err := New(p, s.hist, Config{
		SLO:      mustSLO(t, "tput=900,p99ms=250,shed=0.05,window=6s"),
		Registry: reg,
		// A 6ms deadline ceiling caps the batching knob below what the
		// SLO needs, so the trajectory must escalate to the offload knob
		// after pinning the deadline.
		Limits: Limits{MaxBatchTimeout: 6 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// model maps the knob block to sustainable capacity (img/s) and
	// batch-e2e p99 (ms): fuller batches amortise a 4ms per-batch cost,
	// CPU offload adds up to 80% decode bandwidth, and latency rides the
	// deadline.
	model := func(k Knobs) (capacity, p99 float64) {
		btMs := float64(k.BatchTimeout) / float64(time.Millisecond)
		fill := btMs / (btMs + 4)
		return 1500 * fill * (1 + 0.8*k.CPUShare), btMs + 25
	}

	// The static config: the same offered load with the knobs frozen at
	// the starting operating point.
	start := p.k
	var staticShed, staticDec int64
	for i := 0; i < steps; i++ {
		capacity, _ := model(start)
		dec := int64(math.Min(offered, capacity))
		staticDec += dec
		staticShed += int64(offered) - dec
	}

	sim := simtime.New()
	step := 0
	retunesAtSettle := int64(-1)
	var autoShed, autoDec int64
	var tick func()
	tick = func() {
		step++
		capacity, p99 := model(p.k)
		dec := int64(math.Min(offered, capacity))
		shed := int64(offered) - dec
		autoDec += dec
		autoShed += shed
		ingest := metrics.QueueDepth{Len: 0, Cap: p.k.QueueCap}
		if shed > 0 {
			ingest.Len = ingest.Cap // overload backs the front door up
		}
		s.sample(sim.Now(), dec, shed, p99, ingest)
		c.Step()
		if step == settle {
			retunesAtSettle = c.Retunes()
		}
		if step < steps {
			sim.After(simtime.Second, tick)
		}
	}
	sim.After(simtime.Second, tick)
	sim.Run()

	if c.Decisions() != steps {
		t.Fatalf("decisions = %d, want one per virtual second (%d)", c.Decisions(), steps)
	}
	card := mustSLO(t, "tput=900,p99ms=250,shed=0.05,window=6s").Evaluate(s.hist)
	if card == nil || !card.Met {
		t.Fatalf("SLO not met at end of run: %+v (knobs %+v)", card, p.k)
	}
	if p.k.BatchTimeout <= 2*time.Millisecond {
		t.Fatalf("deadline knob never grew: %v", p.k.BatchTimeout)
	}
	if p.k.CPUShare <= 0 {
		t.Fatalf("offload knob never engaged under a sustained overload trend")
	}
	if c.Retunes() < 3 {
		t.Fatalf("retunes = %d, want a multi-step trajectory", c.Retunes())
	}
	// The controller's claim: under the same overload it sheds a smaller
	// fraction of the offered load than the static config.
	autoFrac := float64(autoShed) / float64(autoShed+autoDec)
	staticFrac := float64(staticShed) / float64(staticShed+staticDec)
	if autoFrac >= staticFrac {
		t.Fatalf("autotuned shed fraction %.3f not below the static config's %.3f", autoFrac, staticFrac)
	}
	// Anti-flapping: the operating point froze after convergence.
	if got := c.Retunes(); got != retunesAtSettle {
		t.Fatalf("controller kept hunting after settling: retunes %d at step %d → %d at step %d",
			retunesAtSettle, settle, got, steps)
	}
	if td := metrics.Diagnose([]*metrics.History{s.hist}); td != nil && td.Flapping {
		t.Fatalf("closed-loop run flaps: %+v", td.Ranked)
	}
	snap := reg.Snapshot()
	if snap.Counters["control_retunes_total"] != c.Retunes() ||
		snap.Counters["control_decisions_total"] != int64(steps) {
		t.Fatalf("registry counters out of step: %v", snap.Counters)
	}
}
