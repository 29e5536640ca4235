// SLO specs and scorecards: declarative service-level objectives
// (sustained throughput, stage p99 latency, shed/availability budget)
// evaluated against a History window into a Scorecard with per-objective
// attainment, remaining error budget and burn rate. This is the
// judgement layer over the windowed telemetry — dlserve prints it in
// the shutdown report — and the objective function internal/control
// steers the knobs toward.

package metrics

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Objective names used in Scorecard entries.
const (
	// ObjectiveThroughput is the sustained-throughput objective
	// (images/s over the window, from images_decoded_total).
	ObjectiveThroughput = "throughput"
	// ObjectiveP99 is the tail-latency objective (a stage's windowed
	// p99 in milliseconds).
	ObjectiveP99 = "p99_latency"
	// ObjectiveShed is the availability objective: the fraction of
	// offered items shed by admission control must stay inside budget.
	ObjectiveShed = "shed_budget"
)

// SLO is a service-level objective spec. Zero-valued targets are unset
// — an SLO judges only the objectives it names. Build one directly or
// with ParseSLO from a "tput=900,p99ms=250,shed=0.001,window=60s"
// command-line spec.
type SLO struct {
	// TargetThroughput is the minimum sustained decode throughput in
	// images/s (0 = not judged).
	TargetThroughput float64 `json:"target_throughput,omitempty"`
	// TargetP99Ms is the maximum windowed p99 of LatencyStage in
	// milliseconds (0 = not judged).
	TargetP99Ms float64 `json:"target_p99_ms,omitempty"`
	// LatencyStage names the stage summary the p99 objective reads
	// (default StageBatchE2E).
	LatencyStage string `json:"latency_stage,omitempty"`
	// ShedBudget is the allowed shed fraction of offered items,
	// e.g. 0.001 = 99.9% availability. Negative = not judged; zero is
	// a valid "no sheds allowed" budget when set via ParseSLO.
	ShedBudget float64 `json:"shed_budget,omitempty"`
	// shedSet records whether ShedBudget was explicitly given (so a
	// zero budget can be distinguished from "unset").
	shedSet bool
	// Window is the trailing evaluation window (0 = the whole history).
	Window time.Duration `json:"window,omitempty"`
}

// ParseSLO parses a comma-separated key=value spec: `tput=<images/s>`,
// `p99ms=<ms>`, `stage=<stage name>` (latency stage, default
// batch_e2e), `shed=<fraction>`, `window=<duration>` (e.g. 60s). At
// least one of tput/p99ms/shed must be present.
func ParseSLO(spec string) (*SLO, error) {
	s := &SLO{LatencyStage: StageBatchE2E, ShedBudget: -1}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("slo: empty spec")
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("slo: malformed term %q (want key=value)", part)
		}
		key, val := kv[0], kv[1]
		var err error
		switch key {
		case "tput":
			s.TargetThroughput, err = strconv.ParseFloat(val, 64)
		case "p99ms":
			s.TargetP99Ms, err = strconv.ParseFloat(val, 64)
		case "stage":
			s.LatencyStage = val
			if val == "" {
				err = fmt.Errorf("empty stage name")
			}
		case "shed":
			s.ShedBudget, err = strconv.ParseFloat(val, 64)
			s.shedSet = true
		case "window":
			s.Window, err = time.ParseDuration(val)
		default:
			return nil, fmt.Errorf("slo: unknown key %q (want tput/p99ms/stage/shed/window)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("slo: bad value for %s: %v", key, err)
		}
	}
	// !(x >= 0) also rejects NaN, which String could not render back.
	if !(s.TargetThroughput >= 0) || !(s.TargetP99Ms >= 0) || (s.shedSet && !(s.ShedBudget >= 0)) || s.Window < 0 {
		return nil, fmt.Errorf("slo: negative or NaN target in %q", spec)
	}
	if s.TargetThroughput == 0 && s.TargetP99Ms == 0 && !s.shedSet {
		return nil, fmt.Errorf("slo: spec %q names no objective (want at least one of tput/p99ms/shed)", spec)
	}
	if !s.shedSet {
		s.ShedBudget = -1
	}
	return s, nil
}

// String re-renders the spec in ParseSLO syntax.
func (s *SLO) String() string {
	var parts []string
	if s.TargetThroughput > 0 {
		parts = append(parts, fmt.Sprintf("tput=%g", s.TargetThroughput))
	}
	if s.TargetP99Ms > 0 {
		parts = append(parts, fmt.Sprintf("p99ms=%g", s.TargetP99Ms))
	}
	if s.LatencyStage != "" && s.LatencyStage != StageBatchE2E {
		parts = append(parts, "stage="+s.LatencyStage)
	}
	if s.ShedBudget >= 0 {
		parts = append(parts, fmt.Sprintf("shed=%g", s.ShedBudget))
	}
	if s.Window > 0 {
		parts = append(parts, "window="+s.Window.String())
	}
	return strings.Join(parts, ",")
}

// Objective is one judged dimension of a Scorecard.
type Objective struct {
	// Name is one of the Objective* constants.
	Name string `json:"name"`
	// Target is the spec's target; Observed is the window's value.
	Target   float64 `json:"target"`
	Observed float64 `json:"observed"`
	// Attainment is observed performance relative to target, oriented
	// so ≥ 1 means met (throughput: observed/target; latency:
	// target/observed; shed: good fraction / required good fraction).
	Attainment float64 `json:"attainment"`
	// Met reports whether the objective held over the window.
	Met bool `json:"met"`
	// BudgetRemaining is the unspent fraction of the error budget in
	// this window (budget objectives only, floored at 0).
	BudgetRemaining float64 `json:"budget_remaining,omitempty"`
	// BurnRate is budget consumed per evaluation window — 1.0 spends
	// exactly the budget; >1 overspends it (budget objectives only; a
	// zero budget with violations reports shedBurnCap).
	BurnRate float64 `json:"burn_rate,omitempty"`
}

// shedBurnCap caps the reported burn rate (keeps a zero budget with
// violations JSON-encodable instead of +Inf).
const shedBurnCap = 1000.0

// Scorecard is an SLO evaluated against one telemetry window: the
// per-objective verdicts plus rolled-up attainment (minimum across
// objectives), remaining error budget (minimum across budget
// objectives, 1 when none), burn rate (maximum) and the overall pass.
type Scorecard struct {
	// Spec is the SLO re-rendered in ParseSLO syntax.
	Spec string `json:"spec"`
	// WindowSeconds and Samples describe the evaluated window.
	WindowSeconds float64 `json:"window_seconds"`
	Samples       int     `json:"samples"`
	// From and To bound the window.
	From time.Time `json:"from"`
	To   time.Time `json:"to"`
	// Objectives holds the per-dimension verdicts, spec order.
	Objectives []Objective `json:"objectives"`
	// Attainment is the minimum attainment across objectives.
	Attainment float64 `json:"attainment"`
	// ErrorBudgetRemaining is the minimum remaining budget across
	// budget objectives (1 when the SLO has none).
	ErrorBudgetRemaining float64 `json:"error_budget_remaining"`
	// BurnRate is the maximum burn rate across budget objectives.
	BurnRate float64 `json:"burn_rate"`
	// Met reports whether every objective held.
	Met bool `json:"met"`
}

// Evaluate judges the SLO against the history's trailing window (the
// spec's Window, or the whole ring when 0). Nil SLOs, nil histories and
// empty windows return nil.
func (s *SLO) Evaluate(h *History) *Scorecard {
	if s == nil {
		return nil
	}
	return s.EvaluateWindow(h.Window(s.Window))
}

// EvaluateWindow judges the SLO against an already-computed window
// rollup (nil or zero-length windows return nil).
func (s *SLO) EvaluateWindow(w *WindowStats) *Scorecard {
	if s == nil || w == nil || w.Seconds <= 0 {
		return nil
	}
	card := &Scorecard{
		Spec:                 s.String(),
		WindowSeconds:        w.Seconds,
		Samples:              w.Samples,
		From:                 w.From,
		To:                   w.To,
		Attainment:           1,
		ErrorBudgetRemaining: 1,
		Met:                  true,
	}
	if s.TargetThroughput > 0 {
		obs := w.Rate("images_decoded_total")
		card.addObjective(Objective{
			Name: ObjectiveThroughput, Target: s.TargetThroughput, Observed: obs,
			Attainment: obs / s.TargetThroughput, Met: obs >= s.TargetThroughput,
		})
	}
	if s.TargetP99Ms > 0 {
		stage := s.LatencyStage
		if stage == "" {
			stage = StageBatchE2E
		}
		obs := w.Stages[stage].P99
		o := Objective{Name: ObjectiveP99, Target: s.TargetP99Ms, Observed: obs}
		switch {
		case obs <= 0:
			// No observations in the window: vacuously met, attainment 1.
			o.Attainment, o.Met = 1, true
		default:
			o.Attainment, o.Met = s.TargetP99Ms/obs, obs <= s.TargetP99Ms
		}
		card.addObjective(o)
	}
	if s.ShedBudget >= 0 {
		shed := float64(w.Counters["serve_shed_total"])
		good := float64(w.Counters["images_decoded_total"])
		offered := shed + good
		var shedRate float64
		if offered > 0 {
			shedRate = shed / offered
		}
		o := Objective{Name: ObjectiveShed, Target: s.ShedBudget, Observed: shedRate, Met: shedRate <= s.ShedBudget}
		if required := 1 - s.ShedBudget; required > 0 {
			o.Attainment = (1 - shedRate) / required
		} else {
			o.Attainment = 1
		}
		switch {
		case s.ShedBudget > 0:
			o.BurnRate = shedRate / s.ShedBudget
		case shedRate > 0:
			o.BurnRate = shedBurnCap
		}
		if o.BurnRate > shedBurnCap {
			o.BurnRate = shedBurnCap
		}
		o.BudgetRemaining = 1 - o.BurnRate
		if o.BudgetRemaining < 0 {
			o.BudgetRemaining = 0
		}
		card.ErrorBudgetRemaining = o.BudgetRemaining
		card.BurnRate = o.BurnRate
		card.addObjective(o)
	}
	return card
}

// addObjective appends an objective and folds it into the rollups.
func (c *Scorecard) addObjective(o Objective) {
	c.Objectives = append(c.Objectives, o)
	if o.Attainment < c.Attainment {
		c.Attainment = o.Attainment
	}
	if !o.Met {
		c.Met = false
	}
}

// Violations lists the unmet objectives as human-readable one-liners
// (empty when the scorecard passes or is nil).
func (c *Scorecard) Violations() []string {
	if c == nil {
		return nil
	}
	var out []string
	for _, o := range c.Objectives {
		if o.Met {
			continue
		}
		switch o.Name {
		case ObjectiveThroughput:
			out = append(out, fmt.Sprintf("throughput %.1f img/s below target %.1f (attainment %.2f)", o.Observed, o.Target, o.Attainment))
		case ObjectiveP99:
			out = append(out, fmt.Sprintf("p99 %.2fms above target %.2fms (attainment %.2f)", o.Observed, o.Target, o.Attainment))
		case ObjectiveShed:
			out = append(out, fmt.Sprintf("shed rate %.4f over budget %.4f (burn rate %.1fx)", o.Observed, o.Target, o.BurnRate))
		default:
			out = append(out, fmt.Sprintf("%s: observed %g vs target %g", o.Name, o.Observed, o.Target))
		}
	}
	return out
}

// Report renders the scorecard as an aligned human-readable block —
// the dlserve shutdown-report output.
func (c *Scorecard) Report() string {
	if c == nil {
		return "slo: no telemetry window to judge\n"
	}
	var b strings.Builder
	status := "MET"
	if !c.Met {
		status = "VIOLATED"
	}
	fmt.Fprintf(&b, "SLO %s over %.1fs window (%d samples): %s (attainment %.2f)\n",
		c.Spec, c.WindowSeconds, c.Samples, status, c.Attainment)
	for _, o := range c.Objectives {
		mark := "ok"
		if !o.Met {
			mark = "VIOLATED"
		}
		switch o.Name {
		case ObjectiveThroughput:
			fmt.Fprintf(&b, "  %-12s %8.1f img/s  target ≥ %.1f   attainment %.2f  [%s]\n", o.Name, o.Observed, o.Target, o.Attainment, mark)
		case ObjectiveP99:
			fmt.Fprintf(&b, "  %-12s %8.2f ms     target ≤ %.2f  attainment %.2f  [%s]\n", o.Name, o.Observed, o.Target, o.Attainment, mark)
		case ObjectiveShed:
			fmt.Fprintf(&b, "  %-12s %8.4f        budget ≤ %.4f burn %.2fx budget-left %.2f  [%s]\n",
				o.Name, o.Observed, o.Target, o.BurnRate, o.BudgetRemaining, mark)
		}
	}
	return b.String()
}
