package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseSLO(t *testing.T) {
	s, err := ParseSLO("tput=900,p99ms=250,shed=0.001,stage=infer_e2e,window=60s")
	if err != nil {
		t.Fatalf("ParseSLO: %v", err)
	}
	if s.TargetThroughput != 900 || s.TargetP99Ms != 250 || s.ShedBudget != 0.001 ||
		s.LatencyStage != "infer_e2e" || s.Window != time.Minute {
		t.Fatalf("parsed = %+v", s)
	}
	if _, err := ParseSLO(""); err == nil {
		t.Fatal("empty spec should error")
	}
	if _, err := ParseSLO("stage=batch_e2e"); err == nil {
		t.Fatal("spec with no objective should error")
	}
	if _, err := ParseSLO("tput=abc"); err == nil {
		t.Fatal("bad number should error")
	}
	if _, err := ParseSLO("bogus=1"); err == nil {
		t.Fatal("unknown key should error")
	}
	if _, err := ParseSLO("tput=-5"); err == nil {
		t.Fatal("negative target should error")
	}
	for _, nan := range []string{"tput=NaN", "p99ms=NaN", "shed=NaN", "tput=1,shed=nan"} {
		if _, err := ParseSLO(nan); err == nil {
			t.Fatalf("%q accepted", nan)
		}
	}
	// shed=0 is a valid "no sheds allowed" budget.
	z, err := ParseSLO("shed=0")
	if err != nil {
		t.Fatalf("shed=0: %v", err)
	}
	if z.ShedBudget != 0 {
		t.Fatalf("shed budget = %v, want 0", z.ShedBudget)
	}
}

// FuzzParseSLO: a spec ParseSLO accepts renders, through String, to a
// spec that parses back to an equal SLO.
func FuzzParseSLO(f *testing.F) {
	for _, seed := range []string{
		"tput=900,p99ms=250,shed=0.001,stage=infer_e2e,window=60s",
		"p99ms=250,stage=infer_e2e", "shed=0", "tput=NaN", "tput=1,stage=", "tput=+Inf",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSLO(spec)
		if err != nil {
			return
		}
		r, err := ParseSLO(s.String())
		if err != nil {
			t.Fatalf("ParseSLO(%q) accepted, but its String %q does not parse: %v", spec, s.String(), err)
		}
		if !reflect.DeepEqual(r, s) {
			t.Fatalf("ParseSLO(%q) = %+v, but its String %q parses to %+v", spec, *s, s.String(), *r)
		}
	})
}

func TestSLOStringRoundTrip(t *testing.T) {
	for _, spec := range []string{"tput=900", "p99ms=250,stage=infer_e2e", "tput=500,shed=0.01,window=30s"} {
		s, err := ParseSLO(spec)
		if err != nil {
			t.Fatalf("ParseSLO(%q): %v", spec, err)
		}
		r, err := ParseSLO(s.String())
		if err != nil {
			t.Fatalf("reparse(%q): %v", s.String(), err)
		}
		if r.TargetThroughput != s.TargetThroughput || r.TargetP99Ms != s.TargetP99Ms ||
			r.ShedBudget != s.ShedBudget || r.Window != s.Window {
			t.Fatalf("round trip %q → %q changed the spec", spec, s.String())
		}
	}
}

// sloHistory builds a history sustaining the given throughput
// (images/s), batch-e2e p99 (ms) and shed rate over 10 one-second
// samples.
func sloHistory(tput float64, p99 float64, shedPerSec int64) *History {
	t0 := time.Now()
	h := NewHistory(16)
	for i := 0; i <= 10; i++ {
		n := int64(tput * float64(i))
		s := &PipelineSnapshot{
			TakenAt:       t0.Add(time.Duration(i) * time.Second),
			UptimeSeconds: float64(i),
			Counters: map[string]int64{
				"images_decoded_total": n,
				"serve_shed_total":     shedPerSec * int64(i),
			},
			Stages: map[string]Summary{
				StageBatchE2E: summaryOf(int(n/8), p99/2, p99),
			},
		}
		h.Record(s)
	}
	return h
}

func TestScorecardMet(t *testing.T) {
	h := sloHistory(1000, 100, 0)
	s, _ := ParseSLO("tput=900,p99ms=250,shed=0.001")
	card := s.Evaluate(h)
	if card == nil || !card.Met {
		t.Fatalf("scorecard = %+v, want met", card)
	}
	if card.Attainment < 1 {
		t.Fatalf("attainment = %v, want ≥ 1", card.Attainment)
	}
	if card.ErrorBudgetRemaining != 1 || card.BurnRate != 0 {
		t.Fatalf("budget = %v burn = %v, want untouched", card.ErrorBudgetRemaining, card.BurnRate)
	}
	if len(card.Violations()) != 0 {
		t.Fatalf("violations = %v, want none", card.Violations())
	}
	if !strings.Contains(card.Report(), "MET") {
		t.Fatalf("report lacks MET:\n%s", card.Report())
	}
}

func TestScorecardThroughputViolated(t *testing.T) {
	h := sloHistory(400, 100, 0)
	s, _ := ParseSLO("tput=900")
	card := s.Evaluate(h)
	if card.Met {
		t.Fatalf("scorecard met at 400 img/s vs target 900:\n%s", card.Report())
	}
	ob := card.Objectives[0]
	if ob.Name != ObjectiveThroughput || ob.Met {
		t.Fatalf("objective = %+v", ob)
	}
	// 400/900 ≈ 0.444 attainment.
	if ob.Attainment < 0.43 || ob.Attainment > 0.46 {
		t.Fatalf("attainment = %v, want ≈ 0.44", ob.Attainment)
	}
	if len(card.Violations()) != 1 || !strings.Contains(card.Violations()[0], "throughput") {
		t.Fatalf("violations = %v", card.Violations())
	}
}

func TestScorecardLatencyViolated(t *testing.T) {
	h := sloHistory(1000, 400, 0)
	s, _ := ParseSLO("p99ms=250")
	card := s.Evaluate(h)
	if card.Met {
		t.Fatalf("scorecard met at p99 400ms vs target 250:\n%s", card.Report())
	}
	if card.Attainment != 250.0/400 {
		t.Fatalf("attainment = %v, want 0.625", card.Attainment)
	}
}

func TestScorecardBurnRate(t *testing.T) {
	// 1000 decoded + 10 shed per second → shed rate ≈ 0.0099 against a
	// 0.005 budget: burn ≈ 2×, budget exhausted.
	h := sloHistory(1000, 100, 10)
	s, _ := ParseSLO("shed=0.005")
	card := s.Evaluate(h)
	if card.Met {
		t.Fatalf("scorecard met while overspending shed budget:\n%s", card.Report())
	}
	if card.BurnRate < 1.9 || card.BurnRate > 2.1 {
		t.Fatalf("burn rate = %v, want ≈ 2", card.BurnRate)
	}
	if card.ErrorBudgetRemaining != 0 {
		t.Fatalf("budget remaining = %v, want 0 (overspent)", card.ErrorBudgetRemaining)
	}
	// Half the budget → burn ≈ 0.5, half remaining.
	s2, _ := ParseSLO("shed=0.02")
	card2 := s2.Evaluate(h)
	if !card2.Met {
		t.Fatalf("scorecard violated inside budget:\n%s", card2.Report())
	}
	if card2.BurnRate < 0.45 || card2.BurnRate > 0.55 {
		t.Fatalf("burn rate = %v, want ≈ 0.5", card2.BurnRate)
	}
	if rem := card2.ErrorBudgetRemaining; rem < 0.45 || rem > 0.55 {
		t.Fatalf("budget remaining = %v, want ≈ 0.5", rem)
	}
}

func TestScorecardZeroShedBudget(t *testing.T) {
	s, _ := ParseSLO("shed=0")
	// No sheds: met, burn 0.
	if card := s.Evaluate(sloHistory(100, 10, 0)); !card.Met || card.BurnRate != 0 {
		t.Fatalf("zero-budget zero-shed card = %+v", card)
	}
	// Any shed: violated, burn capped (and still JSON-encodable).
	card := s.Evaluate(sloHistory(100, 10, 1))
	if card.Met || card.BurnRate != shedBurnCap {
		t.Fatalf("zero-budget with sheds = %+v", card)
	}
	if _, err := json.Marshal(card); err != nil {
		t.Fatalf("scorecard not JSON-encodable: %v", err)
	}
}

func TestScorecardEmptyWindow(t *testing.T) {
	s, _ := ParseSLO("tput=100")
	if s.Evaluate(nil) != nil {
		t.Fatal("nil history should evaluate to nil")
	}
	if s.Evaluate(NewHistory(4)) != nil {
		t.Fatal("empty history should evaluate to nil")
	}
	var nilSLO *SLO
	if nilSLO.Evaluate(sloHistory(100, 10, 0)) != nil {
		t.Fatal("nil SLO should evaluate to nil")
	}
	// A p99 objective over a window with no stage observations is
	// vacuously met, not a division by zero.
	p, _ := ParseSLO("p99ms=100,stage=nonexistent_stage")
	card := p.Evaluate(sloHistory(100, 10, 0))
	if card == nil || !card.Objectives[0].Met || card.Objectives[0].Attainment != 1 {
		t.Fatalf("vacuous latency objective = %+v", card)
	}
}

func TestScorecardWindowed(t *testing.T) {
	// Throughput collapses in the last 3 seconds; a 3s-window SLO sees
	// the collapse while a whole-history SLO is diluted by the good era.
	t0 := time.Now()
	h := NewHistory(32)
	decoded := int64(0)
	for i := 0; i <= 10; i++ {
		if i <= 7 {
			decoded += 1000
		} else {
			decoded += 100
		}
		h.Record(&PipelineSnapshot{
			TakenAt:       t0.Add(time.Duration(i) * time.Second),
			UptimeSeconds: float64(i),
			Counters:      map[string]int64{"images_decoded_total": decoded},
		})
	}
	whole, _ := ParseSLO("tput=500")
	if card := whole.Evaluate(h); card.Met == false {
		t.Fatalf("whole-history card should pass on the diluted average:\n%s", card.Report())
	}
	recent, _ := ParseSLO("tput=500,window=3s")
	card := recent.Evaluate(h)
	if card.Met {
		t.Fatalf("3s-window card should see the collapse:\n%s", card.Report())
	}
	if card.Objectives[0].Observed != 100 {
		t.Fatalf("windowed throughput = %v, want 100", card.Objectives[0].Observed)
	}
}
