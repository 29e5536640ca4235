package dlbooster

// control_doc_test pins docs/CONTROL.md to the code: the knob block,
// the config and limit surfaces, the decision actions, every control_*
// metric a running controller exports and the CLI flags must appear in
// the handbook, so the autotuner cannot grow surface the handbook
// doesn't describe.

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dlbooster/internal/control"
	"dlbooster/internal/metrics"
)

// docPlant is a minimal in-memory control.Plant for driving a retune.
type docPlant struct{ k control.Knobs }

func (p *docPlant) Knobs() control.Knobs  { return p.k }
func (p *docPlant) Apply(k control.Knobs) { p.k = k }

// controlSnapshot drives one controller to an actual retune — a
// fabricated telemetry history missing its p99 objective — and returns
// the registry snapshot carrying the control_* instruments and the
// control_retune trace event.
func controlSnapshot(t *testing.T) *metrics.PipelineSnapshot {
	t.Helper()
	slo, err := metrics.ParseSLO("p99ms=50,window=1m")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	hist := metrics.NewHistory(16)
	plant := &docPlant{k: control.Knobs{BatchTimeout: 8 * time.Millisecond, QueueCap: 64}}
	ctl, err := control.New(plant, hist, control.Config{SLO: slo, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var e2e metrics.Histogram
	for i := 1; i <= 4; i++ {
		// 100 batches a second, half at 60 ms and half at 100 ms: mean
		// 80 ms, p99 100 ms against the 50 ms objective.
		for j := 0; j < 100; j++ {
			e2e.Add(float64(60 + 40*(j%2)))
		}
		hist.Record(&metrics.PipelineSnapshot{
			TakenAt:       t0.Add(time.Duration(i) * time.Second),
			UptimeSeconds: float64(i),
			Counters:      map[string]int64{"images_decoded_total": int64(100 * i)},
			Stages: map[string]metrics.Summary{
				metrics.StageBatchE2E: e2e.Summarize(),
			},
		})
	}
	if d := ctl.Step(); d.Applied == nil {
		t.Fatalf("fixture never retuned: %s (%s)", d.Action, d.Reason)
	}
	return reg.Snapshot()
}

func TestControlHandbookPinned(t *testing.T) {
	docBytes, err := os.ReadFile("docs/CONTROL.md")
	if err != nil {
		t.Fatalf("the autotuner handbook is missing: %v", err)
	}
	doc := string(docBytes)

	var wanted []string
	// Every knob, config field and limit bound, by field name.
	for _, typ := range []reflect.Type{
		reflect.TypeOf(control.Knobs{}),
		reflect.TypeOf(control.Config{}),
		reflect.TypeOf(control.Limits{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			wanted = append(wanted, "`"+typ.Field(i).Name+"`")
		}
	}
	// The decision actions, by their event-detail codes.
	wanted = append(wanted,
		"`"+control.ActionHold+"`", "`"+control.ActionTightenLatency+"`",
		"`"+control.ActionGrowThroughput+"`", "`"+control.ActionRestoreBaseline+"`",
	)
	// The resolved-limit defaults the table narrates.
	base := control.Knobs{BatchTimeout: 8 * time.Millisecond, QueueCap: 64}
	lim := control.ResolveLimits(control.Limits{}, base, nil)
	wanted = append(wanted, fmt.Sprintf("%.1f", lim.MaxCPUShare), "100µs")
	// The plant surfaces, the CLI and the test that holds the
	// sheds-less-than-static claim.
	wanted = append(wanted,
		"`core.Booster.SetBatchTimeout`", "`core.Booster.SetCPUShare`",
		"`fleet.Shard.SetQueueCap`",
		"dlserve -autotune", "`TestControlConvergeUnderOverloadSim`",
		"`control_retune`",
	)
	for _, w := range wanted {
		if !strings.Contains(doc, w) {
			t.Errorf("docs/CONTROL.md does not mention %s", w)
		}
	}

	// Every control_* instrument a running controller actually exports —
	// pinned in both the handbook and the telemetry reference.
	metricsDoc, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	snap := controlSnapshot(t)
	var names []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sawControlMetric := false
	for _, name := range names {
		if !strings.HasPrefix(name, "control_") {
			continue
		}
		sawControlMetric = true
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("docs/CONTROL.md does not document exported metric `%s`", name)
		}
		if !strings.Contains(string(metricsDoc), "`"+name+"`") {
			t.Errorf("docs/METRICS.md does not document exported metric `%s`", name)
		}
	}
	if !sawControlMetric {
		t.Fatal("the controller exported no control_* metrics; the pin is vacuous")
	}
	retuned := false
	for _, e := range snap.Events {
		retuned = retuned || e.Name == "control_retune"
	}
	if !retuned {
		t.Fatal("the fixture's retune recorded no control_retune event")
	}
}
