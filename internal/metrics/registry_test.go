package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestNilRegistryIsSafe pins the cheap-by-default contract: every method
// of a nil *Registry is a no-op, so components thread registries through
// unconditionally and pay one nil check when observability is off.
func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	if r.On() {
		t.Fatal("nil registry reports On")
	}
	r.Add("x", 1)
	r.Observe(StageFPGADecode, 1.5)
	r.ObserveSince(StageFPGADecode, time.Now())
	r.RegisterCounterFunc("x", func() int64 { return 1 })
	r.RegisterGauge("g", func() float64 { return 1 })
	r.RegisterQueue("q", func() int { return 0 }, func() int { return 1 })
	r.SetBusy(NewBusyTracker())
	r.Event("e", "detail")
	r.CompleteSpan(Span{})
	if r.Events() != nil || r.EventCount("e") != 0 {
		t.Fatal("nil registry retained state")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry produced a snapshot")
	}
}

func TestSnapshotAggregates(t *testing.T) {
	r := NewRegistry()
	r.Add("pushed_total", 3)
	r.Add("pushed_total", 2)
	ext := int64(41)
	r.RegisterCounterFunc("pulled_total", func() int64 { return ext })
	r.Observe(StageFPGADecode, 1)
	r.Observe(StageFPGADecode, 3)
	r.RegisterGauge("level", func() float64 { return 0.5 })
	depth := 2
	r.RegisterQueue("work", func() int { return depth }, func() int { return 8 })
	busy := NewBusyTracker()
	busy.Record("reader", 1.0)
	r.SetBusy(busy)
	r.Event("degraded", "test switch")

	ext++
	s := r.Snapshot()
	if s.Counters["pushed_total"] != 5 {
		t.Fatalf("pushed_total = %d", s.Counters["pushed_total"])
	}
	if s.Counters["pulled_total"] != 42 {
		t.Fatalf("pulled_total = %d (pull must read at snapshot time)", s.Counters["pulled_total"])
	}
	if st := s.Stages[StageFPGADecode]; st.Count != 2 || !within(st.P50, 1) || st.Max != 3 {
		t.Fatalf("stage summary = %+v", st)
	}
	if s.Gauges["level"] != 0.5 {
		t.Fatalf("gauge = %v", s.Gauges["level"])
	}
	if q := s.Queues["work"]; q.Len != 2 || q.Cap != 8 {
		t.Fatalf("queue = %+v", q)
	}
	if len(s.Cores) == 0 || s.Cores["reader"] <= 0 {
		t.Fatalf("cores = %v", s.Cores)
	}
	if len(s.Events) != 1 || s.Events[0].Name != "degraded" {
		t.Fatalf("events = %v", s.Events)
	}
	if s.UptimeSeconds <= 0 {
		t.Fatalf("uptime = %v", s.UptimeSeconds)
	}
}

// TestCompleteSpanDerivesStages checks that a finished span feeds the
// derived per-stage histograms and the span-conservation counters.
func TestCompleteSpanDerivesStages(t *testing.T) {
	r := NewRegistry()
	t0 := time.Now()
	sp := Span{
		Batch:      1,
		Collected:  t0,
		Published:  t0.Add(10 * time.Millisecond),
		Dispatched: t0.Add(12 * time.Millisecond),
		Synced:     t0.Add(15 * time.Millisecond),
		Recycled:   t0.Add(16 * time.Millisecond),
		Images:     4, FPGA: 2, Fallback: 1, Failed: 1,
	}
	r.CompleteSpan(sp)
	s := r.Snapshot()
	for _, stage := range []string{StageAssemble, StageFullQueueWait, StageCopySync, StageRecycle, StageBatchE2E} {
		if s.Stages[stage].Count != 1 {
			t.Fatalf("stage %s count = %d", stage, s.Stages[stage].Count)
		}
	}
	if got := s.Stages[StageBatchE2E].Max; got < 15.9 || got > 16.1 {
		t.Fatalf("batch_e2e = %v ms, want ~16", got)
	}
	if s.Counters["span_images_total"] != 4 ||
		s.Counters["span_images_fpga_total"] != 2 ||
		s.Counters["span_images_fallback_total"] != 1 ||
		s.Counters["span_images_failed_total"] != 1 {
		t.Fatalf("span counters = %v", s.Counters)
	}
	if s.SpansCompleted != 1 || len(s.RecentSpans) != 1 || s.RecentSpans[0].Batch != 1 {
		t.Fatalf("spans: completed=%d recent=%v", s.SpansCompleted, s.RecentSpans)
	}
	// A span missing later stages (never dispatched) must not feed the
	// downstream histograms with garbage.
	r.CompleteSpan(Span{Batch: 2, Collected: t0, Published: t0.Add(time.Millisecond), Images: 1, FPGA: 1})
	if got := r.Snapshot().Stages[StageCopySync].Count; got != 1 {
		t.Fatalf("copy_sync count = %d after partial span", got)
	}
}

// TestSpanRingBounded pins the recent-span ring at spanKeep entries
// while the completed counter keeps the true total.
func TestSpanRingBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < spanKeep+10; i++ {
		r.CompleteSpan(Span{Batch: i + 1})
	}
	s := r.Snapshot()
	if len(s.RecentSpans) != spanKeep {
		t.Fatalf("ring holds %d spans, want %d", len(s.RecentSpans), spanKeep)
	}
	if s.SpansCompleted != int64(spanKeep+10) {
		t.Fatalf("completed = %d", s.SpansCompleted)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Add("images_decoded_total", 7)
	r.Observe(StageFPGADecode, 2)
	r.RegisterGauge("degraded", func() float64 { return 1 })
	r.RegisterQueue("full_batch", func() int { return 3 }, func() int { return 8 })
	r.Event("degraded", "x")
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"dlbooster_images_decoded_total 7",
		"dlbooster_degraded 1",
		`dlbooster_queue_depth{queue="full_batch"} 3`,
		`dlbooster_queue_capacity{queue="full_batch"} 8`,
		`dlbooster_stage_latency_ms{stage="fpga_decode",quantile="0.5"} 2`,
		`dlbooster_stage_latency_ms_count{stage="fpga_decode"} 1`,
		`dlbooster_events_total{name="degraded"} 1`,
		"dlbooster_spans_completed_total 0",
		"# TYPE dlbooster_images_decoded_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Add("images_decoded_total", 1)
	r.Observe(StageFPGADecode, 2)
	r.RegisterQueue("full_batch", func() int { return 0 }, func() int { return 8 })
	s := r.Snapshot()
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back PipelineSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["images_decoded_total"] != 1 || back.Stages[StageFPGADecode].Count != 1 || back.Queues["full_batch"].Cap != 8 {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}

// TestObserveWarmZeroAlloc pins the hot-path cost of a stage sample:
// once a stage exists, Registry.Observe allocates nothing.
func TestObserveWarmZeroAlloc(t *testing.T) {
	r := NewRegistry()
	r.Observe(StageFPGADecode, 1)
	v := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		v += 0.37
		r.Observe(StageFPGADecode, v)
	}); n != 0 {
		t.Fatalf("warm Observe allocates %v per call, want 0", n)
	}
}
