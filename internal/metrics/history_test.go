package metrics

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// histSnap builds a synthetic cumulative snapshot at t0+offset with the
// given cumulative decode count and queue fill.
func histSnap(t0 time.Time, offset time.Duration, decoded int64, fullLen int) *PipelineSnapshot {
	return &PipelineSnapshot{
		TakenAt:       t0.Add(offset),
		UptimeSeconds: offset.Seconds(),
		Counters:      map[string]int64{"images_decoded_total": decoded},
		Gauges:        map[string]float64{"degraded": 0},
		Stages: map[string]Summary{
			StageFPGADecode: summaryOf(int(decoded), 1, 3),
		},
		Queues: map[string]QueueDepth{
			"full_batch": {Len: fullLen, Cap: 8},
		},
	}
}

func TestSubtractSummaries(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(2)
	}
	prev := h.Summarize()
	for i := 0; i < 50; i++ {
		h.Add(8)
	}
	cur := h.Summarize()
	iv := SubtractSummaries(cur, prev)
	if iv.Count != 50 {
		t.Fatalf("interval count = %d, want 50", iv.Count)
	}
	// Interval mean is exact: (150×4 − 100×2) / 50 = 8.
	if iv.Mean != 8 {
		t.Fatalf("interval mean = %v, want 8", iv.Mean)
	}
	// Order statistics are the interval's own, not cur's: every
	// interval sample is 8, while cur's p50 is 2.
	if iv.P50 != 8 || iv.P95 != 8 || iv.P99 != 8 || iv.Min != 8 || iv.Max != 8 {
		t.Fatalf("interval order stats = %+v, want all 8", iv)
	}
	if got := SubtractSummaries(cur, Summary{}); !reflect.DeepEqual(got, cur) {
		t.Fatalf("empty prev should return cur, got %+v", got)
	}
	// Registry restart (cur behind prev) and empty intervals go to zero.
	if got := SubtractSummaries(prev, cur); got.Count != 0 {
		t.Fatalf("restart subtract = %+v, want zero", got)
	}
	if got := SubtractSummaries(cur, cur); got.Count != 0 {
		t.Fatalf("empty interval = %+v, want zero", got)
	}
}

func TestHistoryRingEviction(t *testing.T) {
	t0 := time.Now()
	h := NewHistory(3)
	if h.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", h.Cap())
	}
	for i := 0; i < 5; i++ {
		h.Record(histSnap(t0, time.Duration(i)*time.Second, int64(100*i), 0))
	}
	if h.Len() != 3 || h.Recorded() != 5 {
		t.Fatalf("Len = %d Recorded = %d, want 3 and 5", h.Len(), h.Recorded())
	}
	samples := h.Samples()
	for i, want := range []float64{2, 3, 4} {
		if got := samples[i].Snapshot.UptimeSeconds; got != want {
			t.Fatalf("sample %d uptime = %v, want %v (oldest-first after eviction)", i, got, want)
		}
	}
	if l := h.Latest(); l == nil || l.Snapshot.UptimeSeconds != 4 {
		t.Fatalf("Latest = %+v, want the newest sample", l)
	}
	// Interval deltas diff adjacent samples.
	if d := samples[2].Delta; d.Counters["images_decoded_total"] != 100 || d.Seconds != 1 {
		t.Fatalf("interval delta = %+v, want 100 over 1s", d)
	}
}

func TestHistoryNilContract(t *testing.T) {
	var h *History
	h.Record(histSnap(time.Now(), 0, 1, 0))
	if h.Len() != 0 || h.Cap() != 0 || h.Recorded() != 0 {
		t.Fatal("nil history should report zero sizes")
	}
	if h.Samples() != nil || h.Latest() != nil || h.Window(0) != nil {
		t.Fatal("nil history queries should return nil")
	}
	if _, err := h.JSON(); err != nil {
		t.Fatalf("nil history JSON errored: %v", err)
	}
	var s *Sampler
	s.Start()
	s.Stop()
	if s.History() != nil {
		t.Fatal("nil sampler History != nil")
	}
	if NewSampler(nil, SamplerConfig{}) != nil {
		t.Fatal("NewSampler(nil registry) should return nil")
	}
	var w *WindowStats
	if w.Rate("x") != 0 {
		t.Fatal("nil window Rate != 0")
	}
}

// TestHistoryNilZeroAlloc pins the no-sampler cost contract: recording
// into and querying a nil history allocates nothing.
func TestHistoryNilZeroAlloc(t *testing.T) {
	var h *History
	snap := histSnap(time.Now(), time.Second, 100, 0)
	if n := testing.AllocsPerRun(100, func() {
		h.Record(snap)
		_ = h.Window(time.Second)
		var s *Sampler
		s.Start()
		s.Stop()
	}); n != 0 {
		t.Fatalf("nil history/sampler path allocates %v per op, want 0", n)
	}
}

// TestHistoryWindowConservation is the window-conservation property:
// the window rollup's summed counters equal the whole-interval delta
// between the window's edge snapshots — adjacent interval deltas
// neither drop nor double-count.
func TestHistoryWindowConservation(t *testing.T) {
	t0 := time.Now()
	h := NewHistory(16)
	snaps := make([]*PipelineSnapshot, 0, 10)
	decoded := int64(0)
	for i := 0; i < 10; i++ {
		decoded += int64(37 * (i + 1)) // uneven increments
		s := histSnap(t0, time.Duration(i)*time.Second, decoded, i%8)
		s.Counters["serve_shed_total"] = int64(3 * i)
		snaps = append(snaps, s)
		h.Record(s)
	}
	w := h.Window(0) // whole ring
	whole := uptimeDelta(snaps[len(snaps)-1], snaps[0])
	// The first sample's delta covers registry start → sample 0, so the
	// window's counters are whole-interval plus that lead-in.
	lead := uptimeDelta(snaps[0], nil)
	for _, k := range []string{"images_decoded_total", "serve_shed_total"} {
		want := whole.Counters[k] + lead.Counters[k]
		if got := w.Counters[k]; got != want {
			t.Fatalf("window counter %s = %d, want %d (conservation)", k, got, want)
		}
	}
	if wantSec := whole.Seconds + lead.Seconds; w.Seconds != wantSec {
		t.Fatalf("window seconds = %v, want %v", w.Seconds, wantSec)
	}
	// Stage counts conserve too: merged interval summaries count every
	// observation exactly once.
	if got, want := w.Stages[StageFPGADecode].Count, int(decoded); got != want {
		t.Fatalf("window stage count = %d, want %d", got, want)
	}
	// A trailing sub-window also conserves against its own edges.
	sub := h.Window(3 * time.Second)
	first := len(snaps) - sub.Samples
	wantSub := uptimeDelta(snaps[len(snaps)-1], snaps[first-1])
	if got := sub.Counters["images_decoded_total"]; got != wantSub.Counters["images_decoded_total"] {
		t.Fatalf("sub-window counter = %d, want %d", got, wantSub.Counters["images_decoded_total"])
	}
}

func TestHistoryWindowQueueTrend(t *testing.T) {
	t0 := time.Now()
	rising := NewHistory(8)
	for i := 0; i < 6; i++ {
		rising.Record(histSnap(t0, time.Duration(i)*time.Second, int64(100*i), i+1))
	}
	w := rising.Window(0)
	tr, ok := w.Queues["full_batch"]
	if !ok {
		t.Fatalf("no trend for full_batch: %+v", w.Queues)
	}
	if tr.Direction != "rising" || tr.SlopePerSec <= 0 {
		t.Fatalf("trend = %+v, want rising", tr)
	}
	if tr.First != 1.0/8 || tr.Last != 6.0/8 {
		t.Fatalf("trend edges = %+v", tr)
	}

	flat := NewHistory(8)
	for i := 0; i < 6; i++ {
		flat.Record(histSnap(t0, time.Duration(i)*time.Second, int64(100*i), 4))
	}
	if tr := flat.Window(0).Queues["full_batch"]; tr.Direction != "flat" {
		t.Fatalf("constant fill trend = %+v, want flat", tr)
	}

	falling := NewHistory(8)
	for i := 0; i < 6; i++ {
		falling.Record(histSnap(t0, time.Duration(i)*time.Second, int64(100*i), 7-i))
	}
	if tr := falling.Window(0).Queues["full_batch"]; tr.Direction != "falling" {
		t.Fatalf("draining fill trend = %+v, want falling", tr)
	}
}

func TestHistoryWindowStagePercentiles(t *testing.T) {
	t0 := time.Now()
	h := NewHistory(8)
	// Sample 1: 100 obs alternating 1 and 3 (mean 2). Sample 2 adds
	// 300 obs at 6, so the cumulative mean moves to 5 and the interval
	// mean is (400×5−100×2)/300 = 6.
	h.Record(histSnap(t0, 0, 100, 0))
	var whole Histogram
	for i := 0; i < 400; i++ {
		v := 6.0
		if i < 100 {
			v = float64(1 + 2*(i%2))
		}
		whole.Add(v)
	}
	s2 := histSnap(t0, time.Second, 400, 0)
	s2.Stages[StageFPGADecode] = whole.Summarize()
	h.Record(s2)
	w := h.Window(0)
	st := w.Stages[StageFPGADecode]
	if st.Count != 400 {
		t.Fatalf("window stage count = %d, want 400", st.Count)
	}
	// Merged mean: (100×2 + 300×6)/400 = 5 — the true cumulative mean,
	// recovered through the interval split.
	if st.Mean != 5 {
		t.Fatalf("window stage mean = %v, want 5", st.Mean)
	}
	// The window's percentiles are those of all 400 samples: p50 and
	// p99 both land on the 300 samples at 6.
	if st.P50 != 6 || st.P99 != 6 || st.Min != 1 || st.Max != 6 {
		t.Fatalf("window stage = %+v, want p50 = p99 = 6 over [1, 6]", st)
	}
}

func TestHistoryJSONRoundTrip(t *testing.T) {
	t0 := time.Now()
	h := NewHistory(4)
	for i := 0; i < 3; i++ {
		h.Record(histSnap(t0, time.Duration(i)*time.Second, int64(10*i), i))
	}
	data, err := h.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var dump HistoryDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if dump.Capacity != 4 || dump.Recorded != 3 || len(dump.Samples) != 3 {
		t.Fatalf("dump geometry = %+v", dump)
	}
	if dump.Samples[2].Delta.Counters["images_decoded_total"] != 10 {
		t.Fatalf("dump interval delta = %+v", dump.Samples[2].Delta)
	}
}

func TestHistoryRecordTrimsUnbounded(t *testing.T) {
	s := histSnap(time.Now(), 0, 10, 0)
	s.Events = []Event{{Name: "degraded", At: s.TakenAt}}
	s.RecentSpans = []Span{{}}
	h := NewHistory(4)
	h.Record(s)
	got := h.Samples()[0]
	if got.Snapshot.Events != nil || got.Snapshot.RecentSpans != nil {
		t.Fatal("sample snapshot should drop events and recent spans")
	}
	// The interval delta still carries the window's events.
	if len(got.Delta.Events) != 1 || got.Delta.Events[0].Name != "degraded" {
		t.Fatalf("interval events lost: %+v", got.Delta.Events)
	}
}

func TestMergeHistoriesConservation(t *testing.T) {
	t0 := time.Now()
	a, b := NewHistory(8), NewHistory(8)
	for i := 0; i < 5; i++ {
		sa := histSnap(t0, time.Duration(i)*time.Second, int64(100*i), 2)
		if i == 3 {
			sa.Events = []Event{{Name: "degraded", At: sa.TakenAt.Add(-time.Second / 2)}}
		}
		a.Record(sa)
		b.Record(histSnap(t0, time.Duration(i)*time.Second, int64(40*i), 6))
	}
	m := MergeHistories([]*History{a, b, nil, NewHistory(8)})
	if m == nil || m.Len() != 5 {
		t.Fatalf("merged history len = %d, want 5", m.Len())
	}
	// Each merged sample's cumulative counter is the shard sum, and its
	// interval is the sum of the shards' intervals.
	last := m.Latest()
	if got := last.Snapshot.Counters["images_decoded_total"]; got != 4*140 {
		t.Fatalf("merged cumulative = %d, want %d", got, 4*140)
	}
	if got := last.Delta.Counters["images_decoded_total"]; got != 140 {
		t.Fatalf("merged interval delta = %d, want 140 (100+40)", got)
	}
	if last.Seconds != 1 || last.Delta.Rate("images_decoded_total") != 140 {
		t.Fatalf("merged interval = %vs at %v img/s, want 1s at 140", last.Seconds, last.Delta.Rate("images_decoded_total"))
	}
	if got := last.IntervalStages[StageFPGADecode].Count; got != 140 {
		t.Fatalf("merged interval stage count = %d, want 140", got)
	}
	if last.Snapshot.Stages != nil {
		t.Fatal("merged sample keeps cumulative stages")
	}
	// Queue caps sum across shards: 8+8 at each sample.
	if q := last.Snapshot.Queues["full_batch"]; q.Len != 8 || q.Cap != 16 {
		t.Fatalf("merged queue = %+v, want 8/16", q)
	}
	// Window conservation holds on the merged ring too, stage counts and
	// interval events included.
	w := m.Window(0)
	if got := w.Counters["images_decoded_total"]; got != 4*140 {
		t.Fatalf("merged window counter = %d, want %d", got, 4*140)
	}
	if got := w.Stages[StageFPGADecode].Count; got != 4*140 {
		t.Fatalf("merged window stage count = %d, want %d", got, 4*140)
	}
	if len(w.Events) != 1 || w.Events[0].Name != "degraded" {
		t.Fatalf("merged window events = %+v, want the one degraded event", w.Events)
	}
	if MergeHistories(nil) != nil || MergeHistories([]*History{nil}) != nil {
		t.Fatal("merge of no histories should be nil")
	}
}

func TestMergeHistoriesUnevenDepths(t *testing.T) {
	t0 := time.Now()
	a, b := NewHistory(8), NewHistory(8)
	for i := 0; i < 6; i++ {
		a.Record(histSnap(t0, time.Duration(i)*time.Second, int64(10*i), 0))
	}
	for i := 4; i < 6; i++ { // b started sampling late
		b.Record(histSnap(t0, time.Duration(i)*time.Second, int64(1000+int64(i)), 0))
	}
	m := MergeHistories([]*History{a, b})
	// Alignment is from the newest end: depth = min(6, 2) = 2.
	if m.Len() != 2 {
		t.Fatalf("merged len = %d, want 2 (shallowest shard)", m.Len())
	}
	if got := m.Latest().Snapshot.Counters["images_decoded_total"]; got != 50+1005 {
		t.Fatalf("merged newest = %d, want %d", got, 50+1005)
	}
	// The merged window is the sum of the shards' samples over the
	// aligned depth: a's last two intervals (10 + 10) plus b's two (its
	// first covers registry start, 1004, then 1) — not everything a
	// counted since its own start.
	want, wantStage := int64(0), 0
	for _, s := range append(a.Samples()[4:], b.Samples()...) {
		want += s.Delta.Counters["images_decoded_total"]
		wantStage += s.IntervalStages[StageFPGADecode].Count
	}
	w := m.Window(0)
	if got := w.Counters["images_decoded_total"]; got != want || want != 10+10+1004+1 {
		t.Fatalf("merged window counter = %d, want %d (sum of aligned shard samples)", got, want)
	}
	if got := w.Stages[StageFPGADecode].Count; got != wantStage || wantStage != int(want) {
		t.Fatalf("merged window stage count = %d, want %d", got, wantStage)
	}
}

// TestHistoryHoldsOneCumulativeSpan pins the ring's stage memory: a
// sample keeps interval stage summaries only, and the history keeps the
// newest cumulative summaries as the base of the next interval, so the
// ring holds at most (Len + 1) cumulative spans of bucket counts per
// stage rather than two per sample.
func TestHistoryHoldsOneCumulativeSpan(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(16)
	stages := []string{StageFPGADecode, StageCopySync, StageBatchE2E}
	for i := 0; i < 40; i++ {
		for j := 0; j < 50; j++ {
			for k, st := range stages {
				reg.Observe(st, float64(k+1)*(0.5+float64((i*50+j)%97)/10))
			}
		}
		h.Record(reg.Snapshot())
	}
	samples := h.Samples()
	held := 0
	for _, s := range samples {
		if s.Snapshot.Stages != nil {
			t.Fatalf("sample at %v keeps cumulative stages", s.TakenAt)
		}
		for _, iv := range s.IntervalStages {
			held += len(iv.counts)
		}
	}
	span := 0
	for _, cum := range h.stages {
		held += len(cum.counts)
		span += len(cum.counts)
	}
	if len(h.stages) != len(stages) || span == 0 {
		t.Fatalf("history keeps %d cumulative stages (span %d), want %d", len(h.stages), span, len(stages))
	}
	if bound := (len(samples) + 1) * span; held > bound {
		t.Fatalf("ring holds %d bucket counts, want ≤ (Len + 1) × spans = %d", held, bound)
	}
}

func TestSamplerLifecycle(t *testing.T) {
	r := NewRegistry()
	r.Add("images_decoded_total", 10)
	s := NewSampler(r, SamplerConfig{Interval: 5 * time.Millisecond, Capacity: 64})
	s.Start()
	s.Start() // idempotent
	deadline := time.After(2 * time.Second)
	for s.History().Len() < 3 {
		select {
		case <-deadline:
			t.Fatalf("sampler recorded %d samples in 2s, want ≥ 3", s.History().Len())
		case <-time.After(5 * time.Millisecond):
		}
	}
	r.Add("images_decoded_total", 5)
	s.Stop()
	s.Stop() // idempotent
	n := s.History().Len()
	if n < 3 {
		t.Fatalf("history len after stop = %d", n)
	}
	// Stop records a final sample, so the newest cumulative includes
	// everything counted before Stop returned.
	if got := s.History().Latest().Snapshot.Counters["images_decoded_total"]; got != 15 {
		t.Fatalf("final sample counter = %d, want 15", got)
	}
	time.Sleep(20 * time.Millisecond)
	if s.History().Len() != n {
		t.Fatal("sampler kept recording after Stop")
	}
	// Restartable.
	s.Start()
	s.Stop()
	if s.History().Len() <= n {
		t.Fatal("restarted sampler recorded nothing")
	}
}

// BenchmarkHistoryNilRecord pins the zero-overhead contract for
// pipelines without a sampler: the nil-history path is a few ns and
// allocation-free.
func BenchmarkHistoryNilRecord(b *testing.B) {
	var h *History
	snap := histSnap(time.Now(), time.Second, 100, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(snap)
	}
}

// BenchmarkHistoryRecord measures the live sampling cost — off the hot
// path (the Sampler calls it once per interval), but kept cheap.
func BenchmarkHistoryRecord(b *testing.B) {
	h := NewHistory(128)
	t0 := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(histSnap(t0, time.Duration(i)*time.Millisecond, int64(i), i%8))
	}
}

// TestSamplerStalledTicks is the regression test for the uniform-tick
// assumption: under CPU saturation time.Ticker drops ticks, so one
// recorded sample really spans several nominal intervals. The sample
// must carry the measured wall-clock gap (TakenAt differences) and
// derive its rates from it — not from what a per-tick uptime delta
// claims the interval was.
func TestSamplerStalledTicks(t *testing.T) {
	t0 := time.Now()
	h := NewHistory(8)
	h.Record(histSnap(t0, 0, 0, 0))
	// The sampler stalls: the next sample lands 3s later (two dropped
	// ticks) while a uniform-tick clock would stamp the nominal 1s.
	stalled := histSnap(t0, 3*time.Second, 300, 0)
	stalled.UptimeSeconds = 1
	h.Record(stalled)
	s := h.Latest()
	if s.Seconds < 2.999 || s.Seconds > 3.001 {
		t.Fatalf("sample seconds = %v, want the 3s wall-clock gap", s.Seconds)
	}
	if s.Delta.Seconds != s.Seconds {
		t.Fatalf("delta seconds %v != sample seconds %v", s.Delta.Seconds, s.Seconds)
	}
	if r := s.Delta.Rate("images_decoded_total"); r < 99 || r > 101 {
		t.Fatalf("rate = %v img/s, want ~100 (300 images over 3 measured seconds)", r)
	}
	if r := h.Window(0).Rate("images_decoded_total"); r < 99 || r > 101 {
		t.Fatalf("window rate = %v img/s, want ~100", r)
	}
}

// TestSamplerRestartElapsed pins the other failure of uptime-diff
// timing: a registry restart between captures makes the uptime diff
// negative, which silently zeroed every interval rate. The wall clock
// still measures the interval, so Seconds stays positive and the rates
// stay derivable (the negative counter diff itself is the documented
// restart signal).
func TestSamplerRestartElapsed(t *testing.T) {
	t0 := time.Now()
	h := NewHistory(8)
	old := histSnap(t0, 0, 500, 0)
	old.UptimeSeconds = 40
	h.Record(old)
	fresh := histSnap(t0, 2*time.Second, 80, 0)
	fresh.UptimeSeconds = 1 // restarted registry: uptime reset below prev
	h.Record(fresh)
	s := h.Latest()
	if s.Seconds < 1.999 || s.Seconds > 2.001 {
		t.Fatalf("restart sample seconds = %v, want the 2s wall-clock gap", s.Seconds)
	}
	// 80 − 500 = −420 over 2s: the rate is computed, not zeroed.
	if r := s.Delta.Rate("images_decoded_total"); r > -209 || r < -211 {
		t.Fatalf("restart rate = %v, want −210 over the measured gap", r)
	}
}

// TestHistoryWindowTail: 10 000 observations at 1 ms, then 100 at
// 50 ms one second later. The trailing 1 s window holds only the 50 ms
// tail, so its p99 is 50 ms and a 10 ms p99 objective over it is not
// met — a window that inherited the lifetime percentiles read 1 ms.
func TestHistoryWindowTail(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(8)
	t0 := time.Now()
	for i := 0; i < 10000; i++ {
		reg.Observe(StageBatchE2E, 1)
	}
	s := reg.Snapshot()
	s.TakenAt = t0
	h.Record(s)
	for i := 0; i < 100; i++ {
		reg.Observe(StageBatchE2E, 50)
	}
	s = reg.Snapshot()
	s.TakenAt = t0.Add(time.Second)
	h.Record(s)

	st := h.Window(time.Second).Stages[StageBatchE2E]
	if st.Count != 100 || st.Mean != 50 || !within(st.P50, 50) || !within(st.P99, 50) {
		t.Fatalf("1s window stage = %+v, want 100 samples with p50 = p99 = 50", st)
	}
	slo, err := ParseSLO("p99ms=10,window=1s")
	if err != nil {
		t.Fatal(err)
	}
	if card := slo.Evaluate(h); card.Met {
		t.Fatalf("p99 ≤ 10 ms met over a 50 ms window:\n%s", card.Report())
	}
}
