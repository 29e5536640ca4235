package metrics

// Fleet rollup tests. The centrepiece is the counter-conservation
// property test — for random per-shard snapshots the FleetSnapshot
// totals must equal the sum of the shard counters, and merged stage
// histogram counts must equal the sum of the per-shard counts — the
// fleet-level sibling of the span-conservation family in
// internal/core/snapshot_test.go.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// randomSnapshot builds one plausible per-shard snapshot from the
// shared name pools, so merges exercise overlapping and disjoint keys.
func randomSnapshot(rng *rand.Rand) *PipelineSnapshot {
	counterNames := []string{
		"images_decoded_total", "decode_errors_total", "serve_shed_total",
		"batches_published_total", "fleet_steals_total",
	}
	stageNames := []string{StageFPGADecode, StageCopySync, StageBatchE2E}
	queueNames := []string{"ingest_items", "full_batch"}
	s := &PipelineSnapshot{
		TakenAt:       time.Unix(1700000000+rng.Int63n(1000), 0),
		UptimeSeconds: rng.Float64() * 100,
		Counters:      make(map[string]int64),
		Gauges:        make(map[string]float64),
		Stages:        make(map[string]Summary),
		Queues:        make(map[string]QueueDepth),
	}
	for _, n := range counterNames {
		if rng.Intn(4) > 0 {
			s.Counters[n] = rng.Int63n(10000)
		}
	}
	for _, n := range stageNames {
		if rng.Intn(4) > 0 {
			mean := rng.Float64() * 10
			s.Stages[n] = summaryOf(1+rng.Intn(500), mean/2, mean, mean*1.5)
		}
	}
	for _, n := range queueNames {
		capacity := 1 + rng.Intn(64)
		s.Queues[n] = QueueDepth{Len: rng.Intn(capacity + 1), Cap: capacity}
	}
	s.Gauges["degraded"] = float64(rng.Intn(2))
	s.SpansCompleted = rng.Int63n(100)
	return s
}

func TestFleetCounterConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(6)
		shards := make([]*PipelineSnapshot, n)
		for i := range shards {
			if rng.Intn(8) == 0 {
				continue // a shard without telemetry merges as absent
			}
			shards[i] = randomSnapshot(rng)
		}
		f := MergeSnapshots(shards)

		wantCounters := make(map[string]int64)
		wantStageCounts := make(map[string]int)
		wantQueues := make(map[string]QueueDepth)
		var wantSpans int64
		var wantDegraded float64
		for _, s := range shards {
			if s == nil {
				continue
			}
			for k, v := range s.Counters {
				wantCounters[k] += v
			}
			for k, v := range s.Stages {
				wantStageCounts[k] += v.Count
			}
			for k, q := range s.Queues {
				cur := wantQueues[k]
				wantQueues[k] = QueueDepth{Len: cur.Len + q.Len, Cap: cur.Cap + q.Cap}
			}
			wantSpans += s.SpansCompleted
			wantDegraded += s.Gauges["degraded"]
		}
		if len(f.Total.Counters) != len(wantCounters) {
			t.Fatalf("iter %d: %d counters, want %d", iter, len(f.Total.Counters), len(wantCounters))
		}
		for k, want := range wantCounters {
			if got := f.Total.Counters[k]; got != want {
				t.Fatalf("iter %d: counter %s = %d, want sum %d", iter, k, got, want)
			}
		}
		for k, want := range wantStageCounts {
			if got := f.Total.Stages[k].Count; got != want {
				t.Fatalf("iter %d: stage %s count = %d, want sum %d", iter, k, got, want)
			}
		}
		for k, want := range wantQueues {
			if got := f.Total.Queues[k]; got != want {
				t.Fatalf("iter %d: queue %s = %+v, want %+v", iter, k, got, want)
			}
		}
		if f.Total.SpansCompleted != wantSpans {
			t.Fatalf("iter %d: spans %d, want %d", iter, f.Total.SpansCompleted, wantSpans)
		}
		if f.Total.Gauges["degraded"] != wantDegraded {
			t.Fatalf("iter %d: degraded gauge %v, want %v (count of degraded shards)",
				iter, f.Total.Gauges["degraded"], wantDegraded)
		}
	}
}

func TestMergeSummariesStatistics(t *testing.T) {
	a, b := summaryOf(10, 1, 3), summaryOf(30, 3, 9)
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Add([]float64{1, 3}[i%2])
	}
	for i := 0; i < 30; i++ {
		h.Add([]float64{3, 9}[i%2])
	}
	union := h.Summarize()
	m := MergeSummaries(a, b)
	if m.Count != 40 {
		t.Fatalf("count %d", m.Count)
	}
	if want := 0.25*2 + 0.75*6; math.Abs(m.Mean-want) > 1e-9 {
		t.Fatalf("mean %v, want %v", m.Mean, want)
	}
	if m.Min != 1 || m.Max != 9 {
		t.Fatalf("extremes %v..%v", m.Min, m.Max)
	}
	// The merged percentiles are the union's: 15 of the 40 samples are
	// 9, so p95 is 9 — a blend of a's 3 and b's 9 would not be.
	if m.P50 != union.P50 || m.P95 != union.P95 || m.P99 != union.P99 || m.P95 != 9 {
		t.Fatalf("merged percentiles %v/%v/%v, union's %v/%v/%v",
			m.P50, m.P95, m.P99, union.P50, union.P95, union.P99)
	}
	// Merging with an empty summary is the identity.
	if got := MergeSummaries(a, Summary{}); !reflect.DeepEqual(got, a) {
		t.Fatalf("identity merge: %+v", got)
	}
	if got := MergeSummaries(Summary{}, b); !reflect.DeepEqual(got, b) {
		t.Fatalf("identity merge: %+v", got)
	}
}

// TestMergeSummariesTail: shard A holds 99 samples at 1 ms and one at
// 100 ms, shard B 100 at 100 ms. Half of the 200 samples and more are
// at 100 ms, so the fleet p50 and p95 are 100 — a count-weighted blend
// of the shards' percentiles read 50.5.
func TestMergeSummariesTail(t *testing.T) {
	var a Histogram
	for i := 0; i < 99; i++ {
		a.Add(1)
	}
	a.Add(100)
	m := MergeSummaries(a.Summarize(), summaryOf(100, 100))
	if !within(m.P50, 100) || !within(m.P95, 100) || !within(m.P99, 100) {
		t.Fatalf("merged p50/p95/p99 = %v/%v/%v, want 100 within 2⁻⁵", m.P50, m.P95, m.P99)
	}
}

// latencyOf maps a random uint32 onto [2⁻¹², 2²²) ms log-uniformly, so
// random sample sets reach both the under- and overflow buckets.
func latencyOf(x uint32) float64 { return math.Exp2(-12 + 34*float64(x)/(1<<32)) }

// TestSummaryAlgebra is the exactness property of the bucket summary:
// for random sample sets A and B, merging S(A) and S(B) gives S(A∪B),
// and subtracting the cumulative S(A) from S(A then B) gives B's bucket
// counts and B's percentiles.
func TestSummaryAlgebra(t *testing.T) {
	f := func(ra, rb []uint32) bool {
		var ha, hb, hab Histogram
		var b []float64
		for _, x := range ra {
			ha.Add(latencyOf(x))
			hab.Add(latencyOf(x))
		}
		sa := ha.Summarize()
		for _, x := range rb {
			b = append(b, latencyOf(x))
			hb.Add(b[len(b)-1])
			hab.Add(b[len(b)-1])
		}
		sb, sab := hb.Summarize(), hab.Summarize()

		m := MergeSummaries(sa, sb)
		if m.Count != sab.Count || m.Min != sab.Min || m.Max != sab.Max ||
			m.P50 != sab.P50 || m.P95 != sab.P95 || m.P99 != sab.P99 ||
			math.Abs(m.Mean-sab.Mean) > 1e-9*math.Abs(sab.Mean) {
			t.Logf("merge %+v, union %+v", m, sab)
			return false
		}

		iv := SubtractSummaries(sab, sa)
		if iv.Count != sb.Count || iv.first != sb.first || !reflect.DeepEqual(iv.counts, sb.counts) {
			t.Logf("interval %+v, B %+v", iv, sb)
			return false
		}
		if len(b) == 0 {
			return true
		}
		// The interval's extremes are bounded by its bucket edges, not
		// known exactly, so each percentile lies in B's bucket and reads
		// as B's once clamped to B's true extremes.
		sort.Float64s(b)
		clamp := func(v float64) float64 { return math.Min(math.Max(v, sb.Min), sb.Max) }
		for _, c := range []struct{ p, iv, b float64 }{{50, iv.P50, sb.P50}, {95, iv.P95, sb.P95}, {99, iv.P99, sb.P99}} {
			if clamp(c.iv) != c.b {
				t.Logf("interval p%v = %v, B's %v", c.p, c.iv, c.b)
				return false
			}
			if exact := exactPercentile(b, c.p); exact >= histLow && exact < histHigh && !within(c.iv, exact) {
				t.Logf("interval p%v = %v, exact %v", c.p, c.iv, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFleetTraceExportPerShardPids(t *testing.T) {
	now := time.Now()
	span := func(batch int) Span {
		return Span{Batch: batch, Collected: now, Published: now.Add(time.Millisecond),
			Dispatched: now.Add(2 * time.Millisecond), Synced: now.Add(3 * time.Millisecond),
			Recycled: now.Add(4 * time.Millisecond), Images: 8}
	}
	f := MergeSnapshots([]*PipelineSnapshot{
		{RecentSpans: []Span{span(1)}},
		{RecentSpans: []Span{span(2)}},
	})
	var buf bytes.Buffer
	if err := f.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		pids[e.PID] = true
		if e.Name == "process_name" {
			names[fmt.Sprint(e.Args["name"])] = true
		}
	}
	if !pids[1] || !pids[2] {
		t.Fatalf("expected shard pids 1 and 2, got %v", pids)
	}
	if !names["shard 0"] || !names["shard 1"] {
		t.Fatalf("process names: %v", names)
	}
}
