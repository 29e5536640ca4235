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
	"testing"
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
			s.Stages[n] = Summary{
				Count: 1 + rng.Intn(500), Mean: mean,
				P50: mean, P95: mean * 2, P99: mean * 3,
				Min: mean / 2, Max: mean * 4,
				StdDevPopulationEst: rng.Float64() * 2,
			}
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
	a := Summary{Count: 10, Mean: 2, P50: 2, P95: 4, P99: 5, Min: 1, Max: 6, StdDevPopulationEst: 1}
	b := Summary{Count: 30, Mean: 6, P50: 6, P95: 8, P99: 9, Min: 3, Max: 20, StdDevPopulationEst: 2}
	m := MergeSummaries(a, b)
	if m.Count != 40 {
		t.Fatalf("count %d", m.Count)
	}
	if want := 0.25*2 + 0.75*6; math.Abs(m.Mean-want) > 1e-9 {
		t.Fatalf("mean %v, want %v", m.Mean, want)
	}
	if m.Min != 1 || m.Max != 20 {
		t.Fatalf("extremes %v..%v", m.Min, m.Max)
	}
	if m.P95 <= a.P95 || m.P95 >= b.P95+1 {
		t.Fatalf("merged p95 %v out of plausible range", m.P95)
	}
	// Merging with an empty summary is the identity.
	if got := MergeSummaries(a, Summary{}); got != a {
		t.Fatalf("identity merge: %+v", got)
	}
	if got := MergeSummaries(Summary{}, b); got != b {
		t.Fatalf("identity merge: %+v", got)
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
