// Fleet rollup: merging per-shard PipelineSnapshots into one
// FleetSnapshot. Counters, queue depths and gauges add across shards;
// stage summaries add their bucket counts (MergeSummaries); per-shard
// spans stay on their shard so the trace export can give every shard
// its own process track.

package metrics

import (
	"encoding/json"
	"math"
	"sort"
	"time"
)

// FleetSnapshot is the unified telemetry view of a sharded fleet: the
// per-shard snapshots in shard order, plus their rollup. Shards holds
// exactly what each shard's registry reported (nil entries for shards
// without telemetry); Total is MergeSnapshots over the non-nil ones.
type FleetSnapshot struct {
	TakenAt time.Time           `json:"taken_at"`
	Shards  []*PipelineSnapshot `json:"shards"`
	Total   *PipelineSnapshot   `json:"total"`
}

// JSON renders the fleet snapshot as indented JSON — the
// /metrics.json payload of a sharded dlserve.
func (f *FleetSnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}

// MergeSummaries combines two stage summaries: counts and bucket counts
// add, Min and Max are the true extremes, Mean is the count-weighted
// mean, and the percentiles are re-ranked over the summed buckets — the
// summary of the union, within the one histogram's 2⁻⁵ bound.
func MergeSummaries(a, b Summary) Summary {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	first := min(a.first, b.first)
	counts := make([]uint64, max(a.first+len(a.counts), b.first+len(b.counts))-first)
	for i, c := range a.counts {
		counts[a.first-first+i] += c
	}
	for i, c := range b.counts {
		counts[b.first-first+i] += c
	}
	n := a.Count + b.Count
	mean := (a.Mean*float64(a.Count) + b.Mean*float64(b.Count)) / float64(n)
	return newSummary(n, mean, math.Min(a.Min, b.Min), math.Max(a.Max, b.Max), first, counts)
}

// MergeSnapshots rolls per-shard snapshots up into a FleetSnapshot.
// Counters sum (conservation: no image, retry or shed is counted twice
// or dropped), queue depths sum len and cap, gauges sum (so the
// `degraded` gauge of the rollup counts degraded shards), stage
// summaries merge via MergeSummaries, and events interleave in time
// order. Recent spans are not merged into Total — they stay on their
// shard so the trace export can render one process track per shard.
// Nil entries (shards without telemetry) are skipped.
func MergeSnapshots(shards []*PipelineSnapshot) *FleetSnapshot {
	f := &FleetSnapshot{
		Shards: shards,
		Total: &PipelineSnapshot{
			Counters: make(map[string]int64),
			Gauges:   make(map[string]float64),
			Stages:   make(map[string]Summary),
			Queues:   make(map[string]QueueDepth),
		},
	}
	t := f.Total
	for _, s := range shards {
		if s == nil {
			continue
		}
		if s.TakenAt.After(f.TakenAt) {
			f.TakenAt = s.TakenAt
		}
		if s.UptimeSeconds > t.UptimeSeconds {
			t.UptimeSeconds = s.UptimeSeconds
		}
		for k, v := range s.Counters {
			t.Counters[k] += v
		}
		for k, v := range s.Gauges {
			t.Gauges[k] += v
		}
		for k, v := range s.Stages {
			t.Stages[k] = MergeSummaries(t.Stages[k], v)
		}
		for k, q := range s.Queues {
			cur := t.Queues[k]
			t.Queues[k] = QueueDepth{Len: cur.Len + q.Len, Cap: cur.Cap + q.Cap}
		}
		for k, v := range s.Cores {
			if t.Cores == nil {
				t.Cores = make(map[string]float64)
			}
			t.Cores[k] += v
		}
		t.Events = append(t.Events, s.Events...)
		t.SpansCompleted += s.SpansCompleted
	}
	t.TakenAt = f.TakenAt
	sort.SliceStable(t.Events, func(i, j int) bool { return t.Events[i].At.Before(t.Events[j].At) })
	return f
}
