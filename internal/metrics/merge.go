// Fleet rollup: merging per-shard PipelineSnapshots into one
// FleetSnapshot. Counters, queue depths and gauges add across shards;
// stage summaries merge with exact counts and weighted statistics;
// per-shard spans stay on their shard so the trace export can give
// every shard its own process track.

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

// MergeSummaries combines two stage summaries. Count is exact (the sum
// — the conservation property the fleet tests assert), Mean is the
// count-weighted mean, Min/Max are true extremes, and the percentiles
// and standard deviation are count-weighted estimates: without the raw
// samples a merged p95 cannot be exact, so the rollup is honest about
// being an approximation (docs/METRICS.md).
func MergeSummaries(a, b Summary) Summary {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	n := a.Count + b.Count
	wa, wb := float64(a.Count)/float64(n), float64(b.Count)/float64(n)
	mean := wa*a.Mean + wb*b.Mean
	// Pooled population variance from per-summary moments:
	// E[x²] = stddev² + mean², merged var = E[x²]_merged − mean².
	ex2 := wa*(a.StdDevPopulationEst*a.StdDevPopulationEst+a.Mean*a.Mean) +
		wb*(b.StdDevPopulationEst*b.StdDevPopulationEst+b.Mean*b.Mean)
	variance := ex2 - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		Count:               n,
		Mean:                mean,
		P50:                 wa*a.P50 + wb*b.P50,
		P95:                 wa*a.P95 + wb*b.P95,
		P99:                 wa*a.P99 + wb*b.P99,
		Min:                 math.Min(a.Min, b.Min),
		Max:                 math.Max(a.Max, b.Max),
		StdDevPopulationEst: math.Sqrt(variance),
	}
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
