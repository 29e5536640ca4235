// Go runtime health gauges sampled via runtime/metrics: goroutine
// count, heap bytes, GC pause p99 and scheduler latency p99, registered
// as pull-based gauges so they land in PipelineSnapshot (and therefore
// in the Prometheus, JSON and history renderings) with zero hot-path
// cost — the runtime/metrics reads happen only at snapshot time. These
// are process-wide numbers: in a fleet, register them on exactly one
// shard's registry or the rollup sums them ×N (the same caveat
// docs/METRICS.md documents for shared-cache counters).

package metrics

import (
	rtmetrics "runtime/metrics"
)

// Runtime gauge names, as they appear in PipelineSnapshot.Gauges.
const (
	// GaugeGoroutines is the live goroutine count
	// (/sched/goroutines:goroutines).
	GaugeGoroutines = "go_goroutines"
	// GaugeHeapBytes is the live heap object bytes
	// (/memory/classes/heap/objects:bytes).
	GaugeHeapBytes = "go_heap_bytes"
	// GaugeGCPauseP99Ms is the p99 stop-the-world GC pause in
	// milliseconds (/gc/pauses:seconds distribution).
	GaugeGCPauseP99Ms = "go_gc_pause_p99_ms"
	// GaugeSchedLatencyP99Ms is the p99 goroutine scheduling latency in
	// milliseconds (/sched/latencies:seconds distribution).
	GaugeSchedLatencyP99Ms = "go_sched_latency_p99_ms"
)

// runtimeSamples maps the gauges to their runtime/metrics sample names.
var runtimeSamples = []struct {
	gauge, sample string
	histP99Ms     bool
}{
	{GaugeGoroutines, "/sched/goroutines:goroutines", false},
	{GaugeHeapBytes, "/memory/classes/heap/objects:bytes", false},
	{GaugeGCPauseP99Ms, "/gc/pauses:seconds", true},
	{GaugeSchedLatencyP99Ms, "/sched/latencies:seconds", true},
}

// RegisterRuntimeGauges registers the Go runtime health gauges on the
// registry. Each snapshot re-reads runtime/metrics; nothing touches the
// pipeline hot path. Safe on a nil registry (no-op). Register on one
// registry per process — these are process-wide values, and per-shard
// registration would sum them ×N in the fleet rollup.
func RegisterRuntimeGauges(r *Registry) {
	if r == nil {
		return
	}
	for _, rs := range runtimeSamples {
		rs := rs
		sample := make([]rtmetrics.Sample, 1)
		sample[0].Name = rs.sample
		r.RegisterGauge(rs.gauge, func() float64 {
			rtmetrics.Read(sample)
			v := sample[0].Value
			switch v.Kind() {
			case rtmetrics.KindUint64:
				return float64(v.Uint64())
			case rtmetrics.KindFloat64:
				return v.Float64()
			case rtmetrics.KindFloat64Histogram:
				if rs.histP99Ms {
					return histP99(v.Float64Histogram()) * 1000
				}
			}
			return 0
		})
	}
}

// histP99 reads the 99th percentile of a runtime/metrics
// Float64Histogram by the package's nearest-rank walk (rankBucket) and
// returns the lower bound of the bucket it lands in, floored at 0 (0
// for an empty histogram).
func histP99(h *rtmetrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	i := rankBucket(h.Counts, 99)
	if i < 0 {
		return 0
	}
	return max(h.Buckets[i], 0)
}
