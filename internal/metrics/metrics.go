// Package metrics collects the three measurements the paper reports for
// every experiment: throughput (images/s), latency distributions (ms),
// and CPU cost in cores — the paper's "CPU cost (# cores)" is busy time
// divided by wall time, which BusyTracker computes for both wall-clock
// and virtual-time runs.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a concurrency-safe event counter.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Histogram bucket geometry: histSub linear sub-buckets per power of
// two over [2^histMinExp, 2^histMaxExp) ms, plus an underflow and an
// overflow bucket. A bucket's midpoint is within 2⁻⁵ relative of every
// value in it.
const (
	histSub     = 16
	histMinExp  = -10
	histMaxExp  = 20
	histBuckets = (histMaxExp-histMinExp)*histSub + 2
	histLow     = 1.0 / (1 << -histMinExp) // lowest bucketed value
	histHigh    = 1 << histMaxExp          // the overflow bucket's edge
)

// bucketOf returns the bucket index of v. Values below 2⁻¹⁰, and NaN,
// underflow; values from 2²⁰ on map to the overflow bucket's edge.
func bucketOf(v float64) int {
	if !(v >= histLow) {
		return 0
	}
	frac, exp := math.Frexp(math.Min(v, histHigh)) // frac ∈ [0.5, 1)
	return 1 + (exp-1-histMinExp)*histSub + int((2*frac-1)*histSub)
}

// bucketLow returns bucket i's inclusive lower edge, which is also
// bucket i−1's exclusive upper edge: −Inf for the underflow bucket,
// +Inf past the overflow bucket.
func bucketLow(i int) float64 {
	if i <= 0 || i >= histBuckets {
		return math.Inf(i - 1) // the sign of i−1 picks −Inf or +Inf
	}
	k := i - 1
	return math.Ldexp(1+float64(k%histSub)/histSub, histMinExp+k/histSub)
}

// rankBucket is the one nearest-rank walk behind every percentile in
// this package: the index of the bucket that holds the p-th percentile
// (0 ≤ p ≤ 100) of the samples counted in counts, or −1 when there are
// none.
func rankBucket(counts []uint64, p float64) int {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return -1
	}
	rank := min(max(uint64(math.Ceil(p/100*float64(total))), 1), total)
	var seen uint64
	for i, c := range counts {
		if seen += c; seen >= rank {
			return i
		}
	}
	return len(counts) - 1
}

// Histogram accumulates samples into fixed log-linear buckets, with
// exact count, sum, min and max: Add is O(1) in constant memory however
// many samples arrive. It is safe for concurrent use.
type Histogram struct {
	mu       sync.Mutex
	n        uint64
	sum      float64
	min, max float64
	counts   [histBuckets]uint64
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	i := bucketOf(v)
	h.mu.Lock()
	if h.n == 0 {
		h.min, h.max = v, v
	}
	h.min, h.max = math.Min(h.min, v), math.Max(h.max, v)
	h.n++
	h.sum += v
	h.counts[i]++
	h.mu.Unlock()
}

// Summary is a rendered snapshot of a histogram: exact Count and Mean,
// Min and Max (exact but for an interval's, see SubtractSummaries), and
// P50, P95 and P99 within 2⁻⁵ relative of the exact nearest-rank
// values. It carries the counts of its occupied bucket span
// (unexported, not serialised), which merges, intervals and windows add
// and subtract before they re-rank.
type Summary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`

	first  int      // bucket index of counts[0]
	counts []uint64 // occupied bucket span
}

// Summarize returns the standard report for a latency distribution,
// taken under one lock so every field describes the same samples.
func (h *Histogram) Summarize() Summary {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return Summary{}
	}
	return newSummary(int(h.n), h.sum/float64(h.n), h.min, h.max, 0, h.counts[:])
}

// newSummary builds a Summary over a copy of counts (bucket index first
// at counts[0]) trimmed to its occupied span, clamps lo and hi to the
// span's edges (a no-op for true extremes, a bound for an interval's),
// and ranks it.
func newSummary(n int, mean, lo, hi float64, first int, counts []uint64) Summary {
	a, b := 0, len(counts)
	for a < b && counts[a] == 0 {
		a++
	}
	for b > a && counts[b-1] == 0 {
		b--
	}
	s := Summary{Count: n, Mean: mean, first: first + a, counts: append([]uint64(nil), counts[a:b]...),
		Min: math.Max(lo, bucketLow(first+a)), Max: math.Min(hi, bucketLow(first+b))}
	s.P50, s.P95, s.P99 = s.percentile(50), s.percentile(95), s.percentile(99)
	return s
}

// percentile is the nearest-rank p-th percentile: the midpoint of the
// bucket rankBucket picks, clamped to [Min, Max] (the under- and
// overflow buckets' ±Inf midpoints read as Min and Max). 0 without
// bucket counts.
func (s Summary) percentile(p float64) float64 {
	i := rankBucket(s.counts, p)
	if i < 0 {
		return 0
	}
	mid := (bucketLow(s.first+i) + bucketLow(s.first+i+1)) / 2
	return math.Min(math.Max(mid, s.Min), s.Max)
}

// String renders the summary for harness output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f min=%.3f max=%.3f",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Min, s.Max)
}

// Event is one timestamped state change worth reporting alongside the
// numeric metrics — a degraded-mode switch, a device replacement, a
// fault window opening or closing.
type Event struct {
	Name   string    `json:"name"`
	Detail string    `json:"detail"`
	At     time.Time `json:"at"`
}

// EventLog is a concurrency-safe append-only record of Events. The
// pipeline records mode switches here (the FPGA→CPU fallback of the
// failure model) so experiments and tests can assert not just *that*
// throughput held but *why*.
type EventLog struct {
	mu     sync.Mutex
	events []Event
}

// Record appends an event stamped now.
func (l *EventLog) Record(name, detail string) {
	l.mu.Lock()
	l.events = append(l.events, Event{Name: name, Detail: detail, At: time.Now()})
	l.mu.Unlock()
}

// Events returns a snapshot of the log in record order.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Count returns the number of recorded events with the given name.
func (l *EventLog) Count(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Name == name {
			n++
		}
	}
	return n
}

// BusyTracker accumulates per-component busy seconds. Dividing by elapsed
// wall (or virtual) seconds yields the paper's cores-consumed metric,
// including the Figure 6(d) breakdown (preprocessing / transforming /
// launching kernels / updating model).
type BusyTracker struct {
	mu   sync.Mutex
	busy map[string]float64
}

// NewBusyTracker returns an empty tracker.
func NewBusyTracker() *BusyTracker {
	return &BusyTracker{busy: make(map[string]float64)}
}

// Record adds busy seconds to a component.
func (b *BusyTracker) Record(component string, seconds float64) {
	if seconds < 0 {
		panic("metrics: negative busy time")
	}
	b.mu.Lock()
	b.busy[component] += seconds
	b.mu.Unlock()
}

// Busy returns the accumulated busy seconds of a component.
func (b *BusyTracker) Busy(component string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.busy[component]
}

// Cores returns per-component cores consumed over the elapsed seconds.
func (b *BusyTracker) Cores(elapsedSeconds float64) map[string]float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]float64, len(b.busy))
	for k, v := range b.busy {
		if elapsedSeconds > 0 {
			out[k] = v / elapsedSeconds
		} else {
			out[k] = 0
		}
	}
	return out
}

// TotalCores returns the summed cores consumed across components.
func (b *BusyTracker) TotalCores(elapsedSeconds float64) float64 {
	var t float64
	for _, v := range b.Cores(elapsedSeconds) {
		t += v
	}
	return t
}
