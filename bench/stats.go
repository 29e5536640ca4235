package main

import (
	"math/rand"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), because
// that is the spread the benchmark contract judges a metric by. Fewer
// than two values have no spread: both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, m := len(s), len(s)+1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// iqrShare is the inter-quartile distance as a share of the median —
// the run-to-run spread the contract compares against a metric's bound.
func iqrShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// goodShare is where in a timed metric's samples the reported value sits,
// counted from the bad side.
const goodShare = 0.95

// goodSide is how a timed metric's samples (windows, or repeats where a
// repeat yields one figure) are summarised: the quantile goodShare of the
// way to the metric's good side — high for a rate, low for a cost. On a
// shared box a neighbour only ever slows the program down, never speeds
// it up, and does so for a second or for a minute at a time; the mean and
// the median move with the share of the run the neighbour took, while the
// samples it left alone keep reading the same. Stopping short of the best
// sample ignores one lucky window.
func goodSide(xs []float64, better string) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := goodShare
	if better != "higher" {
		p = 1 - goodShare
	}
	at := p * float64(len(s)-1)
	i := int(at)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := at - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending-sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailPerMille are the tail percentiles the bench knows how to name, in
// thousandths so that the ten-sample rule is exact integer arithmetic.
var tailPerMille = []int{500, 900, 950, 990, 999}

// supportedTail returns the highest percentile of tailPerMille that
// still has at least ten samples beyond it in a sample of n — a tail
// estimated from fewer is noise (choosing-metrics §1). 0 means not even
// the median qualifies.
func supportedTail(n int) float64 {
	best := 0.0
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			best = float64(pm) / 1000
		}
	}
	return best
}

// poissonSchedule returns the due offsets of n arrivals of a Poisson
// process of the given rate, conditioned on exactly n arrivals falling
// in [0, n/rate): by the order-statistics property those are n sorted
// uniform draws. Fixing the count fixes the repeat's length and its
// request total, so repeats differ only in where the bursts fall.
// Same seed, same schedule.
func poissonSchedule(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	span := float64(n) / rate * float64(time.Second)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * span)
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	return due
}

// openLoop submits request i at start+due[i] regardless of how the
// previous submit went, from the calling goroutine. A submit that
// blocks makes the generator late for the requests behind it; late[i]
// records by how much, and because latency is later taken from the due
// time, not from the actual submit, that delay is charged to those
// requests instead of vanishing (coordinated omission).
func openLoop(start time.Time, due []time.Duration, late []time.Duration, submit func(i int)) {
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if l := time.Since(start) - d; l > 0 {
			late[i] = l
		}
		submit(i)
	}
}

// sortedMs converts durations to ascending milliseconds.
func sortedMs(ns []time.Duration) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}
