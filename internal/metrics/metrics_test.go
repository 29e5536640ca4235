package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(4)
	if c.Value() != 7 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("Value = %d", c.Value())
	}
}

// Percentile reads one nearest-rank percentile (0 ≤ p ≤ 100) of the
// histogram by the same bucket walk Summarize takes; tests only.
func (h *Histogram) Percentile(p float64) float64 { return h.Summarize().percentile(p) }

// summaryOf summarises n observations through a Histogram, the i-th at
// vals[i%len(vals)] — so summaryOf(n, …) is a prefix of summaryOf(m, …)
// for n ≤ m, and a fixture series of cumulative summaries subtracts
// cleanly.
func summaryOf(n int, vals ...float64) Summary {
	var h Histogram
	for i := 0; i < n; i++ {
		h.Add(vals[i%len(vals)])
	}
	return h.Summarize()
}

// within reports whether got is within 2⁻⁵ relative of want — the
// bucket histogram's resolution.
func within(got, want float64) bool { return math.Abs(got-want) <= math.Abs(want)/32 }

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if s := h.Summarize(); !reflect.DeepEqual(s, Summary{}) {
		t.Fatalf("empty histogram summary = %+v, want zeros", s)
	}
	if h.Percentile(50) != 0 {
		t.Fatal("empty histogram percentile != 0")
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Add(v)
	}
	s := h.Summarize()
	// Count, Mean, Min and Max are exact; percentiles are bucket
	// midpoints within 2⁻⁵ of the nearest-rank sample.
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if !within(s.P50, 3) {
		t.Fatalf("P50 = %v, want 3 within 2⁻⁵", s.P50)
	}
	if p := h.Percentile(100); p != 5 {
		t.Fatalf("P100 = %v, want the max 5", p)
	}
}

func TestHistogramAddAfterPercentile(t *testing.T) {
	var h Histogram
	h.Add(10)
	_ = h.Summarize()
	h.Add(1) // a later Add shows in the next summary
	if s := h.Summarize(); s.Min != 1 || s.Count != 2 {
		t.Fatalf("summary after late Add = %+v", s)
	}
}

func TestSummary(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	s := h.Summarize()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 || s.Mean != 50.5 {
		t.Fatalf("summary = %+v", s)
	}
	if !within(s.P50, 50) || !within(s.P95, 95) || !within(s.P99, 99) {
		t.Fatalf("percentiles = %v/%v/%v, want 50/95/99 within 2⁻⁵", s.P50, s.P95, s.P99)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// exactPercentile is the nearest-rank percentile of sorted values.
func exactPercentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// TestHistogramAccuracy: on values spread log-uniformly over the
// bucketed range [2⁻¹⁰, 2²⁰) ms, every reported percentile is within
// 2⁻⁵ relative of the exact nearest-rank value.
func TestHistogramAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		vals := make([]float64, 1+rng.Intn(2000))
		var h Histogram
		for i := range vals {
			vals[i] = math.Exp2(-10 + 30*rng.Float64())
			h.Add(vals[i])
		}
		sort.Float64s(vals)
		s := h.Summarize()
		for _, c := range []struct{ p, got float64 }{{50, s.P50}, {95, s.P95}, {99, s.P99}} {
			if want := exactPercentile(vals, c.p); !within(c.got, want) {
				t.Fatalf("iter %d: p%v = %v, exact %v (n=%d)", iter, c.p, c.got, want, len(vals))
			}
		}
		for p := 0.0; p <= 100; p += 2.5 {
			if got, want := h.Percentile(p), exactPercentile(vals, p); !within(got, want) {
				t.Fatalf("iter %d: p%v = %v, exact %v", iter, p, got, want)
			}
		}
	}
}

// TestHistogramBucketEdges: every bucket's lower edge lands in that
// bucket and the value just below it in the one before.
func TestHistogramBucketEdges(t *testing.T) {
	for i := 1; i < histBuckets; i++ {
		lo := bucketLow(i)
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(%v) = %d, want %d", lo, got, i)
		}
		if got := bucketOf(math.Nextafter(lo, 0)); got != i-1 {
			t.Fatalf("bucketOf(just below %v) = %d, want %d", lo, got, i-1)
		}
	}
	if bucketOf(0) != 0 || bucketOf(-1) != 0 || bucketOf(math.NaN()) != 0 || bucketOf(math.Inf(1)) != histBuckets-1 {
		t.Fatal("out-of-range values must land in the under- and overflow buckets")
	}
}

// TestHistogramBoundedHeap pins the constant-memory contract: a
// Histogram retains the same heap after 10⁶ Adds as after 10³.
func TestHistogramBoundedHeap(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	h := new(Histogram)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i % 97))
	}
	before := heap()
	for i := 0; i < 1_000_000; i++ {
		h.Add(float64(i % 97))
	}
	after := heap()
	if s := h.Summarize(); s.Count != 1_001_000 {
		t.Fatalf("count = %d", s.Count)
	}
	// A sample-keeping histogram would have grown by ≥ 8 MB here.
	if after > before+64<<10 {
		t.Fatalf("heap grew %d B over 10⁶ Adds, want constant", after-before)
	}
	runtime.KeepAlive(h)
}

// TestPercentileProperty: percentiles are monotone in p and bounded by
// min/max.
func TestPercentileProperty(t *testing.T) {
	f := func(vals []float64, pa, pb uint8) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		var h Histogram
		for _, v := range vals {
			h.Add(v)
		}
		lo, hi := float64(pa%101), float64(pb%101)
		if lo > hi {
			lo, hi = hi, lo
		}
		plo, phi := h.Percentile(lo), h.Percentile(hi)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return plo <= phi && plo >= sorted[0] && phi <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBusyTracker(t *testing.T) {
	b := NewBusyTracker()
	b.Record("preprocess", 3)
	b.Record("preprocess", 1)
	b.Record("kernels", 9.5)
	if b.Busy("preprocess") != 4 {
		t.Fatalf("Busy = %v", b.Busy("preprocess"))
	}
	cores := b.Cores(10)
	if cores["preprocess"] != 0.4 || cores["kernels"] != 0.95 {
		t.Fatalf("Cores = %v", cores)
	}
	if total := b.TotalCores(10); math.Abs(total-1.35) > 1e-12 {
		t.Fatalf("TotalCores = %v", total)
	}
	if c := b.Cores(0); c["preprocess"] != 0 {
		t.Fatalf("Cores(0) = %v", c)
	}
}

func TestBusyTrackerRejectsNegative(t *testing.T) {
	b := NewBusyTracker()
	defer func() {
		if recover() == nil {
			t.Fatal("negative busy time accepted")
		}
	}()
	b.Record("x", -1)
}

func TestBusyTrackerConcurrent(t *testing.T) {
	b := NewBusyTracker()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				b.Record("c", 0.001)
			}
		}()
	}
	wg.Wait()
	if got := b.Busy("c"); math.Abs(got-8) > 1e-9 {
		t.Fatalf("Busy = %v, want 8", got)
	}
}
