package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// Reference values from Python: statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 30, 20, 50, 40, 70, 60}, 20, 60},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare = %v, want 1 (5.5/5.5)", got)
	}
}

// A neighbour that slows a third of the windows must not move the
// reported value, on either kind of metric; nor may one lucky window.
func TestGoodSideIgnoresSlowedWindowsAndOneLuckyOne(t *testing.T) {
	quiet := make([]float64, 41)
	for i := range quiet {
		quiet[i] = 100
	}
	disturbed := append([]float64(nil), quiet...)
	for i := 0; i < len(disturbed); i += 3 {
		disturbed[i] = 60
	}
	disturbed[1] = 140
	if a, b := goodSide(quiet, "higher"), goodSide(disturbed, "higher"); math.Abs(a-100) > 1e-9 || math.Abs(b-100) > 1e-9 {
		t.Errorf("rate: quiet %v, disturbed %v; want 100 both", a, b)
	}
	for i := range disturbed {
		disturbed[i] = 200 - disturbed[i] // a cost: slowed reads high, lucky low
	}
	if a, b := goodSide(quiet, "lower"), goodSide(disturbed, "lower"); math.Abs(a-100) > 1e-9 || math.Abs(b-100) > 1e-9 {
		t.Errorf("cost: quiet %v, disturbed %v; want 100 both", a, b)
	}
	// Python: statistics.quantiles(range(1, 22), n=20, method='inclusive')[18] == 20.0
	ramp := make([]float64, 21)
	for i := range ramp {
		ramp[i] = float64(21 - i)
	}
	if got := goodSide(ramp, "higher"); math.Abs(got-20) > 1e-12 {
		t.Errorf("goodSide(21..1, higher) = %v, want 20", got)
	}
	if got := goodSide(ramp, "lower"); math.Abs(got-2) > 1e-12 {
		t.Errorf("goodSide(21..1, lower) = %v, want 2", got)
	}
	if got := goodSide([]float64{7}, "lower"); got != 7 {
		t.Errorf("goodSide of one sample = %v, want 7", got)
	}
}

// A window closes at the first delivery after windowLength and counts
// exactly the images delivered since it opened; the open remainder of a
// repeat yields none.
func TestWindowerClosesAtADelivery(t *testing.T) {
	var w windower
	w.start(readUsage())
	w.deliver(32)
	if len(w.out) != 0 {
		t.Fatalf("window closed after %v", time.Since(w.open.at))
	}
	time.Sleep(windowLength)
	w.deliver(32)
	w.deliver(32) // opens the next window, which never fills
	if len(w.out) != 1 {
		t.Fatalf("%d windows, want 1", len(w.out))
	}
	lo, hi := 64/(windowLength.Seconds()+0.2), 64/windowLength.Seconds()
	if got := w.out[0].imagesPerS; got < lo || got > hi {
		t.Errorf("window rate %v, want 64 images over a little more than %v", got, windowLength)
	}
	if w.images != 32 {
		t.Errorf("open window holds %d images, want 32", w.images)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 0.95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := percentile(s, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.50}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {857, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPoissonScheduleIsSeedDeterministic(t *testing.T) {
	a, b := poissonSchedule(42, 1500, 300), poissonSchedule(42, 1500, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(43, 1500, 300)) {
		t.Fatal("different seeds gave the same schedule")
	}
	span := 5 * time.Second
	for i, d := range a {
		if d < 0 || d >= span || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v: outside [0, %v) or out of order", i, d, span)
		}
	}
	// Poisson gaps are exponential: their standard deviation is about
	// their mean, unlike a metronome's zero.
	mean := float64(span) / 1500
	var ss float64
	for i := 1; i < len(a); i++ {
		g := float64(a[i]-a[i-1]) - mean
		ss += g * g
	}
	if cv := math.Sqrt(ss/float64(len(a)-1)) / mean; cv < 0.8 || cv > 1.2 {
		t.Errorf("gap coefficient of variation %.2f, want about 1", cv)
	}
}

// A sink that stalls on one request delays the generator for those due
// during the stall. Timed from their due times, they are charged the
// stall; timed from their actual submit they would look fast — the
// omission the open loop exists to avoid.
func TestStallIsChargedToQueuedRequests(t *testing.T) {
	const n, gap, stall = 10, 2 * time.Millisecond, 40 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	late := make([]time.Duration, n)
	done := make([]time.Duration, n)
	start := time.Now()
	openLoop(start, due, late, func(i int) {
		if i == 2 {
			time.Sleep(stall)
		}
		done[i] = time.Since(start)
	})
	for i := 0; i < 2; i++ {
		if lat := done[i] - due[i]; lat > stall/2 {
			t.Errorf("request %d before the stall has latency %v", i, lat)
		}
	}
	// Requests 3..9 were all due inside the stall window.
	for i := 3; i < n; i++ {
		want := stall - (due[i] - due[2])
		if lat := done[i] - due[i]; lat < want {
			t.Errorf("request %d: latency from due time %v, want at least %v (the rest of the stall)", i, lat, want)
		}
		if late[i] < want {
			t.Errorf("request %d: generator lateness %v not reported (want at least %v)", i, late[i], want)
		}
	}
}

func TestItemLogCountsMissingDuplicateAndBad(t *testing.T) {
	l := newItemLog(4)
	l.deliver(0, 1, true)
	l.deliver(1, 1, true)
	l.deliver(1, 2, true)  // duplicate
	l.deliver(2, 1, false) // wrong label or invalid slot
	// 3 never arrives
	l.deliver(9, 1, true) // stray sequence number
	failed, lat := l.settle(4, 1)
	if failed != 4 {
		t.Errorf("failed = %d, want 4 (duplicate, bad, missing, stray)", failed)
	}
	if len(lat) != 3 {
		t.Errorf("%d latencies, want 3", len(lat))
	}
	if failed, _ := newItemLog(2).settle(2, 1); failed != 2 {
		t.Errorf("empty log: failed = %d, want 2", failed)
	}
	// A delivery beyond what was offered is a failure, not a bonus.
	l = newItemLog(4)
	l.deliver(0, 1, true)
	l.deliver(3, 1, true)
	if failed, _ := l.settle(1, 1); failed != 1 {
		t.Errorf("delivery beyond the offered items: failed = %d, want 1", failed)
	}
}

// The closed-loop generator may only stop where every corpus image has
// been offered an odd number of times, or the XOR digest would be blind
// to a consistently wrong image.
func TestCollectorStopsOnOddCorpusMultiple(t *testing.T) {
	c := &corpus{jpegs: make([][]byte, corpusImages), labels: make([]int, corpusImages), digests: make([]uint64, corpusImages)}
	for i := range c.digests {
		c.digests[i] = uint64(i+1) * 0x9E3779B97F4A7C15
	}
	for _, p := range []plan{
		{length: 0, maxItems: closedLoopMaxItems},                    // deadline already passed
		{length: 3 * time.Millisecond, maxItems: closedLoopMaxItems}, // deadline mid-way
		{length: time.Hour, maxItems: 7 * corpusImages},              // cap reached first
	} {
		col := &stampCollector{c: c, log: newItemLog(p.maxItems), start: time.Now(), p: p}
		n := 0
		for {
			if _, ok := col.Next(); !ok {
				break
			}
			n++
			if n%100 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
		if n == 0 || n%corpusImages != 0 || (n/corpusImages)%2 != 1 {
			t.Errorf("plan %+v: stopped after %d items, want an odd multiple of %d", p, n, corpusImages)
		}
		if c.expectedXOR(n, 1) != c.expectedXOR(corpusImages, 1) || c.expectedXOR(n, 41) == 0 {
			t.Errorf("plan %+v: %d items do not digest like one corpus pass", p, n)
		}
	}
	fixed := &stampCollector{c: c, log: newItemLog(replayCaptureItems), start: time.Now(), fixed: replayCaptureItems}
	n := 0
	for _, ok := fixed.Next(); ok; _, ok = fixed.Next() {
		n++
	}
	if n != replayCaptureItems {
		t.Errorf("fixed collector offered %d items, want %d", n, replayCaptureItems)
	}
}

// BENCHMARK.json is read by the driver, the tables in metrics.go and
// workloads.go by the program; they must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, table has %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, table has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the table's %v", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
