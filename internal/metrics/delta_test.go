package metrics

import (
	"testing"
	"time"
)

// uptimeDelta diffs cur against prev over their uptime gap (the whole
// uptime when prev is nil).
func uptimeDelta(cur, prev *PipelineSnapshot) *SnapshotDelta {
	seconds := cur.UptimeSeconds
	if prev != nil {
		seconds -= prev.UptimeSeconds
	}
	return cur.Delta(prev, seconds)
}

func TestSnapshotDelta(t *testing.T) {
	t0 := time.Now()
	prev := &PipelineSnapshot{
		TakenAt:        t0,
		UptimeSeconds:  10,
		Counters:       map[string]int64{"images_decoded_total": 100, "decode_errors_total": 1},
		SpansCompleted: 10,
		Events:         []Event{{Name: "old", At: t0.Add(-time.Second)}},
	}
	cur := &PipelineSnapshot{
		TakenAt:        t0.Add(5 * time.Second),
		UptimeSeconds:  15,
		Counters:       map[string]int64{"images_decoded_total": 600, "decode_errors_total": 1, "new_counter": 3},
		SpansCompleted: 70,
		Events: []Event{
			{Name: "old", At: t0.Add(-time.Second)},
			{Name: "degraded", At: t0.Add(2 * time.Second)},
		},
	}
	d := uptimeDelta(cur, prev)
	if d.Seconds != 5 {
		t.Fatalf("Seconds = %v, want 5", d.Seconds)
	}
	if d.Counters["images_decoded_total"] != 500 || d.Counters["new_counter"] != 3 {
		t.Fatalf("counters = %v", d.Counters)
	}
	if d.Rate("images_decoded_total") != 100 {
		t.Fatalf("rate = %v, want 100", d.Rate("images_decoded_total"))
	}
	if d.SpansCompleted != 60 {
		t.Fatalf("SpansCompleted = %d, want 60", d.SpansCompleted)
	}
	if len(d.Events) != 1 || d.Events[0].Name != "degraded" {
		t.Fatalf("interval events = %v (want only the one after prev)", d.Events)
	}
}

func TestSnapshotDeltaNilPrev(t *testing.T) {
	cur := &PipelineSnapshot{
		UptimeSeconds:  4,
		Counters:       map[string]int64{"images_decoded_total": 200},
		SpansCompleted: 25,
		Events:         []Event{{Name: "e", At: time.Now()}},
	}
	d := uptimeDelta(cur, nil)
	if d.Seconds != 4 || d.Counters["images_decoded_total"] != 200 || d.SpansCompleted != 25 {
		t.Fatalf("whole-uptime delta = %+v", d)
	}
	if d.Rate("images_decoded_total") != 50 {
		t.Fatalf("rate = %v, want 50", d.Rate("images_decoded_total"))
	}
	if len(d.Events) != 1 {
		t.Fatalf("events = %v", d.Events)
	}
	var nilSnap *PipelineSnapshot
	if nilSnap.Delta(nil, 0) != nil {
		t.Fatal("nil snapshot Delta != nil")
	}
	var nilDelta *SnapshotDelta
	if nilDelta.Rate("x") != 0 {
		t.Fatal("nil delta Rate != 0")
	}
}

// TestSnapshotDeltaRegistryRestart pins the documented restart
// signature: a counter lower in cur than in prev yields a negative
// delta (and rate) rather than clamping — the caller's signal that the
// registry restarted between captures.
func TestSnapshotDeltaRegistryRestart(t *testing.T) {
	t0 := time.Now()
	prev := &PipelineSnapshot{
		TakenAt: t0, UptimeSeconds: 100,
		Counters: map[string]int64{"images_decoded_total": 5000, "decode_errors_total": 7},
	}
	cur := &PipelineSnapshot{
		TakenAt: t0.Add(2 * time.Second), UptimeSeconds: 2, // restarted process
		Counters: map[string]int64{"images_decoded_total": 40},
	}
	d := uptimeDelta(cur, prev)
	if d.Counters["images_decoded_total"] != -4960 {
		t.Fatalf("restart delta = %d, want -4960 (negative, not clamped)", d.Counters["images_decoded_total"])
	}
	// A counter present only in prev does not appear at all — Delta
	// iterates cur's counters.
	if _, ok := d.Counters["decode_errors_total"]; ok {
		t.Fatal("counter absent from cur should be absent from the delta")
	}
	// Uptime went backwards too: Seconds is negative and rates are not
	// computed (Seconds > 0 guard), never NaN/Inf.
	if d.Seconds != -98 {
		t.Fatalf("Seconds = %v, want -98", d.Seconds)
	}
	if len(d.Rates) != 0 {
		t.Fatalf("rates over a negative interval = %v, want none", d.Rates)
	}
}

// TestSnapshotDeltaEventAtBoundary pins the interval-boundary contract:
// an event stamped exactly at prev.TakenAt belongs to the previous
// interval (Delta keeps events strictly after prev), so adjacent
// intervals never double-count a boundary event.
func TestSnapshotDeltaEventAtBoundary(t *testing.T) {
	t0 := time.Now()
	mid := t0.Add(time.Second)
	end := t0.Add(2 * time.Second)
	events := []Event{
		{Name: "before", At: mid.Add(-time.Millisecond)},
		{Name: "boundary", At: mid},
		{Name: "after", At: mid.Add(time.Millisecond)},
	}
	first := &PipelineSnapshot{TakenAt: mid, UptimeSeconds: 1,
		Counters: map[string]int64{}, Events: events[:2]}
	second := &PipelineSnapshot{TakenAt: end, UptimeSeconds: 2,
		Counters: map[string]int64{}, Events: events}
	d := uptimeDelta(second, first)
	if len(d.Events) != 1 || d.Events[0].Name != "after" {
		t.Fatalf("interval events = %v, want only the strictly-after one", d.Events)
	}
	// Conservation across the boundary: the whole-interval event set is
	// the union of the first interval's (vs nil) and the second's.
	whole := uptimeDelta(second, nil)
	firstHalf := uptimeDelta(first, nil)
	if len(firstHalf.Events)+len(d.Events) != len(whole.Events) {
		t.Fatalf("boundary event double-counted or dropped: %d + %d != %d",
			len(firstHalf.Events), len(d.Events), len(whole.Events))
	}
}

// TestSnapshotDeltaConservation is the counter-conservation property:
// for any three snapshots a ≤ b ≤ c, delta(a,b) + delta(b,c) equals
// delta(a,c) counter-for-counter and in seconds — windowed telemetry
// splits an interval without losing or double-counting anything.
func TestSnapshotDeltaConservation(t *testing.T) {
	t0 := time.Now()
	mk := func(sec float64, decoded, shed, spans int64) *PipelineSnapshot {
		return &PipelineSnapshot{
			TakenAt:       t0.Add(time.Duration(sec * float64(time.Second))),
			UptimeSeconds: sec,
			Counters: map[string]int64{
				"images_decoded_total": decoded,
				"serve_shed_total":     shed,
			},
			SpansCompleted: spans,
		}
	}
	a := mk(1, 100, 3, 10)
	b := mk(4.5, 950, 40, 112)
	c := mk(9, 2212, 41, 263)
	ab, bc, ac := uptimeDelta(b, a), uptimeDelta(c, b), uptimeDelta(c, a)
	for k := range ac.Counters {
		if ab.Counters[k]+bc.Counters[k] != ac.Counters[k] {
			t.Fatalf("counter %s: %d + %d != %d", k, ab.Counters[k], bc.Counters[k], ac.Counters[k])
		}
	}
	if ab.Seconds+bc.Seconds != ac.Seconds {
		t.Fatalf("seconds: %v + %v != %v", ab.Seconds, bc.Seconds, ac.Seconds)
	}
	if ab.SpansCompleted+bc.SpansCompleted != ac.SpansCompleted {
		t.Fatalf("spans: %d + %d != %d", ab.SpansCompleted, bc.SpansCompleted, ac.SpansCompleted)
	}
}
