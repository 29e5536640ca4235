package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// decodedTrace mirrors the Chrome trace_event JSON for assertions.
type decodedTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func traceSpan(base time.Time, batch int) Span {
	ms := func(d int) time.Time { return base.Add(time.Duration(d) * time.Millisecond) }
	return Span{
		Batch: batch, Images: 8, FPGA: 8,
		Collected: ms(0), BufAcquired: ms(1), Sealed: ms(5),
		Published: ms(6), Dispatched: ms(8), Synced: ms(11), Recycled: ms(12),
	}
}

func TestWriteChromeTrace(t *testing.T) {
	base := time.Now()
	spans := []Span{traceSpan(base, 1), traceSpan(base.Add(20*time.Millisecond), 2)}
	events := []Event{{Name: "degraded", Detail: "chaos", At: base.Add(15 * time.Millisecond)}}
	samples := []HistorySample{{
		TakenAt:  base.Add(10 * time.Millisecond),
		Snapshot: &PipelineSnapshot{Queues: map[string]QueueDepth{"full_batch": {Len: 3, Cap: 8}}},
	}}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans, events, samples); err != nil {
		t.Fatal(err)
	}
	var tr decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}

	var slices, instants, counters, meta int
	threadNames := map[string]bool{}
	for _, e := range tr.TraceEvents {
		if e.TS < 0 {
			t.Fatalf("negative ts %v in %q", e.TS, e.Name)
		}
		switch e.Ph {
		case "X":
			slices++
			if e.Dur <= 0 {
				t.Fatalf("slice %q (cat %s) has dur %v", e.Name, e.Cat, e.Dur)
			}
		case "i":
			instants++
			if e.Name != "degraded" {
				t.Fatalf("instant %q", e.Name)
			}
		case "C":
			counters++
			if e.Name != "queue:full_batch" {
				t.Fatalf("counter %q", e.Name)
			}
		case "M":
			meta++
			if e.Name == "thread_name" {
				threadNames[e.Args["name"].(string)] = true
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	// Each complete span expands to 5 slices (envelope + 4 stages).
	if slices != 10 {
		t.Fatalf("slices = %d, want 10", slices)
	}
	if instants != 1 || counters != 1 {
		t.Fatalf("instants = %d, counters = %d", instants, counters)
	}
	for _, want := range []string{"events", "batch lifetime", "collect+assemble", "full-queue wait", "dispatch+copy+sync", "recycle"} {
		if !threadNames[want] {
			t.Fatalf("missing thread_name metadata %q (have %v)", want, threadNames)
		}
	}
}

func TestWriteChromeTraceSkipsUnreachedStages(t *testing.T) {
	// A span that never got past Published: only the assemble slice.
	base := time.Now()
	sp := Span{Batch: 1, Collected: base, Published: base.Add(2 * time.Millisecond)}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []Span{sp}, nil, nil); err != nil {
		t.Fatal(err)
	}
	var tr decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" && e.Cat != StageAssemble {
			t.Fatalf("unexpected slice cat %q for a half-finished span", e.Cat)
		}
	}
}

func TestSnapshotWriteChromeTrace(t *testing.T) {
	var nilSnap *PipelineSnapshot
	var buf bytes.Buffer
	if err := nilSnap.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Fatalf("nil snapshot trace = %q", buf.String())
	}

	reg := NewRegistry()
	reg.CompleteSpan(traceSpan(time.Now(), 1))
	reg.Event("degraded", "x")
	buf.Reset()
	if err := reg.Snapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	var slices, instants int
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
		case "i":
			instants++
		}
	}
	if slices != 5 || instants != 1 {
		t.Fatalf("snapshot trace: %d slices, %d instants", slices, instants)
	}
}

func TestFlightDumpWriteChromeTrace(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{})
	f.Span(traceSpan(time.Now(), 3))
	f.Note("cmd_revoked", "cmd 9 revoked")
	f.hist.Record(&PipelineSnapshot{
		TakenAt: time.Now(),
		Queues:  map[string]QueueDepth{"hugepage_free": {Len: 0, Cap: 4}},
	})
	var buf bytes.Buffer
	if err := f.Contents("test").WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	var haveNote, haveCounter bool
	for _, e := range tr.TraceEvents {
		if e.Ph == "i" && e.Name == "cmd_revoked" {
			haveNote = true
		}
		if e.Ph == "C" && e.Name == "queue:hugepage_free" {
			haveCounter = true
		}
	}
	if !haveNote || !haveCounter {
		t.Fatalf("dump trace missing note (%v) or counter (%v)", haveNote, haveCounter)
	}
}
