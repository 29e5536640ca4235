package metrics

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFlightNilSafety(t *testing.T) {
	var f *FlightRecorder
	f.Span(Span{Batch: 1})
	if p := f.Note("degraded", "x"); p != "" {
		t.Fatalf("nil recorder dumped to %q", p)
	}
	s := f.Sampler(NewRegistry(), time.Millisecond)
	s.Start()
	s.Stop()
	if _, err := f.Dump("x"); err != nil {
		t.Fatalf("nil Dump: %v", err)
	}
	f.DumpOnPanic()
	if d := f.Contents("x"); len(d.Spans) != 0 {
		t.Fatalf("nil Contents: %+v", d)
	}
	if f.SpansRecorded() != 0 || f.DumpsWritten() != 0 {
		t.Fatal("nil counters nonzero")
	}
}

func TestFlightSpanRingWraps(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{SpanRing: 4})
	for i := 1; i <= 10; i++ {
		f.Span(Span{Batch: i})
	}
	d := f.Contents("test")
	if d.SpansTotal != 10 || f.SpansRecorded() != 10 {
		t.Fatalf("SpansTotal = %d, SpansRecorded = %d, want 10", d.SpansTotal, f.SpansRecorded())
	}
	if len(d.Spans) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(d.Spans))
	}
	// Oldest-first: batches 7, 8, 9, 10.
	for i, sp := range d.Spans {
		if sp.Batch != 7+i {
			t.Fatalf("Spans[%d].Batch = %d, want %d (oldest-first order)", i, sp.Batch, 7+i)
		}
	}
}

func TestFlightNoteRingWraps(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{NoteRing: 3})
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		f.Note(name, "")
	}
	d := f.Contents("test")
	got := make([]string, len(d.Notes))
	for i, n := range d.Notes {
		got[i] = n.Name
	}
	if strings.Join(got, "") != "cde" {
		t.Fatalf("notes = %v, want [c d e]", got)
	}
}

func TestFlightAutoDumpOnTriggerNote(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(FlightConfig{DumpDir: dir})
	f.Span(Span{Batch: 1, Images: 8})
	f.Note("routine", "not a trigger")
	if p := f.Note("irrelevant", "still not"); p != "" {
		t.Fatalf("non-trigger note dumped to %q", p)
	}
	path := f.Note("degraded", "FPGA→CPU fallback engaged")
	if path == "" {
		t.Fatal("trigger note wrote no dump")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.Reason != "degraded" || len(d.Spans) != 1 || len(d.Notes) != 3 {
		t.Fatalf("dump = reason %q, %d spans, %d notes", d.Reason, len(d.Spans), len(d.Notes))
	}
	if f.DumpsWritten() != 1 {
		t.Fatalf("DumpsWritten = %d, want 1", f.DumpsWritten())
	}
	// A second trigger inside DumpMinInterval is rate-limited.
	if p := f.Note("degraded", "again"); p != "" {
		t.Fatalf("rate-limited note still dumped to %q", p)
	}
}

func TestFlightDumpForcedAndCapped(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(FlightConfig{DumpDir: dir, MaxDumps: 2, DumpMinInterval: time.Hour})
	if p := f.Note("degraded", "x"); p == "" {
		t.Fatal("first trigger note wrote no dump")
	}
	// Dump bypasses the hour-long rate limit...
	path, err := f.Dump("operator request")
	if err != nil || path == "" {
		t.Fatalf("forced dump: %v (path %q)", err, path)
	}
	// ...but MaxDumps still applies.
	if _, err := f.Dump("one too many"); err == nil {
		t.Fatal("dump past MaxDumps succeeded")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(files) != 2 {
		t.Fatalf("found %d dump files, want 2: %v", len(files), files)
	}
}

func TestFlightDumpDisabledWithoutDir(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{})
	if p := f.Note("degraded", "x"); p != "" {
		t.Fatalf("recorder without DumpDir dumped to %q", p)
	}
	if _, err := f.Dump("x"); err == nil {
		t.Fatal("Dump without DumpDir succeeded")
	}
}

func TestFlightDumpOnPanic(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(FlightConfig{DumpDir: dir})
	f.Span(Span{Batch: 42})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DumpOnPanic swallowed the panic")
			}
		}()
		defer f.DumpOnPanic()
		panic("buffer accounting violated")
	}()
	files, err := filepath.Glob(filepath.Join(dir, "flight-*-panic.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("panic dump files = %v (%v)", files, err)
	}
	data, _ := os.ReadFile(files[0])
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Spans) != 1 || d.Spans[0].Batch != 42 {
		t.Fatalf("panic dump spans = %+v", d.Spans)
	}
	found := false
	for _, n := range d.Notes {
		if n.Name == "panic" && strings.Contains(n.Detail, "accounting") {
			found = true
		}
	}
	if !found {
		t.Fatalf("panic note missing from %+v", d.Notes)
	}
}

func TestFlightSampleRing(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{})
	for i := 1; i <= flightSamples+2; i++ {
		f.hist.Record(&PipelineSnapshot{
			TakenAt:  time.Unix(int64(i), 0),
			Counters: map[string]int64{"n": int64(i)},
			Queues:   map[string]QueueDepth{"full_batch": {Len: i, Cap: 8}},
		})
	}
	d := f.Contents("test")
	if len(d.Samples) != flightSamples {
		t.Fatalf("kept %d samples, want %d", len(d.Samples), flightSamples)
	}
	// Oldest first, the two oldest evicted; each sample carries its
	// interval (one n per second) next to the cumulative queue depth.
	first, last := d.Samples[0], d.Samples[flightSamples-1]
	if first.Snapshot.Counters["n"] != 3 || last.Snapshot.Counters["n"] != flightSamples+2 {
		t.Fatalf("samples out of order: first n %d, last n %d", first.Snapshot.Counters["n"], last.Snapshot.Counters["n"])
	}
	if last.Delta.Counters["n"] != 1 || last.Delta.Rate("n") != 1 || last.Snapshot.Queues["full_batch"].Len != flightSamples+2 {
		t.Fatalf("newest sample = %+v, delta %+v", last.Snapshot, last.Delta)
	}
}

func TestFlightSampleLoop(t *testing.T) {
	reg := NewRegistry()
	reg.Add("ticks", 1)
	f := NewFlightRecorder(FlightConfig{})
	s := f.Sampler(reg, time.Millisecond)
	s.Start()
	defer s.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if samples := f.Contents("t").Samples; len(samples) > 1 {
			s.Stop()
			s.Stop() // idempotent
			if got := samples[0].Snapshot.Counters["ticks"]; got != 1 {
				t.Fatalf("sampled ticks = %d, want 1", got)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("sampler recorded nothing into the flight ring within 2s")
}

func TestRegistryForwardsToAttachedFlight(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	f := NewFlightRecorder(FlightConfig{DumpDir: dir})
	reg.AttachFlight(f)

	reg.CompleteSpan(Span{Batch: 7, Images: 8})
	if f.SpansRecorded() != 1 {
		t.Fatalf("attached recorder saw %d spans, want 1", f.SpansRecorded())
	}
	// A registry event lands as a note — and "degraded" triggers a dump.
	reg.Event("degraded", "chaos")
	d := f.Contents("test")
	if len(d.Notes) != 1 || d.Notes[0].Name != "degraded" {
		t.Fatalf("notes = %+v", d.Notes)
	}
	if f.DumpsWritten() != 1 {
		t.Fatalf("DumpsWritten = %d, want 1 (Event should auto-dump)", f.DumpsWritten())
	}
	// Nil registry and unattached registry stay safe.
	var nilReg *Registry
	nilReg.AttachFlight(f)
	NewRegistry().CompleteSpan(Span{Batch: 1})
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "second" {
		t.Fatalf("read %q, %v", data, err)
	}
	// No temp files left behind.
	files, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp*"))
	if len(files) != 0 {
		t.Fatalf("leftover temp files: %v", files)
	}
}
