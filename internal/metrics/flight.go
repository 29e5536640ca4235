package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// FlightNote is one timestamped observation in the flight recorder's
// ring: degradation switches, command revocations, injected faults,
// panics — anything a post-mortem wants on its timeline alongside the
// batch spans. Unlike EventLog (unbounded, snapshot-visible), notes are
// bounded and exist only for the recorder.
type FlightNote struct {
	Name   string    `json:"name"`
	Detail string    `json:"detail"`
	At     time.Time `json:"at"`
}

// FlightDump is the serialised post-mortem: everything the recorder's
// rings held at dump time, stamped with the reason that triggered it.
// Samples are the recorder's History samples, oldest first, so queue
// depths, counters and interval rates read the same as /history.json.
// WriteChromeTrace renders it as a loadable timeline.
type FlightDump struct {
	DumpedAt   time.Time       `json:"dumped_at"`
	Reason     string          `json:"reason"`
	SpansTotal int64           `json:"spans_total"`
	Spans      []Span          `json:"spans,omitempty"`
	Notes      []FlightNote    `json:"notes,omitempty"`
	Samples    []HistorySample `json:"samples,omitempty"`
}

// FlightConfig tunes the flight recorder. The zero value is usable:
// default ring sizes, dumps disabled (no DumpDir).
type FlightConfig struct {
	// SpanRing bounds the recent-span ring (default 256).
	SpanRing int
	// NoteRing bounds the note ring (default 256).
	NoteRing int
	// DumpDir is where triggered dumps land as timestamped JSON files;
	// empty disables dumping (the rings still record).
	DumpDir string
	// DumpOn lists note names that trigger an automatic dump when
	// recorded via Note. Nil means DefaultDumpOn; an explicit empty
	// slice disables automatic dumps (Dump still works).
	DumpOn []string
	// DumpMinInterval rate-limits automatic dumps (default 5s). Forced
	// dumps (Dump, DumpOnPanic) ignore it.
	DumpMinInterval time.Duration
	// MaxDumps caps files written over the recorder's lifetime
	// (default 16), so a flapping fault cannot fill a disk.
	MaxDumps int
}

// DefaultDumpOn is the note-name set that triggers automatic dumps when
// FlightConfig.DumpOn is nil: the FPGA→CPU degradation switch, the
// first wedged-device fault, a backend error and a panic.
func DefaultDumpOn() []string {
	return []string{"degraded", "fault_stuck", "backend_error", "panic"}
}

// FlightRecorder is the always-on black box of the pipeline: two
// fixed-size rings (completed batch spans, notes) recorded with one
// short mutex hold each, plus a flightSamples-deep History that a
// Sampler fills (see FlightRecorder.Sampler) — cheap enough
// to leave running even when full registry tracing is off. On a
// triggering note — a degradation event, a device revocation storm, a
// crash — it dumps the rings to a timestamped JSON file, so post-mortems
// do not depend on having had tracing or scraping enabled beforehand.
//
// All methods are safe on a nil *FlightRecorder and do nothing there,
// the same cost contract as Registry and faults.Injector.
type FlightRecorder struct {
	cfg FlightConfig

	mu         sync.Mutex
	spans      []Span
	spanNext   int
	spansTotal int64
	notes      []FlightNote
	noteNext   int
	lastDump   time.Time
	dumps      int

	hist *History
}

// flightSamples is the depth of the recorder's sample ring: at dlserve's
// 1 s sampling, the minute before an incident.
const flightSamples = 64

// NewFlightRecorder builds a recorder with the configured ring sizes
// and dump policy.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.SpanRing <= 0 {
		cfg.SpanRing = 256
	}
	if cfg.NoteRing <= 0 {
		cfg.NoteRing = 256
	}
	if cfg.DumpMinInterval <= 0 {
		cfg.DumpMinInterval = 5 * time.Second
	}
	if cfg.MaxDumps <= 0 {
		cfg.MaxDumps = 16
	}
	if cfg.DumpOn == nil {
		cfg.DumpOn = DefaultDumpOn()
	}
	return &FlightRecorder{cfg: cfg, hist: NewHistory(flightSamples)}
}

// Span records one completed batch span into the ring. Registries with
// an attached recorder call this from CompleteSpan; components without
// a registry can call it directly.
func (f *FlightRecorder) Span(sp Span) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if len(f.spans) < f.cfg.SpanRing {
		f.spans = append(f.spans, sp)
	} else {
		f.spans[f.spanNext] = sp
		f.spanNext = (f.spanNext + 1) % f.cfg.SpanRing
	}
	f.spansTotal++
	f.mu.Unlock()
}

// Note records a timestamped observation and, when the name is in the
// configured DumpOn set, triggers an automatic dump (rate-limited by
// DumpMinInterval and MaxDumps). The dump file path is returned when a
// dump was written; errors writing it are swallowed — the recorder is
// damage-control apparatus and must never fail the pipeline.
func (f *FlightRecorder) Note(name, detail string) (dumpPath string) {
	if f == nil {
		return ""
	}
	now := time.Now()
	f.mu.Lock()
	n := FlightNote{Name: name, Detail: detail, At: now}
	if len(f.notes) < f.cfg.NoteRing {
		f.notes = append(f.notes, n)
	} else {
		f.notes[f.noteNext] = n
		f.noteNext = (f.noteNext + 1) % f.cfg.NoteRing
	}
	trigger := false
	if f.cfg.DumpDir != "" && f.dumps < f.cfg.MaxDumps &&
		(f.lastDump.IsZero() || now.Sub(f.lastDump) >= f.cfg.DumpMinInterval) {
		for _, want := range f.cfg.DumpOn {
			if name == want {
				trigger = true
				break
			}
		}
	}
	var dump FlightDump
	if trigger {
		f.lastDump = now
		f.dumps++
		dump = f.dumpLocked(name, now)
	}
	f.mu.Unlock()
	if trigger {
		path, err := writeDumpFile(f.cfg.DumpDir, dump)
		if err != nil {
			return ""
		}
		return path
	}
	return ""
}

// Sampler returns a Sampler that snapshots the registry into the
// recorder's sample ring at the given interval (1 s when ≤ 0); the
// caller starts and stops it. A nil recorder or registry returns a nil
// Sampler, whose methods do nothing.
func (f *FlightRecorder) Sampler(r *Registry, every time.Duration) *Sampler {
	if f == nil {
		return nil
	}
	s := NewSampler(r, SamplerConfig{Interval: every})
	if s != nil {
		s.hist = f.hist
	}
	return s
}

// Dump forces a dump now, regardless of the DumpOn set and the
// rate limit (MaxDumps still applies). It returns the file path.
func (f *FlightRecorder) Dump(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	now := time.Now()
	f.mu.Lock()
	if f.cfg.DumpDir == "" || f.dumps >= f.cfg.MaxDumps {
		f.mu.Unlock()
		return "", fmt.Errorf("metrics: flight dump unavailable (dir %q, %d dumps written)", f.cfg.DumpDir, f.dumps)
	}
	f.lastDump = now
	f.dumps++
	dump := f.dumpLocked(reason, now)
	f.mu.Unlock()
	return writeDumpFile(f.cfg.DumpDir, dump)
}

// DumpOnPanic is meant to be deferred at the top of pipeline
// goroutines: on a panic it records a "panic" note, force-dumps the
// rings, and re-panics so the crash still surfaces. On a normal return
// it does nothing.
func (f *FlightRecorder) DumpOnPanic() {
	if f == nil {
		return
	}
	if r := recover(); r != nil {
		// The note auto-dumps when "panic" is in DumpOn; force a dump
		// only when it did not (custom DumpOn set, or rate-limited).
		if f.Note("panic", fmt.Sprint(r)) == "" {
			_, _ = f.Dump("panic")
		}
		panic(r)
	}
}

// Contents returns a copy of the rings as a FlightDump without writing
// a file — the programmatic dump for tests and in-process analysis.
func (f *FlightRecorder) Contents(reason string) FlightDump {
	if f == nil {
		return FlightDump{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumpLocked(reason, time.Now())
}

// SpansRecorded returns the lifetime count of spans the recorder saw
// (the ring keeps only the most recent SpanRing of them).
func (f *FlightRecorder) SpansRecorded() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.spansTotal
}

// DumpsWritten returns the number of dump files written so far.
func (f *FlightRecorder) DumpsWritten() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumps
}

// dumpLocked copies the rings, oldest first, under f.mu.
func (f *FlightRecorder) dumpLocked(reason string, now time.Time) FlightDump {
	d := FlightDump{DumpedAt: now, Reason: reason, SpansTotal: f.spansTotal}
	d.Spans = append(d.Spans, f.spans[f.spanNext:]...)
	d.Spans = append(d.Spans, f.spans[:f.spanNext]...)
	d.Notes = append(d.Notes, f.notes[f.noteNext:]...)
	d.Notes = append(d.Notes, f.notes[:f.noteNext]...)
	d.Samples = f.hist.Samples()
	return d
}

// writeDumpFile serialises a dump into dir as
// flight-<UTC timestamp>-<reason>.json, creating dir if needed and
// writing atomically so a concurrent reader never sees a partial file.
func writeDumpFile(dir string, d FlightDump) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("flight-%s-%s.json",
		d.DumpedAt.UTC().Format("20060102T150405.000000000"), sanitizeReason(d.Reason))
	path := filepath.Join(dir, name)
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", err
	}
	if err := WriteFileAtomic(path, data); err != nil {
		return "", err
	}
	return path, nil
}

// sanitizeReason maps a free-form reason onto a safe filename fragment.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	var b strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	const maxLen = 40
	s := b.String()
	if len(s) > maxLen {
		s = s[:maxLen]
	}
	return s
}

// WriteFileAtomic writes data to path via a same-directory temp file,
// fsyncs it, and renames it into place, so a crash mid-write can never
// leave a truncated file at path — the contract the periodic snapshot
// file, flight dumps and benchmark results all rely on.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}
