package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanDir is where span files go: beside the binary run.sh builds, under
// the one directory of the checkout the benchmark writes to.
const spanDir = ".bench_build"

// span is one bench-side interval: a repeat, a call into a layer made
// from the bench (RunEpoch, ReplayCache, Submit, Drain), or one item's
// stay in the pipeline. Parent is the span that caused it (0 = none);
// item and Submit spans carry the item's sequence number, which is the
// identifier the spans of one request share.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Seq     int     `json:"seq"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. Every method is a
// no-op on a nil tracer, so untraced runs thread nil through.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.origin)) / 1e3 }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, seq int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Seq: seq, StartUs: t.us(time.Now())})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUs = t.us(time.Now())
}

// add records a span whose ends the caller timed itself.
func (t *tracer) add(name string, parent, seq int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Seq: seq, StartUs: t.us(start), EndUs: t.us(end)})
}

// items adds one "item" span per delivered item of a finished repeat,
// from its hand-off (serve: due time) to its first delivery.
func (t *tracer) items(parent int, start time.Time, log *itemLog) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for seq := range log.count {
		if log.count[seq].Load() == 0 {
			continue
		}
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Parent: parent, Name: "item", Seq: seq,
			StartUs: t.us(start.Add(log.handoff[seq])),
			EndUs:   t.us(start.Add(log.delivered[seq])),
		})
	}
}

// write stores the spans, with the fingerprint of the run that made
// them, as one JSON document under dir and returns its path.
func (t *tracer) write(dir string, fp fingerprint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	doc, err := json.Marshal(struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Spans       []span      `json:"spans"`
	}{fp, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+fp.Workload+".json")
	return path, os.WriteFile(path, doc, 0o644)
}
