// Chrome trace_event export: renders recorded batch spans, events and
// queue-depth samples as a JSON document loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing, so a batch's collect →
// get_item → seal → publish → dispatch → sync → recycle life reads as a
// real timeline instead of a table of percentiles. One track (thread)
// per pipeline stage, instant markers for events, and counter tracks
// for every sampled queue depth.

package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// traceEvent is one entry of the Chrome trace_event format. Only the
// fields the exporter uses; ts and dur are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object Perfetto loads.
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// The fixed pid/tid layout of the exported timeline: one process for
// the pipeline, one thread per batch lifecycle stage, one thread for
// instant event markers. Queue-depth counters ride as "C" events and
// get their own tracks automatically.
const (
	tracePID        = 1
	traceTIDEvents  = 1
	traceTIDBatch   = 2 // whole-batch envelope (collected → recycled)
	traceTIDCollect = 3 // collect/assemble: collected → published
	traceTIDQueue   = 4 // Full queue residence: published → dispatched
	traceTIDCopy    = 5 // dispatch + copy + stream sync: dispatched → synced
	traceTIDRecycle = 6 // recycle: synced → recycled
)

// traceTracks names the fixed threads, in tid order, via metadata
// events so Perfetto shows stage names instead of bare tids.
var traceTracks = []struct {
	tid  int
	name string
}{
	{traceTIDEvents, "events"},
	{traceTIDBatch, "batch lifetime"},
	{traceTIDCollect, "collect+assemble"},
	{traceTIDQueue, "full-queue wait"},
	{traceTIDCopy, "dispatch+copy+sync"},
	{traceTIDRecycle, "recycle"},
}

// WriteChromeTrace renders spans, events and samples as one Chrome
// trace_event JSON document. Spans become complete ("X") slices on the
// per-stage tracks, events become instant ("i") markers, and each
// sampled queue depth becomes a counter ("C") series named
// queue:<name>. Timestamps are offset from the earliest one present so
// the timeline starts near zero.
func WriteChromeTrace(w io.Writer, spans []Span, events []Event, samples []HistorySample) error {
	t0 := earliestTimestamp(spans, events, samples)
	evs := appendProcessTrace(nil, tracePID, "dlbooster pipeline", spans, events, samples, t0)
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// appendProcessTrace appends one pipeline's timeline under the given
// pid/process name: the metadata events naming the process and its
// stage threads, the span slices, the instant event markers and the
// queue-depth counter series. A sharded fleet calls it once per shard
// with a distinct pid, so every shard reads as its own process track.
func appendProcessTrace(evs []traceEvent, pid int, procName string, spans []Span, events []Event, samples []HistorySample, t0 time.Time) []traceEvent {
	evs = append(evs, traceEvent{
		Name: "process_name", Ph: "M", PID: pid, TID: 0,
		Args: map[string]any{"name": procName},
	})
	evs = append(evs, traceEvent{
		Name: "process_sort_index", Ph: "M", PID: pid, TID: 0,
		Args: map[string]any{"sort_index": pid},
	})
	for _, tr := range traceTracks {
		evs = append(evs, traceEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tr.tid,
			Args: map[string]any{"name": tr.name},
		})
		evs = append(evs, traceEvent{
			Name: "thread_sort_index", Ph: "M", PID: pid, TID: tr.tid,
			Args: map[string]any{"sort_index": tr.tid},
		})
	}
	for _, sp := range spans {
		evs = append(evs, spanEvents(sp, t0, pid)...)
	}
	for _, e := range events {
		if e.At.IsZero() {
			continue
		}
		evs = append(evs, traceEvent{
			Name: e.Name, Cat: "event", Ph: "i", TS: usSince(t0, e.At),
			PID: pid, TID: traceTIDEvents, S: "g",
			Args: map[string]any{"detail": e.Detail},
		})
	}
	for _, m := range samples {
		if m.TakenAt.IsZero() || m.Snapshot == nil {
			continue
		}
		ts := usSince(t0, m.TakenAt)
		for _, q := range sortedKeys(m.Snapshot.Queues) {
			evs = append(evs, traceEvent{
				Name: "queue:" + q, Ph: "C", TS: ts, PID: pid, TID: 0,
				Args: map[string]any{"len": m.Snapshot.Queues[q].Len},
			})
		}
	}
	return evs
}

// spanEvents expands one batch span into its per-stage slices, skipping
// stages the batch never reached (zero timestamps).
func spanEvents(sp Span, t0 time.Time, pid int) []traceEvent {
	name := fmt.Sprintf("batch %d", sp.Batch)
	args := map[string]any{
		"batch": sp.Batch, "images": sp.Images,
		"fpga": sp.FPGA, "fallback": sp.Fallback, "failed": sp.Failed,
	}
	var evs []traceEvent
	slice := func(tid int, cat string, from, to time.Time) {
		if from.IsZero() || to.IsZero() || to.Before(from) {
			return
		}
		evs = append(evs, traceEvent{
			Name: name, Cat: cat, Ph: "X",
			TS: usSince(t0, from), Dur: float64(to.Sub(from)) / float64(time.Microsecond),
			PID: pid, TID: tid, Args: args,
		})
	}
	slice(traceTIDBatch, "batch_e2e", sp.Collected, sp.Recycled)
	slice(traceTIDCollect, StageAssemble, sp.Collected, sp.Published)
	slice(traceTIDQueue, StageFullQueueWait, sp.Published, sp.Dispatched)
	slice(traceTIDCopy, StageCopySync, sp.Dispatched, sp.Synced)
	slice(traceTIDRecycle, StageRecycle, sp.Synced, sp.Recycled)
	return evs
}

// earliestTimestamp scans every non-zero timestamp so the exported
// timeline is offset to start near zero.
func earliestTimestamp(spans []Span, events []Event, samples []HistorySample) time.Time {
	var t0 time.Time
	consider := func(t time.Time) {
		if t.IsZero() {
			return
		}
		if t0.IsZero() || t.Before(t0) {
			t0 = t
		}
	}
	for _, sp := range spans {
		consider(sp.Collected)
		consider(sp.BufAcquired)
		consider(sp.Published)
	}
	for _, e := range events {
		consider(e.At)
	}
	for _, m := range samples {
		consider(m.TakenAt)
	}
	return t0
}

// usSince returns microseconds from t0 to t, the trace_event clock.
func usSince(t0, t time.Time) float64 {
	return float64(t.Sub(t0)) / float64(time.Microsecond)
}

// WriteChromeTrace renders the snapshot's recent spans and events as a
// Chrome trace_event timeline — the /trace.json payload dlserve exposes
// next to /metrics.json.
func (s *PipelineSnapshot) WriteChromeTrace(w io.Writer) error {
	if s == nil {
		return WriteChromeTrace(w, nil, nil, nil)
	}
	return WriteChromeTrace(w, s.RecentSpans, s.Events, nil)
}

// WriteChromeTrace renders a sharded fleet's recent spans and events
// as one Chrome trace_event timeline with one process per shard (pid =
// shard index + 1, named "shard <i>"), so Perfetto shows each shard's
// batch lifecycle on its own group of tracks — "shard 3's full-queue
// waits balloon while the others idle" becomes visible at a glance.
// Timestamps share one origin across shards, so cross-shard skew (a
// degraded shard's batches stretching while a healthy one's stay
// tight) reads directly off the timeline.
func (f *FleetSnapshot) WriteChromeTrace(w io.Writer) error {
	if f == nil {
		return WriteChromeTrace(w, nil, nil, nil)
	}
	var t0 time.Time
	for _, s := range f.Shards {
		if s == nil {
			continue
		}
		if st0 := earliestTimestamp(s.RecentSpans, s.Events, nil); !st0.IsZero() && (t0.IsZero() || st0.Before(t0)) {
			t0 = st0
		}
	}
	var evs []traceEvent
	for i, s := range f.Shards {
		if s == nil {
			continue
		}
		evs = appendProcessTrace(evs, i+1, fmt.Sprintf("shard %d", i), s.RecentSpans, s.Events, nil, t0)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// WriteChromeTrace renders a flight dump as a Chrome trace_event
// timeline: its spans as stage slices, its notes as instant markers,
// its samples' queue depths as counter tracks — a post-mortem file
// turned into a picture.
func (d FlightDump) WriteChromeTrace(w io.Writer) error {
	events := make([]Event, 0, len(d.Notes))
	for _, n := range d.Notes {
		events = append(events, Event{Name: n.Name, Detail: n.Detail, At: n.At})
	}
	return WriteChromeTrace(w, d.Spans, events, d.Samples)
}
