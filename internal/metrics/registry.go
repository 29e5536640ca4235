package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stage names under which the pipeline records latency observations.
// Every stage histogram is in milliseconds; docs/METRICS.md is the
// reference for what each stage spans and which paper figure it maps to.
const (
	// StageFPGADecode is submit_cmd → FINISH for one decode command
	// (last attempt when retried).
	StageFPGADecode = "fpga_decode"
	// StageCPUFallback is host submit → FINISH for one rescue or
	// degraded-mode decode on the host lanes (last attempt when retried).
	StageCPUFallback = "cpu_fallback"
	// StageCPUOffload is host submit → FINISH for one host-lane decode
	// placed by the fractional offload knob (core.Booster.SetCPUShare) —
	// deliberate load-splitting, distinct from the failure-driven
	// cpu_fallback path.
	StageCPUOffload = "cpu_offload"
	// StageGetItemWait is the time the FPGAReader blocked in get_item
	// waiting for a free HugePage buffer (back-pressure).
	StageGetItemWait = "get_item_wait"
	// StageAssemble is first item collected → batch published on the
	// Full queue.
	StageAssemble = "assemble"
	// StageFullQueueWait is batch published → popped by the Dispatcher.
	StageFullQueueWait = "full_queue_wait"
	// StageCopySync is Dispatcher pop → stream synchronisation complete
	// (host→device copy included).
	StageCopySync = "copy_sync"
	// StageRecycle is stream sync → buffer returned to the pool
	// (recycle_item).
	StageRecycle = "recycle"
	// StageBatchE2E is first item collected → buffer recycled: the whole
	// life of one batch through the pipeline.
	StageBatchE2E = "batch_e2e"
	// StageInferE2E is per-image receipt → prediction (the paper's
	// Figure 8 latency metric).
	StageInferE2E = "infer_e2e"
	// StageTrainIter is the duration of one training iteration across
	// all solvers.
	StageTrainIter = "train_iter"
	// StageBatchFill is the fill ratio of every published batch — batch
	// images over configured batch size, in 0..1 rather than
	// milliseconds. A tail of low values means deadline flushes
	// (Config.BatchTimeout) are trading throughput for bounded latency.
	StageBatchFill = "batch_fill"
)

// Span is the per-batch trace: one timestamp per pipeline stage a batch
// buffer passes through (collect → get_item → seal → publish → dispatch
// → stream-sync → recycle_item), plus the terminal state of every image
// the batch carried. Zero timestamps mean the batch never reached that
// stage. Spans exist only when tracing is enabled, so the hot path pays
// nothing by default.
type Span struct {
	// Batch is the batch sequence number (core.Batch.Seq).
	Batch int `json:"batch"`
	// Collected is when the first item of the batch was collected.
	Collected time.Time `json:"collected"`
	// BufAcquired is when get_item returned the batch's HugePage buffer.
	BufAcquired time.Time `json:"buf_acquired"`
	// Sealed is when the batch stopped accepting items.
	Sealed time.Time `json:"sealed"`
	// Published is when the batch was pushed onto the Full queue.
	Published time.Time `json:"published"`
	// Dispatched is when the Dispatcher popped the batch.
	Dispatched time.Time `json:"dispatched"`
	// Synced is when the batch's host→device copy stream synchronised.
	Synced time.Time `json:"synced"`
	// Recycled is when the batch's buffer returned to the pool.
	Recycled time.Time `json:"recycled"`
	// Images is how many items the batch carried; FPGA, Fallback and
	// Failed are the terminal states (span conservation: the three sum
	// to Images for every completed span).
	Images   int `json:"images"`
	FPGA     int `json:"fpga"`
	Fallback int `json:"fallback"`
	Failed   int `json:"failed"`
}

// spanKeep bounds the recent-span ring carried in snapshots.
const spanKeep = 64

// queueProbe reads one queue's depth and capacity at snapshot time.
type queueProbe struct {
	length   func() int
	capacity func() int
}

// Registry aggregates every pipeline component's instruments into one
// place so a single Snapshot covers the whole system: counters (push- or
// pull-based), per-stage latency histograms, queue-depth probes, gauges,
// the event log, busy-core accounting and completed batch spans.
//
// All methods are safe on a nil *Registry and do nothing there — the
// same cost contract as internal/faults: components thread a registry
// through unconditionally and the hot path pays one nil check when
// observability is off.
type Registry struct {
	start time.Time

	mu         sync.Mutex
	counters   map[string]*Counter
	counterFns map[string]func() int64
	stages     map[string]*Histogram
	queues     map[string]queueProbe
	gauges     map[string]func() float64
	busy       *BusyTracker
	events     EventLog
	spans      []Span
	spanNext   int
	spanDone   int64
	flight     *FlightRecorder
}

// NewRegistry returns an empty registry stamped with the current time
// (snapshot uptime is measured from it).
func NewRegistry() *Registry {
	return &Registry{
		start:      time.Now(),
		counters:   make(map[string]*Counter),
		counterFns: make(map[string]func() int64),
		stages:     make(map[string]*Histogram),
		queues:     make(map[string]queueProbe),
		gauges:     make(map[string]func() float64),
	}
}

// On reports whether the registry is live; components use it to skip
// building observations (timestamps, copies) that only feed a registry.
func (r *Registry) On() bool { return r != nil }

// Add increments the named push-based counter, creating it on first use.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	r.mu.Unlock()
	c.Add(delta)
}

// Observe records one latency sample, in milliseconds, for a stage.
func (r *Registry) Observe(stage string, ms float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.stages[stage]
	if h == nil {
		h = &Histogram{}
		r.stages[stage] = h
	}
	r.mu.Unlock()
	h.Add(ms)
}

// ObserveSince records the milliseconds elapsed since start for a stage.
func (r *Registry) ObserveSince(stage string, start time.Time) {
	if r == nil {
		return
	}
	r.Observe(stage, float64(time.Since(start))/float64(time.Millisecond))
}

// RegisterCounterFunc exposes an externally maintained counter (e.g. an
// atomic a component increments anyway) under the given name. Pull-based
// counters cost the hot path nothing: they are only read at Snapshot.
func (r *Registry) RegisterCounterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.counterFns[name] = fn
	r.mu.Unlock()
}

// RegisterGauge exposes a point-in-time value read at Snapshot.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// RegisterQueue exposes a queue's depth and capacity, read at Snapshot.
func (r *Registry) RegisterQueue(name string, length, capacity func() int) {
	if r == nil || length == nil || capacity == nil {
		return
	}
	r.mu.Lock()
	r.queues[name] = queueProbe{length: length, capacity: capacity}
	r.mu.Unlock()
}

// SetBusy attaches a BusyTracker; Snapshot reports its per-component
// cores consumed over the registry's uptime.
func (r *Registry) SetBusy(b *BusyTracker) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.busy = b
	r.mu.Unlock()
}

// AttachFlight connects a flight recorder: every Event and completed
// span is forwarded into its rings from then on, so the recorder's
// post-mortem dumps carry the same history the registry sees. A nil
// recorder detaches.
func (r *Registry) AttachFlight(f *FlightRecorder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.flight = f
	r.mu.Unlock()
}

// flightRec returns the attached flight recorder (nil-safe).
func (r *Registry) flightRec() *FlightRecorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flight
}

// Event records a state-change event (degraded-mode switches, device
// replacements) into the registry's event log and, when a flight
// recorder is attached, into its note ring (where it may trigger a
// post-mortem dump).
func (r *Registry) Event(name, detail string) {
	if r == nil {
		return
	}
	r.events.Record(name, detail)
	r.flightRec().Note(name, detail)
}

// Events returns a snapshot of the event log in record order.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events.Events()
}

// EventCount returns the number of recorded events with the given name.
func (r *Registry) EventCount(name string) int {
	if r == nil {
		return 0
	}
	return r.events.Count(name)
}

// CompleteSpan ingests one finished batch span: it feeds the derived
// stage histograms (assemble, full_queue_wait, copy_sync, recycle,
// batch_e2e), bumps the span-conservation counters, and keeps the span
// in a bounded recent ring for snapshots.
func (r *Registry) CompleteSpan(sp Span) {
	if r == nil {
		return
	}
	observe := func(stage string, from, to time.Time) {
		if from.IsZero() || to.IsZero() {
			return
		}
		r.Observe(stage, float64(to.Sub(from))/float64(time.Millisecond))
	}
	observe(StageAssemble, sp.Collected, sp.Published)
	observe(StageFullQueueWait, sp.Published, sp.Dispatched)
	observe(StageCopySync, sp.Dispatched, sp.Synced)
	observe(StageRecycle, sp.Synced, sp.Recycled)
	observe(StageBatchE2E, sp.Collected, sp.Recycled)
	r.Add("span_images_total", int64(sp.Images))
	r.Add("span_images_fpga_total", int64(sp.FPGA))
	r.Add("span_images_fallback_total", int64(sp.Fallback))
	r.Add("span_images_failed_total", int64(sp.Failed))
	r.mu.Lock()
	if len(r.spans) < spanKeep {
		r.spans = append(r.spans, sp)
	} else {
		r.spans[r.spanNext] = sp
		r.spanNext = (r.spanNext + 1) % spanKeep
	}
	r.spanDone++
	f := r.flight
	r.mu.Unlock()
	f.Span(sp)
}

// QueueDepth is one queue's occupancy at snapshot time.
type QueueDepth struct {
	Len int `json:"len"`
	Cap int `json:"cap"`
}

// PipelineSnapshot is the unified, serialisable view of the whole
// pipeline's telemetry at one instant: every counter, stage latency
// summary, queue depth, gauge, busy-core estimate, event and recent
// span. It marshals to JSON directly and renders as Prometheus text
// (WritePrometheus).
type PipelineSnapshot struct {
	TakenAt        time.Time             `json:"taken_at"`
	UptimeSeconds  float64               `json:"uptime_seconds"`
	Counters       map[string]int64      `json:"counters"`
	Gauges         map[string]float64    `json:"gauges"`
	Stages         map[string]Summary    `json:"stages"`
	Queues         map[string]QueueDepth `json:"queues"`
	Cores          map[string]float64    `json:"cores,omitempty"`
	Events         []Event               `json:"events,omitempty"`
	SpansCompleted int64                 `json:"spans_completed"`
	RecentSpans    []Span                `json:"recent_spans,omitempty"`
}

// Snapshot aggregates every registered instrument into one consistent
// view. It is pull-based: gauges, queue probes and counter funcs are
// read here, so components that only register probes pay zero hot-path
// cost. A nil registry returns nil.
func (r *Registry) Snapshot() *PipelineSnapshot {
	if r == nil {
		return nil
	}
	now := time.Now()
	s := &PipelineSnapshot{
		TakenAt:       now,
		UptimeSeconds: now.Sub(r.start).Seconds(),
		Counters:      make(map[string]int64),
		Gauges:        make(map[string]float64),
		Stages:        make(map[string]Summary),
		Queues:        make(map[string]QueueDepth),
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	counterFns := make(map[string]func() int64, len(r.counterFns))
	for k, v := range r.counterFns {
		counterFns[k] = v
	}
	stages := make(map[string]*Histogram, len(r.stages))
	for k, v := range r.stages {
		stages[k] = v
	}
	queues := make(map[string]queueProbe, len(r.queues))
	for k, v := range r.queues {
		queues[k] = v
	}
	gauges := make(map[string]func() float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	busy := r.busy
	s.SpansCompleted = r.spanDone
	s.RecentSpans = append([]Span(nil), r.spans...)
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, fn := range counterFns {
		s.Counters[k] = fn()
	}
	for k, h := range stages {
		s.Stages[k] = h.Summarize()
	}
	for k, q := range queues {
		s.Queues[k] = QueueDepth{Len: q.length(), Cap: q.capacity()}
	}
	for k, fn := range gauges {
		s.Gauges[k] = fn()
	}
	if busy != nil {
		s.Cores = busy.Cores(s.UptimeSeconds)
	}
	s.Events = r.events.Events()
	return s
}

// JSON renders the snapshot as indented JSON.
func (s *PipelineSnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// sortedKeys returns the map keys in deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promLabelEscaper applies the Prometheus text-format label-value
// escaping rules: backslash, double-quote and line feed are the only
// escapes the exposition format defines (Go's %q would also escape
// tabs and non-ASCII, which strict parsers read literally).
var promLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabel renders one label="value" pair with spec-correct escaping.
func promLabel(name, value string) string {
	return name + `="` + promLabelEscaper.Replace(value) + `"`
}

// promHeader renders the paired HELP/TYPE comment block for a metric —
// the exposition format wants HELP and TYPE once per metric family,
// before its first sample.
func promHeader(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format, every series prefixed dlbooster_ and every metric family led
// by a HELP/TYPE pair. Stage latencies become
// dlbooster_stage_latency_ms{stage=...,quantile=...} plus _count/_sum
// series; queues become dlbooster_queue_depth / dlbooster_queue_capacity
// with a queue label; events become dlbooster_events_total by name.
// Label values use the exposition format's escaping (backslash, quote,
// newline); prom_test.go validates the output against a minimal parser.
func (s *PipelineSnapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	promHeader(&b, "dlbooster_uptime_seconds", "seconds since the registry was created", "gauge")
	fmt.Fprintf(&b, "dlbooster_uptime_seconds %g\n", s.UptimeSeconds)
	for _, k := range sortedKeys(s.Counters) {
		promHeader(&b, "dlbooster_"+k, "cumulative count of "+k+" (see docs/METRICS.md)", "counter")
		fmt.Fprintf(&b, "dlbooster_%s %d\n", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		promHeader(&b, "dlbooster_"+k, "point-in-time value of "+k+" (see docs/METRICS.md)", "gauge")
		fmt.Fprintf(&b, "dlbooster_%s %g\n", k, s.Gauges[k])
	}
	if len(s.Queues) > 0 {
		promHeader(&b, "dlbooster_queue_depth", "queue occupancy at snapshot time", "gauge")
		for _, k := range sortedKeys(s.Queues) {
			fmt.Fprintf(&b, "dlbooster_queue_depth{%s} %d\n", promLabel("queue", k), s.Queues[k].Len)
		}
		promHeader(&b, "dlbooster_queue_capacity", "queue capacity at snapshot time", "gauge")
		for _, k := range sortedKeys(s.Queues) {
			fmt.Fprintf(&b, "dlbooster_queue_capacity{%s} %d\n", promLabel("queue", k), s.Queues[k].Cap)
		}
	}
	if len(s.Stages) > 0 {
		promHeader(&b, "dlbooster_stage_latency_ms", "per-stage latency distribution in milliseconds", "summary")
		for _, k := range sortedKeys(s.Stages) {
			sm := s.Stages[k]
			st := promLabel("stage", k)
			fmt.Fprintf(&b, "dlbooster_stage_latency_ms{%s,quantile=\"0.5\"} %g\n", st, sm.P50)
			fmt.Fprintf(&b, "dlbooster_stage_latency_ms{%s,quantile=\"0.95\"} %g\n", st, sm.P95)
			fmt.Fprintf(&b, "dlbooster_stage_latency_ms{%s,quantile=\"0.99\"} %g\n", st, sm.P99)
			fmt.Fprintf(&b, "dlbooster_stage_latency_ms_count{%s} %d\n", st, sm.Count)
			fmt.Fprintf(&b, "dlbooster_stage_latency_ms_sum{%s} %g\n", st, sm.Mean*float64(sm.Count))
		}
	}
	if len(s.Cores) > 0 {
		promHeader(&b, "dlbooster_cores", "busy-cores estimate per component", "gauge")
		for _, k := range sortedKeys(s.Cores) {
			fmt.Fprintf(&b, "dlbooster_cores{%s} %g\n", promLabel("component", k), s.Cores[k])
		}
	}
	if len(s.Events) > 0 {
		counts := make(map[string]int64)
		for _, e := range s.Events {
			counts[e.Name]++
		}
		promHeader(&b, "dlbooster_events_total", "state-change events recorded, by name", "counter")
		for _, k := range sortedKeys(counts) {
			fmt.Fprintf(&b, "dlbooster_events_total{%s} %d\n", promLabel("name", k), counts[k])
		}
	}
	promHeader(&b, "dlbooster_spans_completed_total", "completed batch spans", "counter")
	fmt.Fprintf(&b, "dlbooster_spans_completed_total %d\n", s.SpansCompleted)
	_, err := io.WriteString(w, b.String())
	return err
}
