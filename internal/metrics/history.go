// Windowed telemetry: the History ring of periodic snapshot samples and
// the Sampler goroutine that fills it. Every other observability surface
// in this package is point-in-time — PipelineSnapshot is cumulative-only
// — but the questions the SLO scorecard and the doctor answer
// ("decoder-bound for the last 45 s" vs "one transient spike", "what
// throughput did the last window sustain") only exist over windows. A
// History keeps the last N samples, each carrying the interval view
// since its predecessor, computed once in Record: the doctor reads one
// sample as one window, Window sums samples (stage bucket counts
// included, the arithmetic the fleet rollup uses), MergeHistories adds
// aligned shard samples, and the flight recorder dumps them.

package metrics

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"time"
)

// HistorySample is one entry of a History ring — one telemetry
// interval: the trimmed cumulative snapshot at sample time, the
// rate-form delta against the previous sample, and the interval stage
// summaries.
type HistorySample struct {
	// TakenAt is when the sample was captured.
	TakenAt time.Time `json:"taken_at"`
	// Seconds is the measured interval length: the wall-clock gap
	// between this sample's TakenAt and its predecessor's, not the
	// sampler's nominal tick. Under CPU saturation time.Ticker drops
	// ticks and one sample spans several nominal intervals; every rate
	// in Delta is derived from this measured value, so windowed rates
	// and SLO burn math stay honest when the sampler stalls. The first
	// sample covers the whole registry uptime.
	Seconds float64 `json:"seconds"`
	// Snapshot is the cumulative snapshot — counters, gauges, queue
	// depths — trimmed of stages, events and recent spans so a long ring
	// stays bounded: stage summaries live in IntervalStages and events in
	// Delta instead.
	Snapshot *PipelineSnapshot `json:"snapshot"`
	// Delta is the interval view against the previous sample (against
	// the registry's start for the first sample): counter differences,
	// per-second rates, and the events recorded inside the interval.
	Delta *SnapshotDelta `json:"delta"`
	// IntervalStages are the per-stage summaries of observations that
	// landed inside this interval (since registry start for the first
	// sample).
	IntervalStages map[string]Summary `json:"interval_stages,omitempty"`
}

// SubtractSummaries returns the interval view of a cumulative stage
// summary pair: Count and the bucket counts are cur − prev, Mean is
// the interval mean recovered from the sums, and the percentiles are
// re-ranked over the interval's buckets. The interval's Min and Max are
// cur's clamped to the edges of its occupied bucket span, so they and
// the percentiles stay within the histogram's 2⁻⁵ bound. A prev with no
// samples returns cur unchanged; an interval with no new samples, or a
// restarted registry (a count of cur below prev's), returns a zero
// Summary.
func SubtractSummaries(cur, prev Summary) Summary {
	if prev.Count == 0 {
		return cur
	}
	n := cur.Count - prev.Count
	if n <= 0 {
		return Summary{}
	}
	counts := append([]uint64(nil), cur.counts...)
	for i, c := range prev.counts {
		j := prev.first - cur.first + i
		if j < 0 || j >= len(counts) || counts[j] < c {
			return Summary{}
		}
		counts[j] -= c
	}
	mean := (cur.Mean*float64(cur.Count) - prev.Mean*float64(prev.Count)) / float64(n)
	return newSummary(n, mean, cur.Min, cur.Max, cur.first, counts)
}

// QueueTrend is one queue's behaviour across a window: fill fraction at
// the window's edges, the mean fill, and the least-squares slope of fill
// per second, classified into a direction.
type QueueTrend struct {
	// First and Last are the fill fractions (len/cap) at the window's
	// oldest and newest samples.
	First float64 `json:"first"`
	Last  float64 `json:"last"`
	// Mean is the average fill across the window's samples.
	Mean float64 `json:"mean"`
	// SlopePerSec is the least-squares slope of fill fraction per
	// second — positive means the queue is filling.
	SlopePerSec float64 `json:"slope_per_sec"`
	// Direction is "rising", "falling" or "flat" (|slope| under
	// trendFlatSlope is flat).
	Direction string `json:"direction"`
}

// trendFlatSlope is the |fill/s| below which a queue trend reads "flat":
// a queue would take over a minute to traverse its full capacity.
const trendFlatSlope = 1.0 / 60

// WindowStats is the rolled-up view of the samples inside one window:
// summed counter deltas and their rates, the interval stage summaries
// merged (bucket counts summed), per-queue trends, the latest gauges,
// and every event recorded inside the window. It is what SLO evaluation
// consumes.
type WindowStats struct {
	// Seconds is the window's measured length (sum of sample intervals).
	Seconds float64 `json:"seconds"`
	// Samples is how many history samples the window covered.
	Samples int `json:"samples"`
	// From and To bound the window (first and last sample times).
	From time.Time `json:"from"`
	To   time.Time `json:"to"`
	// Counters are the summed interval deltas; Rates divide by Seconds.
	Counters map[string]int64   `json:"counters"`
	Rates    map[string]float64 `json:"rates"`
	// Stages are the window's stage summaries: the samples' interval
	// summaries merged via MergeSummaries.
	Stages map[string]Summary `json:"stages,omitempty"`
	// Queues holds the per-queue fill trends across the window.
	Queues map[string]QueueTrend `json:"queues,omitempty"`
	// Gauges are the newest sample's gauge readings.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Events are the events recorded inside the window, oldest first.
	Events []Event `json:"events,omitempty"`
}

// Rate returns one counter's per-second rate over the window (0 when
// unknown or the window is empty).
func (w *WindowStats) Rate(name string) float64 {
	if w == nil {
		return 0
	}
	return w.Rates[name]
}

// History is a bounded ring of HistorySamples, oldest evicted first.
// Record is cheap (one trim, one delta, one subtraction per stage); the
// windowed queries walk the ring under the lock. All methods are safe
// on a nil *History and return zero values there — the same cost
// contract as Registry, so a pipeline without a sampler pays nothing.
type History struct {
	mu   sync.Mutex
	cap  int
	ring []HistorySample
	next int
	n    int64 // lifetime samples recorded
	// stages are the newest recorded cumulative stage summaries: the
	// base the next sample's interval stages subtract, and the only
	// cumulative bucket counts the ring holds.
	stages map[string]Summary
}

// DefaultHistorySamples is the ring capacity when HistoryConfig leaves
// it zero: at the default 1 s sampling interval, two minutes of history.
const DefaultHistorySamples = 120

// NewHistory returns an empty ring holding up to capacity samples
// (DefaultHistorySamples when capacity ≤ 0).
func NewHistory(capacity int) *History {
	if capacity <= 0 {
		capacity = DefaultHistorySamples
	}
	return &History{cap: capacity}
}

// trimSnapshot drops the unbounded and interval-derived parts of a
// snapshot (stages, events, recent spans) so a ring of samples stays
// small; the sample keeps interval stages and interval events instead.
func trimSnapshot(s *PipelineSnapshot) *PipelineSnapshot {
	t := *s
	t.Stages = nil
	t.Events = nil
	t.RecentSpans = nil
	return &t
}

// Record appends one cumulative snapshot as a sample, computing its
// interval against the previous sample once: the measured seconds
// first, then the delta and rates over them, then the interval stage
// summaries. Nil receivers and nil snapshots are ignored, so callers
// can thread an optional history unconditionally.
func (h *History) Record(s *PipelineSnapshot) {
	if h == nil || s == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sample := HistorySample{TakenAt: s.TakenAt, Seconds: s.UptimeSeconds, IntervalStages: s.Stages}
	var prev *PipelineSnapshot
	if h.len() > 0 {
		prev = h.at(h.len() - 1).Snapshot
		// The measured elapsed time: the snapshots' own wall clocks, not
		// the uptime diff (negative after a registry restart) and not
		// the nominal sampler tick (wrong when the ticker drops ticks
		// under CPU saturation).
		sample.Seconds = s.UptimeSeconds - prev.UptimeSeconds
		if !prev.TakenAt.IsZero() && s.TakenAt.After(prev.TakenAt) {
			sample.Seconds = s.TakenAt.Sub(prev.TakenAt).Seconds()
		}
		sample.IntervalStages = make(map[string]Summary, len(s.Stages))
		for k, cur := range s.Stages {
			if iv := SubtractSummaries(cur, h.stages[k]); iv.Count > 0 {
				sample.IntervalStages[k] = iv
			}
		}
	}
	sample.Delta = s.Delta(prev, sample.Seconds)
	sample.Snapshot = trimSnapshot(s)
	h.stages = s.Stages
	h.push(sample)
}

// push appends a sample, evicting the oldest when the ring is full.
func (h *History) push(sample HistorySample) {
	if len(h.ring) < h.cap {
		h.ring = append(h.ring, sample)
	} else {
		h.ring[h.next] = sample
		h.next = (h.next + 1) % h.cap
	}
	h.n++
}

// len and at index the ring oldest-first under h.mu.
func (h *History) len() int { return len(h.ring) }
func (h *History) at(i int) *HistorySample {
	if len(h.ring) < h.cap {
		return &h.ring[i]
	}
	return &h.ring[(h.next+i)%h.cap]
}

// Len returns how many samples the ring currently holds.
func (h *History) Len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.len()
}

// Recorded returns the lifetime sample count (the ring keeps only the
// most recent Cap of them).
func (h *History) Recorded() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Cap returns the ring capacity (0 for a nil history).
func (h *History) Cap() int {
	if h == nil {
		return 0
	}
	return h.cap
}

// Samples returns a copy of the ring, oldest first.
func (h *History) Samples() []HistorySample {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HistorySample, h.len())
	for i := range out {
		out[i] = *h.at(i)
	}
	return out
}

// Latest returns the newest sample, or nil when the ring is empty.
func (h *History) Latest() *HistorySample {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.len() == 0 {
		return nil
	}
	s := *h.at(h.len() - 1)
	return &s
}

// Window rolls up the samples whose interval ended within the trailing
// window of the given length (0 or negative covers the whole ring): the
// summed counter deltas with rates, the merged interval stage
// summaries, per-queue fill trends, newest gauges and the events
// recorded inside the window. The first sample of a history covers the
// whole registry uptime, so a window that reaches it reports since
// registry start. Nil histories and empty rings return nil.
func (h *History) Window(window time.Duration) *WindowStats {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.len()
	if n == 0 {
		return nil
	}
	newest := h.at(n - 1).TakenAt
	start := 0
	if window > 0 {
		cutoff := newest.Add(-window)
		for start < n-1 && !h.at(start).TakenAt.After(cutoff) {
			start++
		}
	}
	w := &WindowStats{
		Counters: make(map[string]int64),
		Rates:    make(map[string]float64),
		Stages:   make(map[string]Summary),
		From:     h.at(start).TakenAt,
		To:       newest,
	}
	fills := make(map[string][]fillPoint)
	for i := start; i < n; i++ {
		s := h.at(i)
		w.Samples++
		w.Seconds += s.Seconds
		for k, v := range s.Delta.Counters {
			w.Counters[k] += v
		}
		w.Events = append(w.Events, s.Delta.Events...)
		for k, iv := range s.IntervalStages {
			w.Stages[k] = MergeSummaries(w.Stages[k], iv)
		}
		at := s.TakenAt.Sub(w.From).Seconds()
		for k, q := range s.Snapshot.Queues {
			if q.Cap > 0 {
				fills[k] = append(fills[k], fillPoint{t: at, fill: float64(q.Len) / float64(q.Cap)})
			}
		}
		if i == n-1 {
			w.Gauges = s.Snapshot.Gauges
		}
	}
	if w.Seconds > 0 {
		for k, v := range w.Counters {
			w.Rates[k] = float64(v) / w.Seconds
		}
	}
	if len(fills) > 0 {
		w.Queues = make(map[string]QueueTrend, len(fills))
		for k, pts := range fills {
			w.Queues[k] = queueTrend(pts)
		}
	}
	return w
}

// fillPoint is one (elapsed-seconds, fill-fraction) observation of a
// queue inside a window.
type fillPoint struct{ t, fill float64 }

// queueTrend fits a least-squares line through (time, fill) points and
// classifies the slope.
func queueTrend(pts []fillPoint) QueueTrend {
	tr := QueueTrend{First: pts[0].fill, Last: pts[len(pts)-1].fill}
	var sumT, sumF float64
	for _, p := range pts {
		sumT += p.t
		sumF += p.fill
	}
	n := float64(len(pts))
	tr.Mean = sumF / n
	meanT := sumT / n
	var num, den float64
	for _, p := range pts {
		num += (p.t - meanT) * (p.fill - tr.Mean)
		den += (p.t - meanT) * (p.t - meanT)
	}
	if den > 0 {
		tr.SlopePerSec = num / den
	}
	switch {
	case math.Abs(tr.SlopePerSec) < trendFlatSlope:
		tr.Direction = "flat"
	case tr.SlopePerSec > 0:
		tr.Direction = "rising"
	default:
		tr.Direction = "falling"
	}
	return tr
}

// HistoryDump is the serialisable view of a History — the dlserve
// /history.json payload: ring geometry plus the samples oldest first.
type HistoryDump struct {
	Capacity int             `json:"capacity"`
	Recorded int64           `json:"recorded"`
	Samples  []HistorySample `json:"samples"`
}

// JSON renders the history as indented JSON (a nil history renders an
// empty dump, so HTTP handlers need no nil check).
func (h *History) JSON() ([]byte, error) {
	d := HistoryDump{Capacity: h.Cap(), Recorded: h.Recorded(), Samples: h.Samples()}
	return json.MarshalIndent(d, "", "  ")
}

// MergeHistories rolls per-shard histories into one fleet history the
// way MergeSnapshots rolls snapshots: samples align by position from the
// newest end (shards sampled by one fleet sampler tick together), and
// each aligned set adds up into one sample — trimmed snapshots via
// MergeSnapshots, interval counters and events summed, interval stages
// via MergeSummaries, Seconds the longest aligned interval. A merged
// window is therefore the sum of the shards' windows, whatever the ring
// depths. Nil and empty histories are skipped; the result's capacity is
// the largest input capacity (nil when none have samples).
func MergeHistories(hs []*History) *History {
	depth, capacity := 0, 0
	samples := make([][]HistorySample, 0, len(hs))
	for _, h := range hs {
		s := h.Samples()
		if len(s) == 0 {
			continue
		}
		samples = append(samples, s)
		if depth == 0 || len(s) < depth {
			depth = len(s)
		}
		capacity = max(capacity, h.Cap())
	}
	if depth == 0 {
		return nil
	}
	merged := NewHistory(capacity)
	for i := depth; i >= 1; i-- {
		snaps := make([]*PipelineSnapshot, 0, len(samples))
		d := &SnapshotDelta{Counters: make(map[string]int64), Rates: make(map[string]float64)}
		sample := HistorySample{Delta: d, IntervalStages: make(map[string]Summary)}
		for _, s := range samples {
			p := s[len(s)-i]
			snaps = append(snaps, p.Snapshot)
			sample.Seconds = max(sample.Seconds, p.Seconds)
			for k, v := range p.Delta.Counters {
				d.Counters[k] += v
			}
			d.SpansCompleted += p.Delta.SpansCompleted
			d.Events = append(d.Events, p.Delta.Events...)
			for k, iv := range p.IntervalStages {
				sample.IntervalStages[k] = MergeSummaries(sample.IntervalStages[k], iv)
			}
		}
		sample.Snapshot = MergeSnapshots(snaps).Total
		sample.Snapshot.Stages = nil
		sample.TakenAt = sample.Snapshot.TakenAt
		d.Seconds = sample.Seconds
		d.deriveRates()
		sort.SliceStable(d.Events, func(i, j int) bool { return d.Events[i].At.Before(d.Events[j].At) })
		merged.push(sample)
	}
	return merged
}

// SamplerConfig tunes a Sampler. The zero value is usable: 1 s interval,
// DefaultHistorySamples of history.
type SamplerConfig struct {
	// Interval is the sampling period (default 1 s).
	Interval time.Duration
	// Capacity bounds the history ring (default DefaultHistorySamples).
	Capacity int
}

// Sampler periodically snapshots one registry into a History ring — the
// sensing loop under the SLO scorecard and the doctor. It
// costs the pipeline's hot path nothing: Snapshot is pull-based, and
// without a sampler (or with a nil registry) no goroutine exists at all.
// All methods are safe on a nil *Sampler.
type Sampler struct {
	reg  *Registry
	hist *History
	tick time.Duration

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewSampler builds a sampler over the registry. A nil registry returns
// a nil sampler — Start, Stop and History on it are no-ops, preserving
// the package's nil-registry cost contract end to end.
func NewSampler(reg *Registry, cfg SamplerConfig) *Sampler {
	if reg == nil {
		return nil
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	return &Sampler{reg: reg, hist: NewHistory(cfg.Capacity), tick: cfg.Interval}
}

// History returns the sampler's ring (nil for a nil sampler). It is
// valid before Start and after Stop; Record keeps working either way.
func (s *Sampler) History() *History {
	if s == nil {
		return nil
	}
	return s.hist
}

// Start launches the sampling goroutine; it records one sample
// immediately so the history is never empty while running. Idempotent.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()
	go func() {
		defer close(done)
		s.hist.Record(s.reg.Snapshot())
		t := time.NewTicker(s.tick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.hist.Record(s.reg.Snapshot())
			}
		}
	}()
}

// Stop halts the sampling goroutine and joins it, recording one final
// sample so the history covers the full run. Idempotent; safe without
// Start.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
	s.hist.Record(s.reg.Snapshot())
}
