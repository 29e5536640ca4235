package metrics

// SnapshotDelta is the rate-form view of the interval between two
// snapshots: counter differences and per-second rates over the elapsed
// seconds, plus the events recorded inside the interval. It exists
// because snapshot counters are cumulative-only — comparing two raw
// /metrics.json captures by hand is the footgun Delta removes — and it
// is what the bottleneck doctor consumes.
type SnapshotDelta struct {
	// Seconds is the interval length (uptime difference, or the whole
	// uptime when diffed against nil).
	Seconds float64 `json:"seconds"`
	// Counters holds cur − prev for every counter present in cur. A
	// counter absent from prev diffs against zero; a negative value
	// means the registry restarted between captures.
	Counters map[string]int64 `json:"counters"`
	// Rates is Counters divided by Seconds (zero when Seconds is 0).
	Rates map[string]float64 `json:"rates"`
	// SpansCompleted is the span-count difference.
	SpansCompleted int64 `json:"spans_completed"`
	// Events are the events recorded strictly after prev was taken.
	Events []Event `json:"events,omitempty"`
}

// Delta diffs the snapshot against an earlier one, returning rate-form
// counters over the interval. A nil prev diffs against the registry's
// start: every counter whole, Seconds = uptime. A nil s returns nil.
func (s *PipelineSnapshot) Delta(prev *PipelineSnapshot) *SnapshotDelta {
	if s == nil {
		return nil
	}
	d := &SnapshotDelta{
		Counters:       make(map[string]int64, len(s.Counters)),
		Rates:          make(map[string]float64, len(s.Counters)),
		SpansCompleted: s.SpansCompleted,
		Seconds:        s.UptimeSeconds,
	}
	if prev != nil {
		d.Seconds = s.UptimeSeconds - prev.UptimeSeconds
		d.SpansCompleted = s.SpansCompleted - prev.SpansCompleted
	}
	for k, v := range s.Counters {
		if prev != nil {
			v -= prev.Counters[k]
		}
		d.Counters[k] = v
		if d.Seconds > 0 {
			d.Rates[k] = float64(v) / d.Seconds
		}
	}
	for _, e := range s.Events {
		if prev == nil || e.At.After(prev.TakenAt) {
			d.Events = append(d.Events, e)
		}
	}
	return d
}

// Rebase re-times the delta onto a measured interval length: Seconds
// is replaced and every rate re-derived from the counter differences.
// History.Record uses it to stamp the real wall-clock elapsed time
// (TakenAt differences) over the uptime-diff estimate — under CPU
// saturation time.Ticker drops ticks and one "interval" silently spans
// several, a registry restart makes the uptime diff negative (zeroing
// every rate), and a merged fleet snapshot's UptimeSeconds is a
// cross-shard maximum; the sample wall clock is right in all three
// cases. Non-positive seconds clear the rates — an unmeasurable
// interval makes no rate claims.
func (d *SnapshotDelta) Rebase(seconds float64) {
	if d == nil {
		return
	}
	d.Seconds = seconds
	for k := range d.Rates {
		delete(d.Rates, k)
	}
	if seconds <= 0 {
		return
	}
	for k, v := range d.Counters {
		d.Rates[k] = float64(v) / seconds
	}
}

// Rate returns the per-second rate of one counter over the interval
// (0 when the counter is unknown or the interval empty).
func (d *SnapshotDelta) Rate(name string) float64 {
	if d == nil {
		return 0
	}
	return d.Rates[name]
}
