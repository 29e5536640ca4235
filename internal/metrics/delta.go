package metrics

// SnapshotDelta is the rate-form view of the interval between two
// snapshots: counter differences and per-second rates over the elapsed
// seconds, plus the events recorded inside the interval. It exists
// because snapshot counters are cumulative-only — comparing two raw
// /metrics.json captures by hand is the footgun Delta removes — and it
// is what every History sample, and so the doctor and the SLO window,
// reads.
type SnapshotDelta struct {
	// Seconds is the interval length the rates are derived over.
	Seconds float64 `json:"seconds"`
	// Counters holds cur − prev for every counter present in cur. A
	// counter absent from prev diffs against zero; a negative value
	// means the registry restarted between captures.
	Counters map[string]int64 `json:"counters"`
	// Rates is Counters divided by Seconds (none when Seconds ≤ 0: an
	// unmeasurable interval makes no rate claims).
	Rates map[string]float64 `json:"rates"`
	// SpansCompleted is the span-count difference.
	SpansCompleted int64 `json:"spans_completed"`
	// Events are the events recorded strictly after prev was taken.
	Events []Event `json:"events,omitempty"`
}

// Delta diffs the snapshot against an earlier one over an interval of
// the given length, returning rate-form counters. A nil prev diffs
// against the registry's start: every counter whole. History.Record
// passes the measured interval (the snapshots' wall-clock gap, or the
// uptime gap when the wall clocks are unusable). A nil s returns nil.
func (s *PipelineSnapshot) Delta(prev *PipelineSnapshot, seconds float64) *SnapshotDelta {
	if s == nil {
		return nil
	}
	d := &SnapshotDelta{
		Counters:       make(map[string]int64, len(s.Counters)),
		Rates:          make(map[string]float64, len(s.Counters)),
		SpansCompleted: s.SpansCompleted,
		Seconds:        seconds,
	}
	if prev != nil {
		d.SpansCompleted -= prev.SpansCompleted
	}
	for k, v := range s.Counters {
		if prev != nil {
			v -= prev.Counters[k]
		}
		d.Counters[k] = v
	}
	d.deriveRates()
	for _, e := range s.Events {
		if prev == nil || e.At.After(prev.TakenAt) {
			d.Events = append(d.Events, e)
		}
	}
	return d
}

// deriveRates fills Rates from Counters over Seconds.
func (d *SnapshotDelta) deriveRates() {
	if d.Seconds <= 0 {
		return
	}
	for k, v := range d.Counters {
		d.Rates[k] = float64(v) / d.Seconds
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
