package metrics

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// doctorEpoch is the fixture registries' start: a fixture snapshot is
// taken at doctorEpoch + UptimeSeconds, so its wall clock and its
// uptime agree the way a registry's do.
var doctorEpoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// doctorSnap builds a synthetic snapshot with the queue signature and
// stage stats a scenario needs.
func doctorSnap(mut func(*PipelineSnapshot)) *PipelineSnapshot {
	s := &PipelineSnapshot{
		UptimeSeconds: 10,
		Counters: map[string]int64{
			"images_decoded_total": 1000,
			"fpga0_cmds_total":     1000,
		},
		Gauges: map[string]float64{"degraded": 0},
		Stages: map[string]Summary{
			StageFPGADecode: summaryOf(1000, 1, 3),
			StageBatchE2E:   summaryOf(125, 10, 30),
		},
		Queues: map[string]QueueDepth{
			"full_batch":    {Len: 2, Cap: 8},
			"trans0_full":   {Len: 1, Cap: 2},
			"hugepage_free": {Len: 4, Cap: 8},
		},
	}
	mut(s)
	s.TakenAt = doctorEpoch.Add(time.Duration(s.UptimeSeconds * float64(time.Second)))
	return s
}

// windowOf reads the window from prev to cur (cur alone when prev is
// nil): the newest sample of the history those snapshots record.
func windowOf(cur, prev *PipelineSnapshot, boards int) *Diagnosis {
	h := NewHistory(2)
	h.Record(prev)
	h.Record(cur)
	return diagnoseWindow(h.Latest(), boards)
}

// diagnoseFixture runs the window rules on one fixture window, then
// checks that the doctor over the same window as a history of one shard
// — one sample when prev is nil, two otherwise — loses nothing: the
// same verdict, findings and throughput in one window, and a one-shard
// spread that is the shard itself.
func diagnoseFixture(t *testing.T, cur, prev *PipelineSnapshot) *Diagnosis {
	t.Helper()
	h := NewHistory(2)
	h.Record(prev)
	h.Record(cur)
	w := diagnoseWindow(h.Latest(), 1)
	d := Diagnose([]*History{h})
	if d == nil {
		t.Fatal("Diagnose over a non-empty history returned nil")
	}
	if d.Verdict != w.Verdict || d.Throughput != w.Throughput || !reflect.DeepEqual(d.Findings, w.Findings) {
		t.Fatalf("history of one diverges from its window:\nwindow:\n%+v\nhistory:\n%s", w, d.Report())
	}
	if d.Windows != 1 || !reflect.DeepEqual(d.Sequence, []string{w.Verdict}) || d.Sustained || d.Flapping {
		t.Fatalf("one window read as windows=%d sequence=%v sustained=%v flapping=%v",
			d.Windows, d.Sequence, d.Sustained, d.Flapping)
	}
	if len(d.Shards) != 1 || d.Shards[0].Verdict != w.Verdict || d.Summary != "shard 0 is "+w.Verdict {
		t.Fatalf("fleet of one: shards %+v, summary %q", d.Shards, d.Summary)
	}
	return d
}

func TestDoctorDecoderBound(t *testing.T) {
	s := doctorSnap(func(s *PipelineSnapshot) {
		// Downstream drained, decoder saturated: 100 img/s × 10ms mean
		// on one board = util 1.0.
		s.Queues["full_batch"] = QueueDepth{Len: 0, Cap: 8}
		s.Queues["trans0_full"] = QueueDepth{Len: 0, Cap: 2}
		s.Stages[StageFPGADecode] = summaryOf(1000, 8, 12)
	})
	d := diagnoseFixture(t, s, nil)
	if d.Verdict != VerdictDecoderBound {
		t.Fatalf("verdict = %q, want %q\n%s", d.Verdict, VerdictDecoderBound, d.Report())
	}
	if d.Throughput != 100 {
		t.Fatalf("throughput = %v, want 100", d.Throughput)
	}
	if !strings.Contains(d.Report(), "Little's law") {
		t.Fatalf("report lacks the utilisation evidence:\n%s", d.Report())
	}
}

func TestDoctorDispatcherBound(t *testing.T) {
	s := doctorSnap(func(s *PipelineSnapshot) {
		// Full queue backed up while engines starve.
		s.Queues["full_batch"] = QueueDepth{Len: 8, Cap: 8}
		s.Queues["trans0_full"] = QueueDepth{Len: 0, Cap: 2}
		s.Stages[StageCopySync] = summaryOf(125, 10, 20)
	})
	if d := diagnoseFixture(t, s, nil); d.Verdict != VerdictDispatcherBound {
		t.Fatalf("verdict = %q, want %q\n%s", d.Verdict, VerdictDispatcherBound, d.Report())
	}
}

func TestDoctorGPUBound(t *testing.T) {
	s := doctorSnap(func(s *PipelineSnapshot) {
		s.Queues["full_batch"] = QueueDepth{Len: 6, Cap: 8}
		s.Queues["trans0_full"] = QueueDepth{Len: 2, Cap: 2}
	})
	d := diagnoseFixture(t, s, nil)
	if d.Verdict != VerdictGPUBound {
		t.Fatalf("verdict = %q, want %q\n%s", d.Verdict, VerdictGPUBound, d.Report())
	}
	if d.Findings[0].Confidence != 0.95 {
		t.Fatalf("confidence = %v, want 0.95 (Full queue also ≥ half)", d.Findings[0].Confidence)
	}
}

func TestDoctorPoolStarved(t *testing.T) {
	s := doctorSnap(func(s *PipelineSnapshot) {
		// Both queues drained, no free buffer, reader blocked in
		// get_item longer than it decodes.
		s.Queues["full_batch"] = QueueDepth{Len: 0, Cap: 8}
		s.Queues["trans0_full"] = QueueDepth{Len: 0, Cap: 2}
		s.Queues["hugepage_free"] = QueueDepth{Len: 0, Cap: 4}
		s.Stages[StageGetItemWait] = summaryOf(100, 7, 9)
	})
	if d := diagnoseFixture(t, s, nil); d.Verdict != VerdictPoolStarved {
		t.Fatalf("verdict = %q, want %q\n%s", d.Verdict, VerdictPoolStarved, d.Report())
	}
}

func TestDoctorHealthy(t *testing.T) {
	if d := diagnoseFixture(t, doctorSnap(func(*PipelineSnapshot) {}), nil); d.Verdict != VerdictHealthy {
		t.Fatalf("verdict = %q, want %q\n%s", d.Verdict, VerdictHealthy, d.Report())
	}
}

func TestDoctorInconclusiveWithoutProbes(t *testing.T) {
	s := doctorSnap(func(s *PipelineSnapshot) {
		delete(s.Queues, "trans0_full")
	})
	if d := diagnoseFixture(t, s, nil); d.Verdict != VerdictInconclusive {
		t.Fatalf("verdict = %q, want %q\n%s", d.Verdict, VerdictInconclusive, d.Report())
	}
}

func TestDoctorDegradedHealthFinding(t *testing.T) {
	s := doctorSnap(func(s *PipelineSnapshot) {
		// Degraded: the CPU fallback stage substitutes for decode, and a
		// high-confidence "degraded" health finding ranks first without
		// becoming the verdict.
		s.Gauges["degraded"] = 1
		s.Counters["fallback_decodes_total"] = 500
		s.Queues["full_batch"] = QueueDepth{Len: 0, Cap: 8}
		s.Queues["trans0_full"] = QueueDepth{Len: 0, Cap: 2}
		s.Stages[StageCPUFallback] = summaryOf(500, 8, 12)
		delete(s.Stages, StageFPGADecode)
	})
	d := diagnoseFixture(t, s, nil)
	if d.Verdict != VerdictDecoderBound {
		t.Fatalf("verdict = %q, want %q (CPU fallback is the decode stage)\n%s", d.Verdict, VerdictDecoderBound, d.Report())
	}
	if d.Findings[0].Code != "degraded" || d.Findings[0].Confidence != 0.95 {
		t.Fatalf("top finding = %q at %.2f, want degraded at 0.95\n%s", d.Findings[0].Code, d.Findings[0].Confidence, d.Report())
	}
	// Degraded decodes run on the GOMAXPROCS host lanes, not one core.
	if !strings.Contains(d.Findings[0].Advice, "GOMAXPROCS") {
		t.Fatalf("degraded advice does not name the host lanes: %q", d.Findings[0].Advice)
	}
}

func TestDoctorIntervalThroughput(t *testing.T) {
	prev := doctorSnap(func(s *PipelineSnapshot) {
		s.UptimeSeconds = 5
		s.Counters["images_decoded_total"] = 400
	})
	cur := doctorSnap(func(s *PipelineSnapshot) {
		s.UptimeSeconds = 10
		s.Counters["images_decoded_total"] = 1000
	})
	d := diagnoseFixture(t, cur, prev)
	if d.Throughput != 120 {
		t.Fatalf("interval throughput = %v, want (1000-400)/(10-5) = 120", d.Throughput)
	}
}

func TestDoctorIngestOverloaded(t *testing.T) {
	// Sheds in the interval win the verdict even when the internal
	// queues would otherwise read healthy.
	s := doctorSnap(func(s *PipelineSnapshot) {
		s.Queues["ingest_items"] = QueueDepth{Len: 256, Cap: 256}
		s.Counters["serve_shed_total"] = 42
	})
	d := diagnoseFixture(t, s, nil)
	if d.Verdict != VerdictIngestOverloaded {
		t.Fatalf("verdict = %q, want %q\n%s", d.Verdict, VerdictIngestOverloaded, d.Report())
	}
	if d.Findings[0].Confidence != 0.95 {
		t.Fatalf("confidence = %v, want 0.95 (active sheds)", d.Findings[0].Confidence)
	}

	// A backed-up ingest queue alone (no sheds yet) also flags, at
	// lower confidence.
	s = doctorSnap(func(s *PipelineSnapshot) {
		s.Queues["ingest_items"] = QueueDepth{Len: 200, Cap: 256}
	})
	d = diagnoseFixture(t, s, nil)
	if d.Verdict != VerdictIngestOverloaded {
		t.Fatalf("verdict = %q, want %q (queue at fill ≥ %.2f)\n%s", d.Verdict, VerdictIngestOverloaded, fillHigh, d.Report())
	}
	if d.Findings[0].Confidence != 0.85 {
		t.Fatalf("confidence = %v, want 0.85 (no sheds)", d.Findings[0].Confidence)
	}

	// A drained ingest queue must not shadow the regular signatures.
	s = doctorSnap(func(s *PipelineSnapshot) {
		s.Queues["ingest_items"] = QueueDepth{Len: 3, Cap: 256}
	})
	if d := diagnoseFixture(t, s, nil); d.Verdict != VerdictHealthy {
		t.Fatalf("verdict = %q, want %q with idle ingest queue\n%s", d.Verdict, VerdictHealthy, d.Report())
	}
}

func TestDoctorCacheThrashingFinding(t *testing.T) {
	s := doctorSnap(func(s *PipelineSnapshot) {
		s.Counters["cache_evictions_total"] = 9
		s.Counters["cache_demotions_total"] = 40
		s.Counters["cache_redecode_images_total"] = 288
		s.Gauges["cache_spill_bytes"] = 1 << 26
	})
	d := diagnoseFixture(t, s, nil)
	var found *Finding
	for i := range d.Findings {
		if d.Findings[i].Code == "cache-thrashing" {
			found = &d.Findings[i]
		}
	}
	if found == nil {
		t.Fatalf("no cache-thrashing finding in\n%s", d.Report())
	}
	if !strings.Contains(strings.Join(found.Evidence, " "), "cache_evictions_total +9") {
		t.Fatalf("evidence lacks the eviction delta: %v", found.Evidence)
	}
	// A health finding, never the verdict: the structural diagnosis is
	// untouched by a thrashing cache.
	if d.Verdict == "cache-thrashing" {
		t.Fatalf("cache-thrashing became the verdict:\n%s", d.Report())
	}
	// No evictions in the interval → no finding.
	quiet := diagnoseFixture(t, doctorSnap(func(s *PipelineSnapshot) {
		s.Counters["cache_demotions_total"] = 40
	}), nil)
	for _, f := range quiet.Findings {
		if f.Code == "cache-thrashing" {
			t.Fatalf("finding fired without evictions:\n%s", quiet.Report())
		}
	}
}

func TestDoctorCmdTimeoutFinding(t *testing.T) {
	s := doctorSnap(func(s *PipelineSnapshot) {
		s.Counters["cmd_timeouts_total"] = 7
	})
	d := diagnoseFixture(t, s, nil)
	var found bool
	for _, f := range d.Findings {
		if f.Code == "cmd-timeouts" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cmd-timeouts finding in\n%s", d.Report())
	}
}

// trendSnap builds one cumulative snapshot for the trend tests: decode
// throughput 100 img/s with the queue fills chosen per sample.
func trendSnap(t0 time.Time, sec int, fullLen, transLen int) *PipelineSnapshot {
	return &PipelineSnapshot{
		TakenAt:       t0.Add(time.Duration(sec) * time.Second),
		UptimeSeconds: float64(sec),
		Counters: map[string]int64{
			"images_decoded_total": int64(100 * sec),
			"fpga0_cmds_total":     int64(100 * sec),
		},
		Gauges: map[string]float64{"degraded": 0},
		Stages: map[string]Summary{
			StageFPGADecode: summaryOf(100*sec, 8, 12),
			StageBatchE2E:   summaryOf(12*sec, 10, 30),
		},
		Queues: map[string]QueueDepth{
			"full_batch":    {Len: fullLen, Cap: 8},
			"trans0_full":   {Len: transLen, Cap: 2},
			"hugepage_free": {Len: 4, Cap: 8},
		},
	}
}

// TestDiagnoseHistorySustainedVsTransient: the doctor tells a sustained
// decoder-bound history apart from a single transient spike that a
// single window would report with the same confidence.
func TestDiagnoseHistorySustainedVsTransient(t *testing.T) {
	t0 := time.Now()

	// Sustained: every window shows the decoder-bound signature
	// (downstream drained, decoder saturated at util 1.0).
	sustained := NewHistory(16)
	for i := 0; i <= 10; i++ {
		sustained.Record(trendSnap(t0, i, 0, 0))
	}
	d := Diagnose([]*History{sustained})
	if d == nil || d.Verdict != VerdictDecoderBound {
		t.Fatalf("sustained verdict = %+v, want %s", d, VerdictDecoderBound)
	}
	if !d.Sustained || d.Flapping {
		t.Fatalf("sustained run labelled sustained=%v flapping=%v:\n%s", d.Sustained, d.Flapping, d.Report())
	}
	if d.Windows != 10 || d.Ranked[0].Share != 1.0 {
		t.Fatalf("footprint = %+v", d.Ranked)
	}

	// Transient: nine healthy windows around one dispatcher-bound spike.
	// The spike's window alone reports dispatcher-bound at 0.9
	// confidence; the history keeps the healthy story and files the
	// spike as transient.
	transient := NewHistory(16)
	for i := 0; i <= 10; i++ {
		full, trans := 4, 1 // mid fills → healthy
		if i == 5 {
			full, trans = 8, 0 // one spike: Full backed up, engines starved
		}
		transient.Record(trendSnap(t0, i, full, trans))
	}
	d = Diagnose([]*History{transient})
	if d.Verdict != VerdictHealthy {
		t.Fatalf("transient-spike verdict = %s, want %s:\n%s", d.Verdict, VerdictHealthy, d.Report())
	}
	if !d.Sustained {
		t.Fatalf("dominant healthy share %.2f should read sustained:\n%s", d.Ranked[0].Share, d.Report())
	}
	if len(d.Transients) != 1 || d.Transients[0].Verdict != VerdictDispatcherBound {
		t.Fatalf("transients = %+v, want one dispatcher-bound spike", d.Transients)
	}
	// The spike window itself still reads dispatcher-bound — the
	// difference is temporal judgement, not weaker window rules.
	spike := windowOf(trendSnap(t0, 5, 8, 0), trendSnap(t0, 4, 4, 1), 1)
	if spike.Verdict != VerdictDispatcherBound {
		t.Fatalf("spike window verdict = %s", spike.Verdict)
	}
	if !strings.Contains(d.Report(), "transient spike") {
		t.Fatalf("report lacks the transient callout:\n%s", d.Report())
	}
}

func TestDiagnoseHistoryFlapping(t *testing.T) {
	t0 := time.Now()
	h := NewHistory(16)
	for i := 0; i <= 10; i++ {
		if i%2 == 0 {
			h.Record(trendSnap(t0, i, 0, 0)) // decoder-bound signature
		} else {
			h.Record(trendSnap(t0, i, 8, 0)) // dispatcher-bound signature
		}
	}
	d := Diagnose([]*History{h})
	if !d.Flapping {
		t.Fatalf("alternating verdicts not labelled flapping:\n%s", d.Report())
	}
	if d.Sustained {
		t.Fatalf("flapping run labelled sustained:\n%s", d.Report())
	}
	if d.Transitions < 5 {
		t.Fatalf("transitions = %d, want the alternation visible", d.Transitions)
	}
	if !strings.Contains(d.Report(), "FLAPPING") {
		t.Fatalf("report lacks FLAPPING:\n%s", d.Report())
	}
}

func TestDiagnoseHistoryTooShort(t *testing.T) {
	if Diagnose(nil) != nil || Diagnose([]*History{nil}) != nil || Diagnose([]*History{NewHistory(4)}) != nil {
		t.Fatal("no samples should diagnose nil")
	}
	// One sample is one window read against nothing (prev == nil).
	t0 := time.Now()
	h := NewHistory(4)
	h.Record(trendSnap(t0, 1, 0, 0))
	d := Diagnose([]*History{h})
	if want := windowOf(trendSnap(t0, 1, 0, 0), nil, 1); d == nil || d.Windows != 1 || d.Verdict != want.Verdict {
		t.Fatalf("one-sample diagnosis = %+v, want one %s window", d, want.Verdict)
	}
	// Two samples are still one window: a verdict, but no trend labels.
	h.Record(trendSnap(t0, 2, 0, 0))
	d = Diagnose([]*History{h})
	if d.Windows != 1 || d.Sustained || d.Flapping || len(d.Transients) != 0 {
		t.Fatalf("one window is below minTrendWindows — no persistence labels: %+v", d)
	}
	if !strings.Contains(d.Report(), "too few windows") {
		t.Fatalf("report does not say the window is too short for a trend:\n%s", d.Report())
	}
	var none *Diagnosis
	if !strings.Contains(none.Report(), "no telemetry samples") {
		t.Fatal("nil diagnosis report should explain itself")
	}
}

// TestDiagnoseOneShardIsItself: a one-shard slice is diagnosed as it
// is — the fleet verdict and sequence are the shard's own, and the
// spread sentence names shard 0.
func TestDiagnoseOneShardIsItself(t *testing.T) {
	t0 := time.Now()
	h := NewHistory(16)
	for i := 0; i <= 6; i++ {
		h.Record(trendSnap(t0, i, 8*(i%2), 0))
	}
	d := Diagnose([]*History{h})
	if len(d.Shards) != 1 {
		t.Fatalf("shards = %d, want 1", len(d.Shards))
	}
	own := d.Shards[0]
	if d.Verdict != own.Verdict || !reflect.DeepEqual(d.Sequence, own.Sequence) ||
		d.Flapping != own.Flapping || !reflect.DeepEqual(d.Findings, own.Findings) {
		t.Fatalf("fleet of one diverges from its shard:\nfleet %+v\nshard %+v", d, own)
	}
	if d.Summary != "shard 0 is "+own.Verdict {
		t.Fatalf("summary = %q", d.Summary)
	}
	if own.Shards != nil {
		t.Fatal("a shard's own diagnosis carries shards")
	}
}

func TestDiagnoseFleetHistory(t *testing.T) {
	t0 := time.Now()
	// Shard 0 decoder-bound throughout; shard 1 healthy throughout. The
	// merged fleet history sums queues (16-cap full queue at fill 4/16,
	// 4-cap trans at 1/4 → drained signature with decode saturated).
	s0, s1 := NewHistory(16), NewHistory(16)
	for i := 0; i <= 6; i++ {
		s0.Record(trendSnap(t0, i, 0, 0))
		s1.Record(trendSnap(t0, i, 4, 1))
	}
	d := Diagnose([]*History{s0, s1})
	if d == nil || d.Verdict != VerdictDecoderBound || !d.Sustained {
		t.Fatalf("merged verdict = %+v, want sustained %s", d, VerdictDecoderBound)
	}
	if d.Shards[0].Verdict != VerdictDecoderBound || !d.Shards[0].Sustained {
		t.Fatalf("shard 0 = %+v", d.Shards[0])
	}
	if d.Shards[1].Verdict != VerdictHealthy {
		t.Fatalf("shard 1 = %+v", d.Shards[1])
	}
	rep := d.Report()
	if !strings.Contains(rep, "shard 0: decoder-bound") || !strings.Contains(rep, "shard 1: healthy") {
		t.Fatalf("report lacks per-shard lines:\n%s", rep)
	}
	if Diagnose([]*History{NewHistory(4), nil}) != nil {
		t.Fatal("shards without history should diagnose nil")
	}
}

// healthySnapshot and decoderBoundSnapshot build the two queue
// signatures the doctor distinguishes, for the spread-sentence tests.
func healthySnapshot() *PipelineSnapshot {
	return &PipelineSnapshot{
		Counters: map[string]int64{"images_decoded_total": 1000},
		Gauges:   map[string]float64{},
		Stages:   map[string]Summary{StageFPGADecode: summaryOf(100, 0.5, 1.5)},
		Queues: map[string]QueueDepth{
			"full_batch":  {Len: 4, Cap: 8},
			"trans0_full": {Len: 1, Cap: 2},
		},
	}
}

func decoderBoundSnapshot() *PipelineSnapshot {
	return &PipelineSnapshot{
		Counters: map[string]int64{"images_decoded_total": 100},
		Gauges:   map[string]float64{},
		Stages:   map[string]Summary{StageFPGADecode: summaryOf(100, 10, 30)},
		Queues: map[string]QueueDepth{
			"full_batch":  {Len: 0, Cap: 8},
			"trans0_full": {Len: 0, Cap: 2},
		},
	}
}

// snapshotHistories turns each snapshot into a one-sample history —
// a snapshot is a history of one.
func snapshotHistories(snaps ...*PipelineSnapshot) []*History {
	hs := make([]*History, len(snaps))
	for i, s := range snaps {
		hs[i] = NewHistory(1)
		hs[i].Record(s)
	}
	return hs
}

func TestDiagnoseFleetOutlierSentence(t *testing.T) {
	d := Diagnose(snapshotHistories(healthySnapshot(), healthySnapshot(), healthySnapshot(), decoderBoundSnapshot()))
	if d.Summary != "shard 3 is decoder-bound, the rest are healthy" {
		t.Fatalf("spread sentence: %q", d.Summary)
	}
	if len(d.Shards) != 4 || d.Shards[3].Verdict != VerdictDecoderBound {
		t.Fatalf("per-shard verdicts: %+v", d.Shards)
	}
	if want := windowOf(MergeSnapshots([]*PipelineSnapshot{
		healthySnapshot(), healthySnapshot(), healthySnapshot(), decoderBoundSnapshot(),
	}).Total, nil, 4); d.Verdict != want.Verdict {
		t.Fatalf("fleet verdict %q, want the rollup's %q", d.Verdict, want.Verdict)
	}
	if !strings.Contains(d.Report(), "shards: shard 3 is decoder-bound") {
		t.Fatalf("report:\n%s", d.Report())
	}

	uniform := Diagnose(snapshotHistories(healthySnapshot(), healthySnapshot()))
	if uniform.Summary != "all 2 shards are healthy" {
		t.Fatalf("uniform sentence: %q", uniform.Summary)
	}

	// No majority: every shard is named, and a shard without samples
	// reads inconclusive.
	split := Diagnose(append(snapshotHistories(healthySnapshot(), decoderBoundSnapshot()), nil))
	if want := "shard 0 is healthy, shard 1 is decoder-bound, shard 2 is inconclusive"; split.Summary != want {
		t.Fatalf("split sentence: %q, want %q", split.Summary, want)
	}
}

// TestDoctorIdleWindowAfterTraffic: a decoder-bound stretch followed by
// an idle interval. The idle window decoded nothing, so it reads
// healthy — the lifetime decode count must not make it decoder-bound.
func TestDoctorIdleWindowAfterTraffic(t *testing.T) {
	t0 := time.Now()
	busy := trendSnap(t0, 10, 0, 0)
	idle := trendSnap(t0, 10, 0, 0)
	idle.TakenAt, idle.UptimeSeconds = t0.Add(11*time.Second), 11
	if d := windowOf(busy, trendSnap(t0, 9, 0, 0), 1); d.Verdict != VerdictDecoderBound {
		t.Fatalf("busy window = %s, want %s", d.Verdict, VerdictDecoderBound)
	}
	d := diagnoseFixture(t, idle, busy)
	if d.Verdict != VerdictHealthy || d.Throughput != 0 {
		t.Fatalf("idle window = %s at %v img/s, want healthy at 0\n%s", d.Verdict, d.Throughput, d.Report())
	}
}

// TestDiagnoseFleetCountsEveryBoard: two one-board shards at 100 img/s
// each with a 10 ms decode mean keep both boards busy. The merged
// snapshots fold both fpga0_cmds_total counters into one name, so the
// fleet windows must take their board count from the shards.
func TestDiagnoseFleetCountsEveryBoard(t *testing.T) {
	t0 := time.Now()
	s0, s1 := NewHistory(4), NewHistory(4)
	for i := 1; i <= 2; i++ {
		s0.Record(trendSnap(t0, i, 0, 0))
		s1.Record(trendSnap(t0, i, 0, 0))
	}
	d := Diagnose([]*History{s0, s1})
	if d == nil || d.Verdict != VerdictDecoderBound || d.Throughput != 200 {
		t.Fatalf("fleet = %+v, want decoder-bound at 200 img/s", d)
	}
	ev := strings.Join(d.Findings[0].Evidence, "\n")
	if !strings.Contains(ev, "over 2 board(s)") || !strings.Contains(ev, "(util 1.00)") {
		t.Fatalf("fleet evidence does not count both boards:\n%s", d.Report())
	}
	if own := strings.Join(d.Shards[0].Findings[0].Evidence, "\n"); !strings.Contains(own, "over 1 board(s)") || !strings.Contains(own, "(util 1.00)") {
		t.Fatalf("shard evidence:\n%s", own)
	}
}

// TestDiagnoseThroughputIsWindowRate: the doctor and the SLO window
// read one interval. A sampler that stalled stamps a 4 s wall-clock gap
// across a 5 s uptime gap; the doctor's throughput is the sample's own
// rate over the measured 4 s, not a second delta over the uptime gap.
func TestDiagnoseThroughputIsWindowRate(t *testing.T) {
	prev := doctorSnap(func(s *PipelineSnapshot) {
		s.UptimeSeconds = 5
		s.Counters["images_decoded_total"] = 400
	})
	cur := doctorSnap(func(s *PipelineSnapshot) {
		s.UptimeSeconds = 10
		s.Counters["images_decoded_total"] = 1000
	})
	cur.TakenAt = prev.TakenAt.Add(4 * time.Second)
	h := NewHistory(4)
	h.Record(prev)
	h.Record(cur)
	want := h.Latest().Delta.Rate("images_decoded_total")
	if want != 150 {
		t.Fatalf("sample rate = %v, want (1000-400)/4 = 150", want)
	}
	if d := Diagnose([]*History{h}); d == nil || d.Throughput != want {
		t.Fatalf("doctor throughput = %+v, want the window rate %v", d, want)
	}
	// The SLO scorecard's trailing window over that one interval reads
	// the same rate.
	if got := h.Window(4 * time.Second).Rate("images_decoded_total"); got != want {
		t.Fatalf("4s window rate = %v, want %v", got, want)
	}
}
