// The bottleneck doctor codifies docs/METRICS.md's worked example —
// "where is the pipeline limited?" — as one entry point, Diagnose, over
// shard histories: a single pipeline is a fleet of one, a snapshot is a
// history of one. Each window is read for the queue-depth signatures of
// Algorithm 1's back-pressure chain (Free queue → FPGAReader → Full
// queue → Dispatcher → Trans queues → engines), the per-stage p95s,
// Little's-law utilisation and the fault counters, ending in the
// §4-style verdict: which backend stage limits throughput. Across
// windows it judges persistence (sustained, transient spike, or
// flapping at a capacity knee — the autotuner's actuation gate); across
// shards it names outliers: "shard 3 is decoder-bound, the rest are
// healthy".

package metrics

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// Verdict codes the doctor can return, ordered roughly along the
// pipeline. Each is the stage that limits throughput in the §4 sense.
const (
	// VerdictDecoderBound means the FPGA decoder (or the host decode
	// lanes while degraded) is the limiting stage: everything downstream
	// is starved. The paper's lever is plugging more boards (§5.3).
	VerdictDecoderBound = "decoder-bound"
	// VerdictPoolStarved means the Free_Batch_Queue is the limit: the
	// reader blocks in get_item while downstream sits idle, so the
	// HugePage pool is too shallow for the pipeline's depth.
	VerdictPoolStarved = "free-queue-starved"
	// VerdictDispatcherBound means the Dispatcher/copy path is the
	// limit: batches pile up on the Full queue while engines starve —
	// the §5.2 "copying small pieces" regime when PerItemCopy is on.
	VerdictDispatcherBound = "dispatcher-bound"
	// VerdictGPUBound means the compute engines are the limit: Trans
	// Full queues run at capacity and the preprocessing side keeps up —
	// the regime the paper calls reaching the performance boundary.
	VerdictGPUBound = "gpu-bound"
	// VerdictIngestOverloaded means admission control is the story:
	// the serving-side ingest queue is backed up or actively shedding
	// requests (serve_shed_total climbing), so offered load exceeds
	// what the pipeline admits — the online-inference overload regime.
	VerdictIngestOverloaded = "ingest-overloaded"
	// VerdictHealthy means no queue signature shows sustained pressure.
	VerdictHealthy = "healthy"
	// VerdictInconclusive means the signatures disagree or the snapshot
	// lacks the probes to decide (e.g. no Trans queues registered).
	VerdictInconclusive = "inconclusive"
)

// Finding is one ranked observation: a code (a Verdict* constant for
// structural findings, or a health code like "degraded"), a confidence
// in [0,1], the one-line claim, the numeric evidence behind it, and
// what the paper says to do about it.
type Finding struct {
	Code       string   `json:"code"`
	Confidence float64  `json:"confidence"`
	Title      string   `json:"title"`
	Evidence   []string `json:"evidence,omitempty"`
	Advice     string   `json:"advice,omitempty"`
}

// VerdictShare is one verdict's footprint across a history's windows:
// how many windows returned it, and their share of all windows.
type VerdictShare struct {
	Verdict string  `json:"verdict"`
	Windows int     `json:"windows"`
	Share   float64 `json:"share"`
}

// Diagnosis is the doctor's report over a set of shard histories.
// Verdict is the dominant structural verdict across the windows of the
// (merged) history, Sequence the per-window verdicts oldest first,
// Transitions the changes between consecutive windows, and Ranked every
// verdict's footprint, most windows first. From minTrendWindows windows
// on, the dominant verdict is Sustained when it held ≥ sustainedShare
// of them, the history is Flapping when the verdict changed on ≥
// flapTransitionShare of adjacent pairs (load at a capacity knee), and
// Transients are the other verdicts seen on ≤ transientShare — one-off
// spikes, not the story. Throughput (images/s, 0 when not derivable)
// and Findings are the latest window's. Shards holds each shard's own
// diagnosis in shard order (nil for a shard without samples), and
// Summary is their spread sentence.
type Diagnosis struct {
	Verdict     string         `json:"verdict"`
	Sustained   bool           `json:"sustained"`
	Flapping    bool           `json:"flapping"`
	Windows     int            `json:"windows"`
	Transitions int            `json:"transitions"`
	Ranked      []VerdictShare `json:"ranked"`
	Transients  []VerdictShare `json:"transients,omitempty"`
	Sequence    []string       `json:"sequence"`
	Throughput  float64        `json:"throughput_images_per_sec"`
	Findings    []Finding      `json:"findings"`
	Shards      []*Diagnosis   `json:"shards,omitempty"`
	Summary     string         `json:"summary,omitempty"`
}

// fpgaCmdsRe counts decoder boards from their counter names.
var fpgaCmdsRe = regexp.MustCompile(`^fpga\d+_cmds_total$`)

// transFullRe matches the per-solver Trans Full queue probes.
var transFullRe = regexp.MustCompile(`^trans\d+_full$`)

// Thresholds: a queue under fillLow is "drained" and over fillHigh
// "backed up" in the signature rules; the shares and minTrendWindows
// label a history's persistence (see Diagnosis).
const (
	fillLow             = 0.25
	fillHigh            = 0.75
	sustainedShare      = 0.6
	flapTransitionShare = 0.5
	transientShare      = 0.25
	minTrendWindows     = 3
)

// Diagnose is the bottleneck doctor. It merges the shard histories
// (MergeHistories; a one-shard slice is used as it is), reads every
// window — each sample after the first, or a one-sample history's lone
// sample — and ranks the verdicts across time. Each shard is diagnosed
// on its own too, to name outliers. Nil when no shard has a sample.
func Diagnose(shards []*History) *Diagnosis {
	own := make([]*Diagnosis, len(shards))
	boards := 0
	for i, h := range shards {
		n := boardsOf(h)
		own[i] = diagnoseHistory(h, n)
		boards += n
	}
	var d *Diagnosis
	if len(shards) == 1 {
		if own[0] != nil {
			whole := *own[0]
			d = &whole
		}
	} else {
		// The merged snapshots sum every shard's fpga0_cmds_total into
		// one name, so the fleet's board count is the shards' sum.
		d = diagnoseHistory(MergeHistories(shards), boards)
	}
	if d == nil {
		return nil
	}
	d.Shards = own
	d.Summary = verdictSpread(own)
	return d
}

// diagnoseHistory runs the window rules over every window of one
// history served by the given number of decoder boards and labels the
// verdict's persistence. Nil or empty histories return nil.
func diagnoseHistory(h *History, boards int) *Diagnosis {
	samples := h.Samples()
	if len(samples) == 0 {
		return nil
	}
	var d *Diagnosis
	var seq []string
	counts := make(map[string]int)
	transitions := 0
	for i := min(1, len(samples)-1); i < len(samples); i++ {
		d = diagnoseWindow(&samples[i], boards)
		if n := len(seq); n > 0 && seq[n-1] != d.Verdict {
			transitions++
		}
		seq = append(seq, d.Verdict)
		counts[d.Verdict]++
	}
	d.Windows, d.Transitions, d.Sequence = len(seq), transitions, seq
	for v, n := range counts {
		d.Ranked = append(d.Ranked, VerdictShare{Verdict: v, Windows: n, Share: float64(n) / float64(d.Windows)})
	}
	sort.Slice(d.Ranked, func(i, j int) bool {
		a, b := d.Ranked[i], d.Ranked[j]
		return a.Windows > b.Windows || (a.Windows == b.Windows && a.Verdict < b.Verdict)
	})
	dominant := d.Ranked[0]
	d.Verdict = dominant.Verdict
	if d.Windows >= minTrendWindows {
		d.Sustained = dominant.Share >= sustainedShare
		d.Flapping = len(counts) >= 2 &&
			float64(d.Transitions) >= flapTransitionShare*float64(d.Windows-1)
		for _, vs := range d.Ranked[1:] {
			if vs.Share <= transientShare {
				d.Transients = append(d.Transients, vs)
			}
		}
	}
	return d
}

// boardsOf counts a history's decoder boards by the command counters
// of its newest sample (at least 1, so Little's law has a divisor).
func boardsOf(h *History) int {
	boards := 0
	if l := h.Latest(); l != nil {
		for name := range l.Snapshot.Counters {
			if fpgaCmdsRe.MatchString(name) {
				boards++
			}
		}
	}
	return max(boards, 1)
}

// diagnoseWindow reads one window — one history sample — over the
// given number of decoder boards, and returns its verdict, ranked
// findings and throughput. Counters, rates and stage summaries are the
// sample's interval (Delta, IntervalStages); queue depths, gauges and
// lifetime counters are its cumulative snapshot's.
func diagnoseWindow(s *HistorySample, boards int) *Diagnosis {
	d := &Diagnosis{}
	cur, delta, stage := s.Snapshot, s.Delta, s.IntervalStages
	d.Throughput = delta.Rate("images_decoded_total")

	fullFill, fullKnown := queueFill(cur, "full_batch")
	ingestFill, ingestKnown := queueFill(cur, "ingest_items")
	shedDelta := delta.Counters["serve_shed_total"]
	freeLen := cur.Queues["hugepage_free"].Len
	_, freeKnown := cur.Queues["hugepage_free"]
	transFill, transKnown := maxTransFill(cur)

	decode := stage[StageFPGADecode]
	if cur.Gauges["degraded"] >= 1 {
		// While degraded the host decode lanes are the decode stage.
		if fb := stage[StageCPUFallback]; fb.Count > 0 {
			decode = fb
		}
	}
	copySync := stage[StageCopySync]
	getWait := stage[StageGetItemWait]
	e2e := stage[StageBatchE2E]

	// Little's law: images/s × mean decode seconds = decoders busy, in
	// board-equivalents. Near (or above) the board count means the
	// decode stage is saturated.
	decodeBusy := d.Throughput * decode.Mean / 1000
	decodeUtil := decodeBusy / float64(boards)

	ev := func(format string, args ...any) string { return fmt.Sprintf(format, args...) }
	queueEv := []string{
		ev("full_batch %d/%d (fill %.2f)", cur.Queues["full_batch"].Len, cur.Queues["full_batch"].Cap, fullFill),
		ev("max trans<i>_full fill %.2f", transFill),
		ev("hugepage_free len %d", freeLen),
	}

	// getWait is "significant" when the reader visibly spends its time
	// blocked on buffers rather than on decode completions.
	getWaitSignificant := getWait.Count > 0 &&
		(getWait.P95 > decode.P95 || (e2e.P95 > 0 && getWait.P95 > 0.25*e2e.P95))

	switch {
	// Admission control outranks the internal signatures: when the
	// serving ingest queue is shedding (or pinned at capacity), every
	// downstream reading describes the admitted load, not the offered
	// one — fix the overload first, then re-diagnose.
	case ingestKnown && (shedDelta > 0 || ingestFill >= fillHigh):
		conf := 0.85
		if shedDelta > 0 {
			conf = 0.95
		}
		d.add(Finding{
			Code: VerdictIngestOverloaded, Confidence: conf,
			Title: "ingest admission control limits accepted load (requests shed or queue at capacity)",
			Evidence: append(queueEv,
				ev("ingest_items %d/%d (fill %.2f)", cur.Queues["ingest_items"].Len, cur.Queues["ingest_items"].Cap, ingestFill),
				ev("serve_shed_total +%d in interval (%d lifetime), serve_partial_flushes_total %d",
					shedDelta, cur.Counters["serve_shed_total"], cur.Counters["serve_partial_flushes_total"])),
			Advice: "offered load exceeds what the pipeline admits: clients see shed status frames (bounded memory, by design); scale the backend (more boards/solvers), raise -queue only if the backend has headroom, and read the rest of this report for which stage is saturated",
		})
	case transKnown && transFill >= fillHigh:
		conf := 0.9
		if fullKnown && fullFill >= 0.5 {
			conf = 0.95
		}
		d.add(Finding{
			Code: VerdictGPUBound, Confidence: conf,
			Title: "compute engines limit throughput (Trans Full queues at capacity)",
			Evidence: append(queueEv,
				ev("infer_e2e p95 %.3fms, train_iter p95 %.3fms", stage[StageInferE2E].P95, stage[StageTrainIter].P95)),
			Advice: "the pipeline feeds the GPUs faster than they compute — the paper's performance boundary; add GPUs/solvers or grow the model budget, preprocessing is not the problem",
		})
	case fullKnown && transKnown && fullFill >= fillHigh && transFill <= fillLow:
		d.add(Finding{
			Code: VerdictDispatcherBound, Confidence: 0.9,
			Title: "dispatcher/copy path limits throughput (Full queue backed up, engines starved)",
			Evidence: append(queueEv,
				ev("copy_sync p95 %.3fms vs fpga_decode p95 %.3fms", copySync.P95, decode.P95)),
			Advice: "batches wait behind host→device copies: keep large-block mode (DispatcherConfig.PerItemCopy=false, the ≈20% lever of §5.2) and check stream sync stalls",
		})
	case fullKnown && transKnown && fullFill <= fillLow && transFill <= fillLow && getWaitSignificant && freeKnown && freeLen == 0:
		d.add(Finding{
			Code: VerdictPoolStarved, Confidence: 0.85,
			Title: "Free_Batch_Queue starvation limits throughput (reader blocked in get_item)",
			Evidence: append(queueEv,
				ev("get_item_wait p95 %.3fms vs fpga_decode p95 %.3fms", getWait.P95, decode.P95)),
			Advice: "every HugePage buffer is in flight while downstream queues run empty: raise Config.PoolBatches so decode-ahead covers the batch round-trip (Algorithm 1 back-pressure)",
		})
	case fullKnown && transKnown && fullFill <= fillLow && transFill <= fillLow && decode.Count > 0:
		conf := 0.8
		if decodeUtil >= 0.5 {
			conf = 0.9
		}
		d.add(Finding{
			Code: VerdictDecoderBound, Confidence: conf,
			Title: "decode stage limits throughput (downstream starved, decoder saturated)",
			Evidence: append(queueEv,
				ev("fpga_decode p95 %.3fms over %d board(s)", decode.P95, boards),
				ev("Little's law: %.0f img/s × %.3fms mean ≈ %.2f boards busy (util %.2f)", d.Throughput, decode.Mean, decodeBusy, decodeUtil)),
			Advice: "the decoder is the critical path — the regime where plugging more FPGA boards scales throughput (§5.3, Config.FPGADevices); while degraded, restore the FPGA path first",
		})
	case !fullKnown || !transKnown:
		d.add(Finding{
			Code: VerdictInconclusive, Confidence: 0.3,
			Title:    "snapshot lacks the queue probes the signatures need",
			Evidence: queueEv,
			Advice:   "register the Booster and Dispatcher on one registry (Booster.Registry()) so full_batch and trans<i>_* probes land in the same snapshot",
		})
	default:
		d.add(Finding{
			Code: VerdictHealthy, Confidence: 0.6,
			Title:    "no queue shows sustained pressure",
			Evidence: queueEv,
			Advice:   "the pipeline is balanced at this load; raise offered load to surface the next bottleneck",
		})
	}

	d.healthFindings(cur, delta)
	sort.SliceStable(d.Findings, func(i, j int) bool { return d.Findings[i].Confidence > d.Findings[j].Confidence })
	d.Verdict = VerdictInconclusive
	for _, f := range d.Findings {
		if isStructural(f.Code) {
			d.Verdict = f.Code
			break
		}
	}
	return d
}

// isStructural reports whether a finding code is a throughput verdict
// rather than a health observation.
func isStructural(code string) bool {
	switch code {
	case VerdictDecoderBound, VerdictPoolStarved, VerdictDispatcherBound,
		VerdictGPUBound, VerdictIngestOverloaded, VerdictHealthy, VerdictInconclusive:
		return true
	}
	return false
}

// add appends a finding.
func (d *Diagnosis) add(f Finding) { d.Findings = append(d.Findings, f) }

// healthFindings appends fault-side observations: degraded mode,
// decode errors, command timeouts and lost images. They rank alongside
// the structural findings but never become the verdict.
func (d *Diagnosis) healthFindings(cur *PipelineSnapshot, delta *SnapshotDelta) {
	if cur.Gauges["degraded"] >= 1 {
		d.add(Finding{
			Code: "degraded", Confidence: 0.95,
			Title: "pipeline is running degraded: every decode runs on the host CPU lanes",
			Evidence: []string{
				fmt.Sprintf("fallback_decodes_total %d, cmd_timeouts_total %d, decode_retries_total %d",
					cur.Counters["fallback_decodes_total"], cur.Counters["cmd_timeouts_total"], cur.Counters["decode_retries_total"]),
			},
			Advice: "throughput is bounded by host decode on GOMAXPROCS lanes, one per core the Go scheduler runs, and those cores are also the collector's, the dispatcher's and the engines': replace or restart the decoder boards, then clear degraded mode",
		})
	}
	if n := cur.Counters["decode_errors_total"]; n > 0 {
		d.add(Finding{
			Code: "decode-errors", Confidence: 0.7,
			Title:    fmt.Sprintf("%d image(s) lost to decode errors", n),
			Evidence: []string{fmt.Sprintf("decode_errors_total %d, span_images_failed_total %d", n, cur.Counters["span_images_failed_total"])},
			Advice:   "failed slots ship invalid=false and are skipped by engines; sustained errors deserve a fault-injection-style post-mortem (flight-recorder dump)",
		})
	}
	if n := delta.Counters["cmd_timeouts_total"]; n > 0 {
		d.add(Finding{
			Code: "cmd-timeouts", Confidence: 0.65,
			Title:    fmt.Sprintf("%d command timeout(s) in the interval", n),
			Evidence: []string{fmt.Sprintf("cmd_timeouts_total +%d, late_finishes_total +%d", n, delta.Counters["late_finishes_total"])},
			Advice:   "a wedged or slow board is shedding work through the revocation fence; check per-board fpga<i>_cmds/finishes/cancels for the culprit",
		})
	}
	if n := delta.Counters["cache_evictions_total"]; n > 0 {
		d.add(Finding{
			Code: "cache-thrashing", Confidence: 0.7,
			Title: fmt.Sprintf("epoch cache is thrashing: %d entrie(s) evicted from both tiers in the interval", n),
			Evidence: []string{fmt.Sprintf("cache_evictions_total +%d, cache_demotions_total +%d, cache_redecode_images_total +%d, cache_spill_bytes %.0f",
				n, delta.Counters["cache_demotions_total"], delta.Counters["cache_redecode_images_total"], cur.Gauges["cache_spill_bytes"])},
			Advice: "the decoded dataset outgrows RAM and spill budgets combined, so replays re-decode the evicted slice every epoch: grow the spill tier (Cache.SpillBytes), enable Cache.Compress, or accept the hybrid re-decode cost (docs/CACHE.md sizing example)",
		})
	}
}

// Report renders the diagnosis as a human-readable block: the verdict
// with its persistence, the verdict footprint, the shard spread, then
// the latest window's ranked findings. A nil diagnosis explains itself.
func (d *Diagnosis) Report() string {
	if d == nil {
		return "doctor: no telemetry samples\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verdict: %s (%s)", d.Verdict, d.persistence())
	if d.Throughput > 0 {
		fmt.Fprintf(&b, ", %.0f images/s in the latest window", d.Throughput)
	}
	b.WriteString("\n")
	for _, vs := range d.Ranked {
		fmt.Fprintf(&b, "  %-20s %3d/%d windows (%.0f%%)\n", vs.Verdict, vs.Windows, d.Windows, 100*vs.Share)
	}
	for _, vs := range d.Transients {
		fmt.Fprintf(&b, "  transient spike: %s (%d window(s)) — not the sustained story\n", vs.Verdict, vs.Windows)
	}
	fmt.Fprintf(&b, "shards: %s\n", d.Summary)
	for i, s := range d.Shards {
		if s != nil && len(d.Shards) > 1 {
			fmt.Fprintf(&b, "  shard %d: %s (%s)\n", i, s.Verdict, s.persistence())
		}
	}
	b.WriteString("\nlatest window:\n")
	for i, f := range d.Findings {
		fmt.Fprintf(&b, "%d. [%s] %s (confidence %.2f)\n", i+1, f.Code, f.Title, f.Confidence)
		for _, e := range f.Evidence {
			fmt.Fprintf(&b, "   - %s\n", e)
		}
		if f.Advice != "" {
			fmt.Fprintf(&b, "   → %s\n", f.Advice)
		}
	}
	return b.String()
}

// persistence labels the dominant verdict — flapping, sustained,
// intermittent, or too few windows to tell — with its window counts.
func (d *Diagnosis) persistence() string {
	label := "intermittent"
	switch {
	case d.Flapping:
		label = "FLAPPING"
	case d.Sustained:
		label = "sustained"
	case d.Windows < minTrendWindows:
		label = "too few windows for a trend"
	}
	return fmt.Sprintf("%s, %d/%d windows, %d transition(s)", label, d.Ranked[0].Windows, d.Windows, d.Transitions)
}

// verdictSpread renders the per-shard verdicts as one sentence,
// naming outlier shards individually against the most common verdict.
func verdictSpread(shards []*Diagnosis) string {
	verdicts := make([]string, len(shards))
	counts := make(map[string]int)
	for i, d := range shards {
		verdicts[i] = VerdictInconclusive
		if d != nil {
			verdicts[i] = d.Verdict
		}
		counts[verdicts[i]]++
	}
	// The most common verdict, ties broken deterministically by name.
	majority, best := "", 0
	for _, v := range sortedKeys(counts) {
		if counts[v] > best {
			majority, best = v, counts[v]
		}
	}
	switch {
	case len(verdicts) == 1:
		return "shard 0 is " + majority
	case best == len(verdicts):
		return fmt.Sprintf("all %d shards are %s", best, majority)
	}
	// Name the outliers against the majority; with no real majority
	// (every shard differs) name every shard.
	var named []string
	for i, v := range verdicts {
		if v != majority || best == 1 {
			named = append(named, fmt.Sprintf("shard %d is %s", i, v))
		}
	}
	if best == 1 {
		return strings.Join(named, ", ")
	}
	return strings.Join(named, ", ") + ", the rest are " + majority
}

// queueFill returns a queue's len/cap fill fraction and whether the
// probe exists in the snapshot.
func queueFill(s *PipelineSnapshot, name string) (float64, bool) {
	q, ok := s.Queues[name]
	if !ok || q.Cap <= 0 {
		return 0, ok
	}
	return float64(q.Len) / float64(q.Cap), true
}

// maxTransFill returns the highest fill fraction across every
// trans<i>_full probe and whether any exist.
func maxTransFill(s *PipelineSnapshot) (float64, bool) {
	max, found := 0.0, false
	for name, q := range s.Queues {
		if !transFullRe.MatchString(name) || q.Cap <= 0 {
			continue
		}
		found = true
		if f := float64(q.Len) / float64(q.Cap); f > max {
			max = f
		}
	}
	return max, found
}
