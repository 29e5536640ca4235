package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

const (
	// setUps is how often a run repeats its whole set-up; setup_s is
	// their median, so that one slow set-up does not read as a
	// regression.
	setUps = 3
	// tracedRepeats of a traced run carry registries and spans; they
	// alternate with tracedRepeats+1 untraced ones of the same size, so
	// that the tracing overhead compares runs made together.
	tracedRepeats = 2
)

// options is one workload process's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	corrupt  bool
}

// metricValue and result are the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// closedLoopMaxItems caps what one closed-loop repeat may offer (an odd
// multiple of the corpus): room for a machine an order of magnitude
// faster than the build box, or for -seconds 60.
const closedLoopMaxItems = 255 * corpusImages

// warmLength is the untimed repeat that ends every set-up: long enough
// to fill caches and pools and to touch every code path once. A closed
// loop warms up on one pass over the corpus instead — a fixed count,
// because where the clock would stop the collector (one pass or three)
// depends on how far ahead of the deliveries it runs, and set-up time
// would read either of two values.
const warmLength = 500 * time.Millisecond

func warmPlan(spec workloadSpec) plan {
	p := planFor(spec, warmLength)
	if spec.kind != kindServe {
		p.maxItems = corpusImages
	}
	return p
}

// planFor sizes a repeat that offers load for length.
func planFor(spec workloadSpec, length time.Duration) plan {
	if spec.kind == kindServe {
		return plan{length: length, maxItems: int(serveRate*length.Seconds() + 0.5)}
	}
	return plan{length: length, maxItems: closedLoopMaxItems}
}

// column extracts one figure from every repeat or window.
func column[T any](rs []T, f func(T) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func imagesPerS(r repeatResult) float64    { return r.imagesPerS }
func cpuMsPerImage(r repeatResult) float64 { return r.cpuMsPerImage }

func latencyAt(p float64) func(repeatResult) float64 {
	return func(r repeatResult) float64 { return percentile(r.latencyMs, p) }
}

// runWorkload is one workload process: set up, warm up, repeat, check,
// report. It writes a human-readable account to w and returns the
// contract's result.
func runWorkload(opt options, w io.Writer) (result, error) {
	spec, ok := findWorkload(opt.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", opt.workload)
	}
	repeats, measure := spec.repeats, opt.seconds
	if opt.trace {
		repeats = 2*tracedRepeats + 1
		measure /= 2 // the other half is the isolated layer timings
	}
	repeatSecs := measure / float64(repeats)
	fp := newFingerprint(spec.name, opt.seed, repeats, repeatSecs, opt.trace)
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "fingerprint %s\n", fpJSON)

	// Set-up, several times over: corpus, references, oracle check,
	// pipeline construction and the warm-up repeat.
	r := &runner{spec: spec, seed: opt.seed}
	setupS := make([]float64, setUps)
	for s := range setupS {
		t0 := time.Now()
		r.corpus, err = buildCorpus(opt.seed, spec.size, spec.size)
		if err != nil {
			return result{}, err
		}
		if opt.corrupt {
			r.corpus.corrupt()
		}
		if _, err = r.repeat(warmPlan(spec), -1-s, false); err != nil {
			return result{}, err
		}
		setupS[s] = time.Since(t0).Seconds()
		runtime.GC()
	}
	p := planFor(spec, time.Duration(repeatSecs*float64(time.Second)))
	fmt.Fprintf(w, "set-up %.3f s (median of %d); %d repeats of %.2f s; corpus of %d images, %d bytes encoded\n",
		median(setupS), setUps, repeats, repeatSecs, corpusImages, r.corpus.jpegBytes)

	if opt.trace {
		r.tr = newTracer()
	}
	var plain, traced []repeatResult
	var total result
	for i := 0; i < repeats; i++ {
		withTrace := opt.trace && i%2 == 1
		res, err := r.repeat(p, i, withTrace)
		if err != nil {
			return result{}, err
		}
		runtime.GC() // each repeat starts from a collected heap
		total.Attempted += res.attempted
		total.Failed += res.failed
		fmt.Fprintf(w, "repeat %d: %d images in %d passes, traced=%v\n", i, res.images, res.passes, withTrace)
		for _, n := range res.notes {
			fmt.Fprintf(w, "repeat %d INCORRECT: %s\n", i, n)
		}
		if withTrace {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
	}
	total.Correct = total.Failed == 0
	values := map[string]float64{}
	var defs []metricDef
	if !opt.trace {
		defs = endToEnd
		// Rate and CPU cost are sampled per window; a whole repeat is one
		// sample only where it is too short to hold a window. serve-96's
		// rate stays per repeat: a window's is the generator's arrival rate.
		rate, cpu := column(plain, imagesPerS), column(plain, cpuMsPerImage)
		var wins []window
		for _, res := range plain {
			wins = append(wins, res.windows...)
		}
		if len(wins) > 0 {
			cpu = column(wins, func(x window) float64 { return x.cpuMsPerImage })
			if spec.kind != kindServe {
				rate = column(wins, func(x window) float64 { return x.imagesPerS })
			}
		}
		cols := map[string][]float64{
			"images_per_s":         rate,
			"capture_images_per_s": rate,
			"cpu_ms_per_image":     cpu,
			"alloc_kb_per_image":   column(plain, func(r repeatResult) float64 { return r.allocKBPerImage }),
		}
		if spec.kind == kindReplay {
			cols["capture_images_per_s"] = column(plain, func(r repeatResult) float64 { return r.capturePerS })
		}
		for _, def := range defs {
			if col, ok := cols[def.name]; ok {
				values[def.name] = goodSide(col, def.better)
			}
		}
		var misses int64
		for _, res := range plain {
			misses += res.misses
		}
		cols["setup_s"] = setupS
		values["setup_s"] = median(setupS)
		values["peak_rss_mb"] = peakRSSMiB()
		values["on_time_share"] = 1 - float64(misses)/float64(total.Attempted)
		values["delivered_share"] = 1 - float64(total.Failed)/float64(total.Attempted)
		fmt.Fprintf(w, "%-22s %12s %-6s %12s %7s  samples\n", "metric", "reported", "unit", "median", "IQR")
		for _, def := range defs {
			fmt.Fprintf(w, "%-22s %12.4f %-6s", def.name, values[def.name], def.unit)
			if col, ok := cols[def.name]; ok {
				fmt.Fprintf(w, " %12.4f %5.1f %%  %.4g", median(col), 100*iqrShare(col), col)
			}
			fmt.Fprintln(w)
		}
		// Latency percentiles are diagnostics (see README.md, "Unresolved"):
		// printed here, reported by the traced run, bounded by nothing.
		n := len(plain[0].latencyMs)
		fmt.Fprintf(w, "latency: %d samples per repeat, highest supported percentile p%g\n", n, 100*supportedTail(n))
		for _, p := range []float64{0.50, 0.95} {
			col := column(plain, latencyAt(p))
			fmt.Fprintf(w, "p%-21g %12s %-6s %12.4f %5.1f %%  %.4g\n", 100*p, "", "ms", median(col), 100*iqrShare(col), col)
		}
	} else {
		defs = perLayer
		budget := time.Duration(opt.seconds / 2 * float64(time.Second))
		lb := &layerBench{spec: spec, c: r.corpus, out: values,
			sampleDur: budget / time.Duration(layerTimings*(layerSamples+2))}
		if err := lb.run(); err != nil {
			return result{}, err
		}
		tracedFigures(values, spec, plain, traced)
		path, err := r.tr.write(spanDir, fp)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(r.tr.spans), path)
		for _, def := range defs {
			fmt.Fprintf(w, "%-38s %14.4f %s\n", def.name, values[def.name], def.unit)
		}
	}

	total.Metrics = make(map[string]metricValue, len(defs))
	for _, def := range defs {
		v, ok := values[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s has no finite value", def.name)
		}
		total.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	return total, nil
}

// tracedFigures fills the per-layer metrics that come from the repeats
// of a traced run rather than from isolated timings: the program's own
// stage histograms and accessors, the tracing overhead, the waterfall
// residual and the bench diagnostics.
func tracedFigures(out map[string]float64, spec workloadSpec, plain, traced []repeatResult) {
	stage := func(name string) float64 {
		var means []float64
		for _, t := range traced {
			if s, ok := t.snap.Stages[name]; ok && s.Count > 0 {
				means = append(means, s.Mean)
			}
		}
		return median(means)
	}
	out["core.full_queue_wait_ms"] = stage("full_queue_wait")
	out["core.get_item_wait_ms"] = stage("get_item_wait")
	out["core.batch_fill"] = stage("batch_fill")
	last := traced[len(traced)-1]
	out["core.cache_hit_share"] = last.cacheHit
	out["fleet.submit_ns"] = last.submitNs
	out["fleet.shard_imbalance"] = last.imbalance
	var shed, steals int64
	for _, t := range append(plain, traced...) {
		shed += t.shed
		steals += t.steals
	}
	out["fleet.shed_total"] = float64(shed)
	out["fleet.steals_total"] = float64(steals)

	rate, tracedRate := column(plain, imagesPerS), column(traced, imagesPerS)
	out["metrics.trace_overhead_pct"] = 100 * (median(rate) - median(tracedRate)) / median(rate)

	// Waterfall: the isolated per-image costs of the layers an image
	// passes, against the CPU the process really spent per image. On
	// replay-96 cpu_ms_per_image covers the replay epochs, where an
	// image is read back from a tier (half RAM, half spill) instead of
	// being decoded.
	work := out["jpeg.parse_us"] + out["jpeg.entropy_us"] + out["jpeg.reconstruct_us"] + out["imageproc.resize_us"]
	if spec.kind == kindReplay {
		work = (1e6/out["core.cache_replay_ram_images_per_s"] + 1e6/out["core.cache_replay_spill_images_per_s"]) / 2
	}
	work += out["gpu.h2d_us_per_batch"]/float64(spec.batch) + out["engine.infer_us_per_image"]
	cpuUs := 1e3 * median(column(plain, cpuMsPerImage))
	out["bench.waterfall_residual_pct"] = 100 * (cpuUs - work) / cpuUs

	out["bench.p50_ms"] = median(column(plain, latencyAt(0.50)))
	out["bench.p95_ms"] = median(column(plain, latencyAt(0.95)))
	out["bench.p99_ms"] = median(column(plain, latencyAt(0.99)))
	out["bench.miss_share"] = median(column(plain, func(r repeatResult) float64 { return float64(r.misses) / float64(r.attempted) }))
	out["bench.gen_late_p99_ms"] = median(column(plain, func(r repeatResult) float64 { return percentile(r.lateMs, 0.99) }))
	out["bench.allocs_per_image"] = median(column(plain, func(r repeatResult) float64 { return r.allocsPerImage }))
	out["bench.repeat_iqr_pct"] = 100 * iqrShare(rate)
}
