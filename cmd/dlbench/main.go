// Command dlbench regenerates the paper's evaluation: every figure of
// §5 plus the ablations, as deterministic virtual-time simulations.
//
//	dlbench                 # all figures, paper order
//	dlbench -fig fig7a      # one figure
//	dlbench -fig ablations  # the design-choice ablations
//	dlbench -list           # figure ids
//	dlbench -metrics        # traced end-to-end run + telemetry table
//	dlbench -doctor         # traced run + ranked bottleneck diagnosis
//	dlbench -json out.json  # traced run + schema-versioned bench result
//	dlbench -slo tput=900 -json out.json  # traced run judged against an SLO
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dlbooster/internal/cpukernel"
	"dlbooster/internal/experiments"
	"dlbooster/internal/metrics"
)

var runners = map[string]func() (experiments.Figure, error){
	"fig2":        experiments.Figure2,
	"fig5a":       experiments.Figure5a,
	"fig5b":       experiments.Figure5b,
	"fig5c":       experiments.Figure5c,
	"fig6":        experiments.Figure6,
	"fig6d":       experiments.Figure6d,
	"fig7a":       experiments.Figure7a,
	"fig7b":       experiments.Figure7b,
	"fig7c":       experiments.Figure7c,
	"fig8a":       experiments.Figure8a,
	"fig8b":       experiments.Figure8b,
	"fig8c":       experiments.Figure8c,
	"fig9":        experiments.Figure9,
	"headline":    experiments.Headline,
	"econ":        experiments.Econ,
	"future":      experiments.FutureWork,
	"hybrid":      experiments.HybridCache,
	"scale":       experiments.Scalability,
	"abl-copy":    experiments.AblationCopyMode,
	"abl-store":   experiments.AblationSharedStore,
	"abl-async":   experiments.AblationAsyncReader,
	"abl-units":   experiments.AblationUnitWidths,
	"abl-offload": experiments.AblationSelectiveOffload,
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (all, ablations, or a figure id)")
	list := flag.Bool("list", false, "list figure ids and exit")
	showMetrics := flag.Bool("metrics", false, "run a traced end-to-end pipeline and print the telemetry table")
	doctor := flag.Bool("doctor", false, "run a traced end-to-end pipeline and print the ranked bottleneck diagnosis")
	benchJSON := flag.String("json", "", "run a traced end-to-end pipeline and write a schema-versioned benchmark result (BENCH_<n>.json) to this path")
	metricsImages := flag.Int("metrics-images", 64, "with -metrics/-doctor/-json: images to push through the pipeline")
	metricsBatch := flag.Int("metrics-batch", 8, "with -metrics/-doctor/-json: batch size")
	noSIMD := flag.Bool("no-simd", false, "pin the portable scalar decode kernels and sequential entropy decode process-wide (the cpukernel kill switch), for ablations against the fast kernel layer")
	shards := flag.Int("shards", 0, "with -metrics/-doctor/-json: run the traced pipeline as this many fleet shards, each engine paced at -shard-rate (0 = classic single pipeline)")
	shardRate := flag.Float64("shard-rate", 40, "with -shards: modelled per-shard accelerator rate in images/s")
	replayEpochs := flag.Int("replay-epochs", 0, "with -metrics/-doctor/-json: after the first decode epoch, serve this many epochs from the tiered ReplayCache and measure their throughput (0 = classic single-epoch run)")
	cacheMode := flag.String("cache", "ram+nvme", "with -replay-epochs: cache configuration — cold (no cache), ram (RAM tier only) or ram+nvme (RAM tier with NVMe spill); the RAM tier is sized to half the decoded dataset")
	sloSpec := flag.String("slo", "", "with -metrics/-doctor/-json: sample telemetry during the traced run, judge it against this SLO spec (e.g. tput=900,p99ms=250,shed=0.001) and print the scorecard; with -json the scorecard is embedded in the result for the benchdiff -slo-gate")
	autotuneOn := flag.Bool("autotune", false, "with -json: run the adaptive-autotuner overload benchmark — a deterministic virtual-time simulation of a 2× open-loop overload served by a static tight-deadline config and again with the internal/control feedback loop actuating the knobs — and record both shed ledgers (BENCH_5.json); -slo overrides the scenario's default spec")
	flag.Parse()

	if *noSIMD {
		cpukernel.SetScalarOnly(true)
	}

	if *showMetrics || *doctor || *benchJSON != "" || *autotuneOn {
		// A bad SLO spec fails before the run, not after it.
		var slo *metrics.SLO
		if *sloSpec != "" {
			var err error
			if slo, err = metrics.ParseSLO(*sloSpec); err != nil {
				fmt.Fprintf(os.Stderr, "dlbench: %v\n", err)
				os.Exit(2)
			}
		}
		// One traced run feeds every instrumented view, so -metrics,
		// -doctor and -json can be combined without re-running.
		var res *tracedResult
		var fleetSnap *metrics.FleetSnapshot
		var err error
		switch {
		case *autotuneOn:
			// The overload scenario declares its own SLO when -slo is
			// unset, so the scorecard always lands in the result.
			res, slo, err = tracedAutotuneRun(*metricsBatch, slo)
		case *replayEpochs > 0:
			res, err = tracedReplayRun(*metricsImages, *metricsBatch, *replayEpochs, *cacheMode, slo != nil)
		case *shards > 0:
			res, fleetSnap, err = tracedShardsRun(*metricsImages, *metricsBatch, *shards, *shardRate, slo != nil)
		default:
			res, err = tracedRun(*metricsImages, *metricsBatch, slo != nil)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dlbench: %v\n", err)
			os.Exit(1)
		}
		if *showMetrics {
			printMetrics(res)
		}
		if *doctor {
			if fleetSnap != nil {
				fmt.Print(metrics.DiagnoseFleet(fleetSnap, nil).Report())
			} else {
				fmt.Print(metrics.Diagnose(res.snap, nil).Report())
			}
		}
		card := slo.Evaluate(res.hist)
		if slo != nil {
			fmt.Print(card.Report())
		}
		if *benchJSON != "" {
			br := benchResult(res)
			br.SLO = card
			if err := br.WriteFile(*benchJSON); err != nil {
				fmt.Fprintf(os.Stderr, "dlbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("dlbench: wrote %s (%.0f images/s over %.3fs)\n",
				*benchJSON, br.Throughput, br.ElapsedSeconds)
		}
		return
	}

	if *list {
		ids := make([]string, 0, len(runners))
		for id := range runners {
			ids = append(ids, id)
		}
		fmt.Println(strings.Join(append([]string{"all", "ablations"}, ids...), "\n"))
		return
	}

	var figs []experiments.Figure
	var err error
	switch *fig {
	case "all":
		figs, err = experiments.All()
		if err == nil {
			var abls []experiments.Figure
			abls, err = experiments.Ablations()
			figs = append(figs, abls...)
		}
	case "ablations":
		figs, err = experiments.Ablations()
	default:
		run, ok := runners[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "dlbench: unknown figure %q (try -list)\n", *fig)
			os.Exit(2)
		}
		var f experiments.Figure
		f, err = run()
		figs = []experiments.Figure{f}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlbench: %v\n", err)
		os.Exit(1)
	}
	for i, f := range figs {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(f.Render())
	}
}
