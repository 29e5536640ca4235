// Command dlbench regenerates the paper's evaluation: every figure of
// §5 plus the ablations, as deterministic virtual-time simulations.
// Performance is measured by the benchmark of record, `bash
// bench/run.sh` (bench/README.md), not here; a traced view of the real
// pipeline comes from `dlserve -metrics-addr` or `bash bench/run.sh
// --trace 1`.
//
//	dlbench                 # all figures, paper order
//	dlbench -fig fig7a      # one figure
//	dlbench -fig ablations  # the design-choice ablations
//	dlbench -list           # figure ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dlbooster/internal/experiments"
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
	flag.Parse()

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
	fmt.Print(experiments.RenderAll(figs))
}
