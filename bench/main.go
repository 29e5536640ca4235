// Command bench is the repository's benchmark of record (BENCHMARK.json).
//
// With -workload it is one workload process: it builds the seed's
// corpus, runs the workload for -seconds with tracing off (or, with
// -trace 1, alternates traced and untraced repeats and times every
// layer in isolation), checks every output against an independent
// reference, and prints one JSON result as its last line. Without
// -workload it runs every workload, each in a process of its own, and
// prints one table; -selfcheck does that twice and compares the two
// sets against the declared bounds. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "run this one workload in this process (default: every workload, one process each)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the corpus and of the arrival schedule")
	flag.Float64Var(&opt.seconds, "seconds", 20, "seconds of measurement per workload")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer table and span file instead of the end-to-end metrics")
	flag.BoolVar(&opt.corrupt, "corrupt", false, "negative self-test: corrupt one payload after the references are taken; the run must fail")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the two sets against the declared bounds")
	flag.Parse()
	opt.trace = trace != 0
	if flag.NArg() > 0 || opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments or non-positive -seconds")
		os.Exit(2)
	}

	if opt.workload != "" {
		res, err := runWorkload(opt, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	sets := 1
	if *selfcheck {
		sets = 2
	}
	all := make([]map[string]result, sets)
	ok := true
	for s := range all {
		all[s] = map[string]result{}
		for _, w := range workloads {
			res, err := spawn(opt, w.name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			all[s][w.name] = res
			ok = ok && res.Correct
		}
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	fmt.Printf("\n%-38s", "metric")
	for _, w := range workloads {
		fmt.Printf(" %14s", w.name)
	}
	fmt.Println()
	for _, def := range defs {
		fmt.Printf("%-30s %-7s", def.name, def.unit)
		for _, w := range workloads {
			fmt.Printf(" %14.4f", all[0][w.name].Metrics[def.name].Value)
		}
		fmt.Println()
	}
	if *selfcheck && !opt.trace {
		ok = compareSets(os.Stdout, all[0], all[1]) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// spawn runs one workload in a process of its own — so set-up time,
// peak RSS and rusage CPU are that workload's alone — passing its
// account through and returning the result on its last line.
func spawn(opt options, workload string) (result, error) {
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
	}
	if opt.trace {
		args = append(args, "-trace", "1")
	}
	if opt.corrupt {
		args = append(args, "-corrupt")
	}
	cmd := exec.Command(os.Args[0], args...)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	fmt.Printf("\n== %s\n", workload)
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// compareSets prints, per workload and end-to-end metric, how far the
// second set's value is worse than the first's against the metric's
// bound, and reports whether every pair stayed within it.
func compareSets(w io.Writer, first, second map[string]result) bool {
	ok := true
	fmt.Fprintf(w, "\nselfcheck: second set against first, worse-by share vs bound\n")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			a, b := first[wl.name].Metrics[def.name].Value, second[wl.name].Metrics[def.name].Value
			worse := (b - a) / a
			if def.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > def.bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(w, "%-10s %-22s %12.4f %12.4f  %+7.2f %% of %5.1f %%  %s\n",
				wl.name, def.name, a, b, 100*worse, 100*def.bound, verdict)
		}
	}
	return ok
}
