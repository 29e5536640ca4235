package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dlbooster/internal/econ"
	"dlbooster/internal/perf"
)

// Figure is one regenerated table/figure: the same rows or series the
// paper plots, as text a harness can print and EXPERIMENTS.md can record.
type Figure struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Render formats the figure as an aligned text table.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	widths := make([]int, len(f.Header))
	for i, h := range f.Header {
		widths[i] = len(h)
	}
	for _, r := range f.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(f.Header)
	for _, r := range f.Rows {
		line(r)
	}
	if f.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", f.Notes)
	}
	return b.String()
}

// RenderAll renders figures in order with a blank line between two: what
// dlbench prints.
func RenderAll(figs []Figure) string {
	out := make([]string, len(figs))
	for i, f := range figs {
		out[i] = f.Render()
	}
	return strings.Join(out, "\n")
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// trainRow runs one training setup and renders throughput + cores.
func trainRow(s TrainSetup) (TrainResult, error) {
	return RunTraining(s)
}

// Figure2 regenerates the motivation experiment: AlexNet on 1–2 GPUs,
// CPU-based vs LMDB vs the synthetic-data upper boundary; (a) throughput
// in the default configuration, (b) CPU cores at maximum performance.
func Figure2() (Figure, error) {
	fig := Figure{
		ID:     "fig2",
		Title:  "AlexNet training: default-config performance and max-performance CPU cost",
		Header: []string{"backend", "gpus", "default img/s", "max img/s", "max cores"},
		Notes:  "paper anchors: CPU-based 2346/4363, LMDB 2446/3200, Ideal 2496/4652 img/s; CPU-based default ≈ 25% of ideal",
	}
	type cfg struct {
		name string
		def  TrainBackend
		max  TrainBackend
	}
	for _, c := range []cfg{
		{"CPU-based", CPUDefault, CPUBased},
		{"LMDB", LMDBStore, LMDBStore},
		{"Ideal", Ideal, Ideal},
	} {
		for _, g := range []int{1, 2} {
			def, err := trainRow(TrainSetup{Model: perf.AlexNet, Backend: c.def, GPUs: g})
			if err != nil {
				return Figure{}, err
			}
			max, err := trainRow(TrainSetup{Model: perf.AlexNet, Backend: c.max, GPUs: g})
			if err != nil {
				return Figure{}, err
			}
			fig.Rows = append(fig.Rows, []string{
				c.name, fmt.Sprint(g), f0(def.Throughput), f0(max.Throughput), f1(max.TotalCores),
			})
		}
	}
	return fig, nil
}

// trainBackendsFor lists the Figure 5/6 backends.
var trainBackends = []struct {
	name string
	be   TrainBackend
}{
	{"CPU-based", CPUBased},
	{"LMDB", LMDBStore},
	{"DLBooster", DLBooster},
}

// figure5For regenerates one panel of Figure 5: training throughput for
// a model across backends and GPU counts (plus the upper boundary).
func figure5For(id string, m perf.TrainProfile) (Figure, error) {
	fig := Figure{
		ID:     id,
		Title:  fmt.Sprintf("%s training throughput, batch %d/GPU", m.Name, m.BatchSize),
		Header: []string{"backend", "1 GPU img/s", "2 GPU img/s", "% of boundary (2 GPU)"},
	}
	bound := map[int]float64{}
	for _, g := range []int{1, 2} {
		r, err := trainRow(TrainSetup{Model: m, Backend: Ideal, GPUs: g, Cached: m.DatasetFitsInMemory})
		if err != nil {
			return Figure{}, err
		}
		bound[g] = r.Throughput
	}
	for _, tb := range trainBackends {
		var xs []float64
		for _, g := range []int{1, 2} {
			r, err := trainRow(TrainSetup{Model: m, Backend: tb.be, GPUs: g, Cached: m.DatasetFitsInMemory})
			if err != nil {
				return Figure{}, err
			}
			xs = append(xs, r.Throughput)
		}
		fig.Rows = append(fig.Rows, []string{
			tb.name, f0(xs[0]), f0(xs[1]), f1(xs[1] / bound[2] * 100),
		})
	}
	fig.Rows = append(fig.Rows, []string{"Upper boundary", f0(bound[1]), f0(bound[2]), "100.0"})
	return fig, nil
}

// Figure5a–c regenerate the three panels of Figure 5.
func Figure5a() (Figure, error) { return figure5For("fig5a", perf.LeNet5) }

// Figure5b regenerates the AlexNet panel.
func Figure5b() (Figure, error) { return figure5For("fig5b", perf.AlexNet) }

// Figure5c regenerates the ResNet-18 panel.
func Figure5c() (Figure, error) { return figure5For("fig5c", perf.ResNet18) }

// Figure6 regenerates the training CPU-cost comparison (panels a–c).
func Figure6() (Figure, error) {
	fig := Figure{
		ID:     "fig6",
		Title:  "Training CPU cost (total cores, all GPUs)",
		Header: []string{"model", "backend", "1 GPU cores", "2 GPU cores"},
		Notes:  "paper anchors: DLBooster ≈1.5/GPU, LMDB ≈2.5/GPU, CPU-based ≈12/GPU (AlexNet) and ≈7/GPU (ResNet-18); LeNet-5 small for all (cached)",
	}
	for _, m := range perf.TrainProfiles {
		for _, tb := range trainBackends {
			var cores []float64
			for _, g := range []int{1, 2} {
				r, err := trainRow(TrainSetup{Model: m, Backend: tb.be, GPUs: g, Cached: m.DatasetFitsInMemory})
				if err != nil {
					return Figure{}, err
				}
				cores = append(cores, r.TotalCores)
			}
			fig.Rows = append(fig.Rows, []string{m.Name, tb.name, f2(cores[0]), f2(cores[1])})
		}
	}
	return fig, nil
}

// Figure6d regenerates the DLBooster CPU-cost breakdown for ResNet-18:
// per-GPU engine components plus the (shared) preprocessing thread, at
// the paper's 2-GPU training rate.
func Figure6d() (Figure, error) {
	r, err := trainRow(TrainSetup{Model: perf.ResNet18, Backend: DLBooster, GPUs: 2})
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "fig6d",
		Title:  "ResNet-18 + DLBooster: per-component CPU cores (per GPU; preprocessing is the shared FPGAReader/Dispatcher)",
		Header: []string{"component", "cores"},
		Notes:  "paper anchors: 0.3 preprocessing, 0.15 transforming, 0.95 launching kernels, 0.12 updating model; ≤1.5 in all",
	}
	perGPU := map[string]float64{
		"kernels":   r.Breakdown["kernels"] / 2,
		"update":    r.Breakdown["update"] / 2,
		"transform": r.Breakdown["transform"] / 2,
		// The FPGAReader + Dispatcher is a singleton serving both GPUs.
		"preprocess": r.Breakdown["preprocess"],
	}
	var names []string
	for k := range perGPU {
		names = append(names, k)
	}
	sort.Strings(names)
	total := 0.0
	for _, k := range names {
		fig.Rows = append(fig.Rows, []string{k, f2(perGPU[k])})
		total += perGPU[k]
	}
	fig.Rows = append(fig.Rows, []string{"total", f2(total)})
	return fig, nil
}

// inferBackends lists the Figure 7–9 backends.
var inferBackends = []struct {
	name string
	be   InferBackend
}{
	{"CPU-based", InferCPU},
	{"nvJPEG", InferNvJPEG},
	{"DLBooster", InferDLBooster},
}

// batchSweep returns the paper's batch-size axis for a model.
func batchSweep(m perf.InferProfile) []int {
	sweep := []int{1, 2, 4, 8, 16, 32}
	if m.MaxBatch >= 64 {
		sweep = append(sweep, 64)
	}
	return sweep
}

// figure7For regenerates one panel of Figure 7 (throughput vs batch).
func figure7For(id string, m perf.InferProfile) (Figure, error) {
	fig := Figure{
		ID:     id,
		Title:  fmt.Sprintf("%s inference throughput (images/s) vs batch size", m.Name),
		Header: append([]string{"backend"}, intHeaders(batchSweep(m))...),
	}
	for _, ib := range inferBackends {
		row := []string{ib.name}
		for _, b := range batchSweep(m) {
			r, err := RunInference(InferSetup{Model: m, Backend: ib.be, Batch: b})
			if err != nil {
				return Figure{}, err
			}
			row = append(row, f0(r.Throughput))
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// figure8For regenerates one panel of Figure 8 (latency vs batch).
func figure8For(id string, m perf.InferProfile) (Figure, error) {
	fig := Figure{
		ID:     id,
		Title:  fmt.Sprintf("%s inference latency (ms, mean at 80%% load) vs batch size", m.Name),
		Header: append([]string{"backend"}, intHeaders(batchSweep(m))...),
		Notes:  "paper anchors at batch 1: ≈1.2 ms DLBooster, ≈1.8 ms nvJPEG, ≈3.4 ms CPU-based",
	}
	for _, ib := range inferBackends {
		row := []string{ib.name}
		for _, b := range batchSweep(m) {
			r, err := RunInference(InferSetup{Model: m, Backend: ib.be, Batch: b})
			if err != nil {
				return Figure{}, err
			}
			row = append(row, fmt.Sprintf("%.2f", r.MeanLatencyMs))
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

func intHeaders(bs []int) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = fmt.Sprintf("b=%d", b)
	}
	return out
}

// Figure7a–c and Figure8a–c regenerate the per-model panels.
func Figure7a() (Figure, error) { return figure7For("fig7a", perf.GoogLeNet) }

// Figure7b regenerates the VGG-16 panel.
func Figure7b() (Figure, error) { return figure7For("fig7b", perf.VGG16) }

// Figure7c regenerates the ResNet-50 panel.
func Figure7c() (Figure, error) { return figure7For("fig7c", perf.ResNet50) }

// Figure8a regenerates the GoogLeNet latency panel.
func Figure8a() (Figure, error) { return figure8For("fig8a", perf.GoogLeNet) }

// Figure8b regenerates the VGG-16 latency panel.
func Figure8b() (Figure, error) { return figure8For("fig8b", perf.VGG16) }

// Figure8c regenerates the ResNet-50 latency panel.
func Figure8c() (Figure, error) { return figure8For("fig8c", perf.ResNet50) }

// Figure9 regenerates the inference CPU-cost comparison at the paper's
// reference batch sizes (32, 32, 64).
func Figure9() (Figure, error) {
	fig := Figure{
		ID:     "fig9",
		Title:  "Inference CPU cost (cores per GPU) at reference batch size",
		Header: []string{"model", "batch", "CPU-based", "nvJPEG", "DLBooster"},
		Notes:  "paper anchors: 7–14 cores CPU-based, ≈1.5 nvJPEG, ≈0.5 DLBooster",
	}
	for _, m := range perf.InferProfiles {
		b := 32
		if m.MaxBatch >= 64 {
			b = 64
		}
		row := []string{m.Name, fmt.Sprint(b)}
		for _, ib := range inferBackends {
			r, err := RunInference(InferSetup{Model: m, Backend: ib.be, Batch: b})
			if err != nil {
				return Figure{}, err
			}
			row = append(row, f1(r.TotalCores))
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// Headline regenerates the abstract's claims: 1.35×–2.4× throughput at
// 1/10 the CPU cores, and −1/3 latency in online inference.
func Headline() (Figure, error) {
	fig := Figure{
		ID:     "headline",
		Title:  "Headline claims (abstract)",
		Header: []string{"claim", "measured", "paper"},
	}
	// Throughput ratios across the inference sweep.
	minRatio, maxRatio := 1e18, 0.0
	for _, m := range perf.InferProfiles {
		for _, b := range batchSweep(m) {
			dlb, err := RunInference(InferSetup{Model: m, Backend: InferDLBooster, Batch: b})
			if err != nil {
				return Figure{}, err
			}
			for _, base := range []InferBackend{InferCPU, InferNvJPEG} {
				r, err := RunInference(InferSetup{Model: m, Backend: base, Batch: b})
				if err != nil {
					return Figure{}, err
				}
				ratio := dlb.Throughput / r.Throughput
				if ratio < minRatio {
					minRatio = ratio
				}
				if ratio > maxRatio {
					maxRatio = ratio
				}
			}
		}
	}
	fig.Rows = append(fig.Rows, []string{
		"inference throughput vs baselines",
		fmt.Sprintf("%.2fx – %.2fx", minRatio, maxRatio),
		"1.35x – 2.4x (abstract; 1.2x–2.4x in §5.3)",
	})
	// CPU-core ratio, training ResNet-18 (live decode).
	dlb, err := trainRow(TrainSetup{Model: perf.ResNet18, Backend: DLBooster, GPUs: 1})
	if err != nil {
		return Figure{}, err
	}
	cpu, err := trainRow(TrainSetup{Model: perf.ResNet18, Backend: CPUBased, GPUs: 1})
	if err != nil {
		return Figure{}, err
	}
	fig.Rows = append(fig.Rows, []string{
		"preprocess cores vs CPU-based (ResNet-18)",
		fmt.Sprintf("%.2f vs %.2f (%.0f%%)", dlb.Breakdown["preprocess"], cpu.Breakdown["preprocess"],
			dlb.Breakdown["preprocess"]/cpu.Breakdown["preprocess"]*100),
		"~1/10 of the CPU cores",
	})
	// Latency reduction at batch 1 (GoogLeNet) vs the better baseline.
	dlbL, err := RunInference(InferSetup{Model: perf.GoogLeNet, Backend: InferDLBooster, Batch: 1})
	if err != nil {
		return Figure{}, err
	}
	nvL, err := RunInference(InferSetup{Model: perf.GoogLeNet, Backend: InferNvJPEG, Batch: 1})
	if err != nil {
		return Figure{}, err
	}
	fig.Rows = append(fig.Rows, []string{
		"online latency vs nvJPEG (batch 1)",
		fmt.Sprintf("%.2f ms vs %.2f ms (-%.0f%%)", dlbL.MeanLatencyMs, nvL.MeanLatencyMs,
			(1-dlbL.MeanLatencyMs/nvL.MeanLatencyMs)*100),
		"reduces latency by 1/3",
	})
	return fig, nil
}

// Econ regenerates the §5.4 economic analysis.
func Econ() (Figure, error) {
	a := econ.Analyze(perf.AlexNet.EpochImages)
	return Figure{
		ID:     "econ",
		Title:  "Economic analysis (§5.4)",
		Header: []string{"quantity", "value", "paper"},
		Rows: [][]string{
			{"cores replaced per FPGA", fmt.Sprint(a.CoresReplaced), "30"},
			{"freed-core resale", fmt.Sprintf("$%.2f/h", a.HourlySavings), ">$1.5/h"},
			{"provider revenue per FPGA", fmt.Sprintf("$%.0f/yr", a.AnnualRevenuePerFPGA), "~$900/core-yr x 30"},
			{"power saved vs CPU decode", fmt.Sprintf("%.0f W", a.PowerSavedWatts), "FPGA 25 W vs CPU 130 W"},
			{"offline prep avoided (ILSVRC12)", fmt.Sprintf("%.1f h", a.OfflinePrepHours), ">2 h"},
		},
	}, nil
}

// FutureWork regenerates §7's two quantifiable directions: raising the
// decode plateau with more FPGA boards (also suggested in §5.3) and
// cutting latency by writing decoded batches directly to GPU memory.
func FutureWork() (Figure, error) {
	fig := Figure{
		ID:     "future",
		Title:  "Future-work directions (§7): more FPGAs, direct-to-GPU DMA (GoogLeNet)",
		Header: []string{"configuration", "img/s (b=32)", "mean ms (b=32)", "mean ms (b=1)"},
	}
	row := func(name string, setup InferSetup) error {
		setup.Model = perf.GoogLeNet
		setup.Backend = InferDLBooster
		setup.Batch = 32
		r32, err := RunInference(setup)
		if err != nil {
			return err
		}
		setup.Batch = 1
		r1, err := RunInference(setup)
		if err != nil {
			return err
		}
		fig.Rows = append(fig.Rows, []string{
			name, f0(r32.Throughput), fmt.Sprintf("%.2f", r32.MeanLatencyMs), fmt.Sprintf("%.2f", r1.MeanLatencyMs),
		})
		return nil
	}
	if err := row("1 FPGA (paper)", InferSetup{}); err != nil {
		return Figure{}, err
	}
	if err := row("2 FPGAs", InferSetup{FPGAs: 2}); err != nil {
		return Figure{}, err
	}
	if err := row("3 FPGAs", InferSetup{FPGAs: 3}); err != nil {
		return Figure{}, err
	}
	if err := row("1 FPGA + GPUDirect", InferSetup{GPUDirect: true}); err != nil {
		return Figure{}, err
	}
	if err := row("2 FPGAs + GPUDirect", InferSetup{FPGAs: 2, GPUDirect: true}); err != nil {
		return Figure{}, err
	}
	return fig, nil
}

// Scalability quantifies §2.2's scalability argument: "the demands on
// CPU cores to fully boost GPUs' performance have already exceeded what
// such servers can offer ... the number of CPU cores limits the
// scalability of the DL workflow when more GPUs are used." AlexNet
// training is swept to 8 GPUs (a DGX-class box): the CPU backend caps
// at the 30-core decode budget while DLBooster follows the boundary
// with ⌈demand/board-rate⌉ FPGA boards.
func Scalability() (Figure, error) {
	fig := Figure{
		ID:     "scale",
		Title:  "Scalability (§2.2): AlexNet training throughput vs GPU count",
		Header: []string{"gpus", "boundary img/s", "CPU-based img/s", "CPU threads", "DLBooster img/s", "FPGAs", "DLB % of boundary"},
		Notes:  "CPU decode capped at the 30-core budget (~5.7k img/s); one FPGA board ≈ 5.6k img/s of decode",
	}
	for _, g := range []int{1, 2, 4, 8} {
		ideal, err := trainRow(TrainSetup{Model: perf.AlexNet, Backend: Ideal, GPUs: g})
		if err != nil {
			return Figure{}, err
		}
		cpu, err := trainRow(TrainSetup{Model: perf.AlexNet, Backend: CPUBased, GPUs: g})
		if err != nil {
			return Figure{}, err
		}
		demand := float64(g) * perf.AlexNet.IdealRate * perf.MultiGPUSyncEfficiency(g)
		boards := int(math.Ceil(demand / perf.FPGADecodeRate()))
		if boards < 1 {
			boards = 1
		}
		dlb, err := trainRow(TrainSetup{Model: perf.AlexNet, Backend: DLBooster, GPUs: g, FPGAs: boards})
		if err != nil {
			return Figure{}, err
		}
		fig.Rows = append(fig.Rows, []string{
			fmt.Sprint(g), f0(ideal.Throughput),
			f0(cpu.Throughput), fmt.Sprint(cpu.CPUThreads),
			f0(dlb.Throughput), fmt.Sprint(boards),
			f1(dlb.Throughput / ideal.Throughput * 100),
		})
	}
	return fig, nil
}

// HybridCache quantifies §3.1's hybrid service: LeNet-5's first epoch
// decodes online, later epochs replay from the in-memory cache (MNIST
// fits); for ILSVRC-scale models every epoch decodes online.
func HybridCache() (Figure, error) {
	fig := Figure{
		ID:     "hybrid",
		Title:  "Hybrid first-epoch cache (§3.1): LeNet-5 epoch 1 (online decode) vs epochs ≥2 (memory replay), 1 GPU",
		Header: []string{"backend", "epoch 1 img/s", "epochs ≥2 img/s"},
		Notes:  "MNIST fits in memory, so all backends converge to copy-limited replay after epoch 1; ILSVRC12 does not fit and keeps paying the decode path (Figure 6 discussion)",
	}
	for _, tb := range trainBackends {
		first, err := trainRow(TrainSetup{Model: perf.LeNet5, Backend: tb.be, GPUs: 1, Cached: false})
		if err != nil {
			return Figure{}, err
		}
		later, err := trainRow(TrainSetup{Model: perf.LeNet5, Backend: tb.be, GPUs: 1, Cached: true})
		if err != nil {
			return Figure{}, err
		}
		fig.Rows = append(fig.Rows, []string{tb.name, f0(first.Throughput), f0(later.Throughput)})
	}
	return fig, nil
}

// All runs every figure in paper order.
func All() ([]Figure, error) {
	runners := []func() (Figure, error){
		Figure2,
		Figure5a, Figure5b, Figure5c,
		Figure6, Figure6d,
		Figure7a, Figure7b, Figure7c,
		Figure8a, Figure8b, Figure8c,
		Figure9,
		Headline,
		Econ,
		FutureWork,
		HybridCache,
		Scalability,
	}
	out := make([]Figure, 0, len(runners))
	for _, run := range runners {
		f, err := run()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
