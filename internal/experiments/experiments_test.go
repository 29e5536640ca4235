package experiments

import (
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dlbooster/internal/perf"
)

// The experiments suite does not chase the paper's absolute numbers —
// the substrate is a simulator — but every test here pins a *shape* the
// paper reports: who wins, by what factor, where curves saturate.

func train(t *testing.T, s TrainSetup) TrainResult {
	t.Helper()
	r, err := RunTraining(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func infer(t *testing.T, s InferSetup) InferResult {
	t.Helper()
	r, err := RunInference(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func within(t *testing.T, what string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Fatalf("%s = %.2f, want in [%.2f, %.2f]", what, got, lo, hi)
	}
}

// --- Figure 2 ----------------------------------------------------------

func TestFigure2Anchors(t *testing.T) {
	ideal1 := train(t, TrainSetup{Model: perf.AlexNet, Backend: Ideal, GPUs: 1})
	ideal2 := train(t, TrainSetup{Model: perf.AlexNet, Backend: Ideal, GPUs: 2})
	within(t, "ideal 1GPU", ideal1.Throughput, 2400, 2600) // paper 2496
	within(t, "ideal 2GPU", ideal2.Throughput, 4500, 4800) // paper 4652

	def := train(t, TrainSetup{Model: perf.AlexNet, Backend: CPUDefault, GPUs: 1})
	within(t, "default-config fraction", def.Throughput/ideal1.Throughput, 0.20, 0.30) // paper ~25%

	lmdb1 := train(t, TrainSetup{Model: perf.AlexNet, Backend: LMDBStore, GPUs: 1})
	lmdb2 := train(t, TrainSetup{Model: perf.AlexNet, Backend: LMDBStore, GPUs: 2})
	within(t, "LMDB 1GPU", lmdb1.Throughput, 2300, 2500) // paper 2446
	within(t, "LMDB 2GPU", lmdb2.Throughput, 3100, 3300) // paper 3200
	// The LMDB 2-GPU loss vs ideal is the ~30% contention effect.
	within(t, "LMDB 2GPU loss", 1-lmdb2.Throughput/ideal2.Throughput, 0.25, 0.36)

	cpu1 := train(t, TrainSetup{Model: perf.AlexNet, Backend: CPUBased, GPUs: 1})
	within(t, "CPU 1GPU", cpu1.Throughput, 2250, 2500)  // paper 2346
	within(t, "CPU 1GPU cores", cpu1.TotalCores, 9, 14) // paper ~12
}

// --- Figure 5 ----------------------------------------------------------

func TestFigure5DLBoosterApproachesBoundary(t *testing.T) {
	for _, m := range perf.TrainProfiles {
		for _, g := range []int{1, 2} {
			ideal := train(t, TrainSetup{Model: m, Backend: Ideal, GPUs: g, Cached: m.DatasetFitsInMemory})
			dlb := train(t, TrainSetup{Model: m, Backend: DLBooster, GPUs: g, Cached: m.DatasetFitsInMemory})
			if dlb.Throughput < 0.95*ideal.Throughput {
				t.Fatalf("%s %dGPU: DLBooster %.0f below 95%% of boundary %.0f", m.Name, g, dlb.Throughput, ideal.Throughput)
			}
		}
	}
}

func TestFigure5DLBoosterBeatsBaselines(t *testing.T) {
	for _, m := range perf.TrainProfiles {
		for _, g := range []int{1, 2} {
			dlb := train(t, TrainSetup{Model: m, Backend: DLBooster, GPUs: g, Cached: m.DatasetFitsInMemory})
			for _, be := range []TrainBackend{CPUBased, LMDBStore} {
				base := train(t, TrainSetup{Model: m, Backend: be, GPUs: g, Cached: m.DatasetFitsInMemory})
				if dlb.Throughput < base.Throughput {
					t.Fatalf("%s %dGPU: DLBooster %.0f < %s %.0f", m.Name, g, dlb.Throughput, be, base.Throughput)
				}
			}
		}
	}
}

// TestFigure5NoBackendAboveBoundary: the upper boundary is synthetic
// data, so no backend row of a Figure 5 panel may beat it, at 1 GPU or 2.
func TestFigure5NoBackendAboveBoundary(t *testing.T) {
	for _, run := range []func() (Figure, error){Figure5a, Figure5b, Figure5c} {
		fig, err := run()
		if err != nil {
			t.Fatal(err)
		}
		bound := fig.Rows[len(fig.Rows)-1]
		if bound[0] != "Upper boundary" {
			t.Fatalf("%s: last row is %q, want the upper boundary", fig.ID, bound[0])
		}
		for _, row := range fig.Rows[:len(fig.Rows)-1] {
			for col := 1; col <= 2; col++ {
				got, err1 := strconv.ParseFloat(row[col], 64)
				max, err2 := strconv.ParseFloat(bound[col], 64)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: unparsable cells %q, %q", fig.ID, row[col], bound[col])
				}
				if got > max {
					t.Errorf("%s: %s %s = %s above the boundary's %s", fig.ID, row[0], fig.Header[col], row[col], bound[col])
				}
			}
		}
	}
}

// analyticBound is n GPUs' synthetic-data rate: the per-GPU ideal rate
// discounted by gradient synchronisation.
func analyticBound(m perf.TrainProfile, n int) float64 {
	return float64(n) * m.IdealRate * perf.MultiGPUSyncEfficiency(n)
}

// TestIdealMatchesAnalyticBound: the boundary rows are measured on a
// simulated pipeline, so they must read the closed-form rate, also when
// n GPUs finish their batches at one instant.
func TestIdealMatchesAnalyticBound(t *testing.T) {
	for _, m := range perf.TrainProfiles {
		for _, n := range []int{1, 2, 4, 8} {
			got := train(t, TrainSetup{Model: m, Backend: Ideal, GPUs: n}).Throughput
			want := analyticBound(m, n)
			if d := got/want - 1; d > 0.001 || d < -0.001 {
				t.Errorf("%s %d GPUs: ideal %.1f, analytic %.1f (%+.2f %%)", m.Name, n, got, want, d*100)
			}
		}
	}
}

// TestScalabilityBelowAnalyticBound: no backend of the scale figure
// beats n GPUs' synthetic-data rate.
func TestScalabilityBelowAnalyticBound(t *testing.T) {
	fig, err := Scalability()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		n, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatalf("unparsable GPU count %q", row[0])
		}
		bound := analyticBound(perf.AlexNet, n)
		for _, col := range []int{2, 4} { // CPU-based, DLBooster
			got, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("unparsable cell %q", row[col])
			}
			if got > math.Round(bound) {
				t.Errorf("%d GPUs: %s = %s above the analytic bound %.1f", n, fig.Header[col], row[col], bound)
			}
		}
	}
}

func TestFigure5LeNetSmallCopyPenalty(t *testing.T) {
	// §5.2: per-datum copies cost LeNet-5 ≈20%.
	ideal := train(t, TrainSetup{Model: perf.LeNet5, Backend: Ideal, GPUs: 1, Cached: true})
	lmdb := train(t, TrainSetup{Model: perf.LeNet5, Backend: LMDBStore, GPUs: 1, Cached: true})
	within(t, "LeNet LMDB copy penalty", 1-lmdb.Throughput/ideal.Throughput, 0.10, 0.28)
}

// --- Figure 6 ----------------------------------------------------------

func TestFigure6CoreAnchors(t *testing.T) {
	// DLBooster ≈1.5 cores/GPU on the live-decode models.
	for _, m := range []perf.TrainProfile{perf.AlexNet, perf.ResNet18} {
		for _, g := range []int{1, 2} {
			r := train(t, TrainSetup{Model: m, Backend: DLBooster, GPUs: g})
			within(t, m.Name+" DLBooster cores/GPU", r.TotalCores/float64(g), 1.2, 1.7)
		}
	}
	// LMDB ≈2.5 cores/GPU.
	for _, m := range []perf.TrainProfile{perf.AlexNet, perf.ResNet18} {
		r := train(t, TrainSetup{Model: m, Backend: LMDBStore, GPUs: 2})
		within(t, m.Name+" LMDB cores/GPU", r.TotalCores/2, 1.9, 3.0)
	}
	// CPU-based: ≈12/GPU AlexNet, ≈7/GPU ResNet-18.
	alex := train(t, TrainSetup{Model: perf.AlexNet, Backend: CPUBased, GPUs: 2})
	within(t, "AlexNet CPU cores/GPU", alex.TotalCores/2, 9, 14)
	res := train(t, TrainSetup{Model: perf.ResNet18, Backend: CPUBased, GPUs: 2})
	within(t, "ResNet-18 CPU cores/GPU", res.TotalCores/2, 5.5, 8.5)
	// LeNet-5 (cached) is cheap for every backend.
	for _, be := range []TrainBackend{CPUBased, LMDBStore, DLBooster} {
		r := train(t, TrainSetup{Model: perf.LeNet5, Backend: be, GPUs: 1, Cached: true})
		if r.TotalCores > 2 {
			t.Fatalf("LeNet %s cores = %.2f, want small (cached)", be, r.TotalCores)
		}
	}
}

func TestFigure6dBreakdown(t *testing.T) {
	r := train(t, TrainSetup{Model: perf.ResNet18, Backend: DLBooster, GPUs: 1})
	within(t, "kernels", r.Breakdown["kernels"], 0.94, 0.96)      // paper 0.95
	within(t, "update", r.Breakdown["update"], 0.11, 0.13)        // paper 0.12
	within(t, "transform", r.Breakdown["transform"], 0.14, 0.16)  // paper 0.15
	within(t, "preprocess", r.Breakdown["preprocess"], 0.1, 0.45) // paper 0.3
	within(t, "total", r.TotalCores, 1.2, 1.6)                    // paper ≤1.5
}

// --- Figure 7 ----------------------------------------------------------

func TestFigure7ThroughputShapes(t *testing.T) {
	for _, m := range perf.InferProfiles {
		for _, ib := range []InferBackend{InferCPU, InferNvJPEG, InferDLBooster} {
			prev := 0.0
			for _, b := range batchSweep(m) {
				r := infer(t, InferSetup{Model: m, Backend: ib, Batch: b})
				if r.Throughput < prev*0.98 {
					t.Fatalf("%s/%s: throughput decreased at batch %d (%.0f after %.0f)", m.Name, ib, b, r.Throughput, prev)
				}
				prev = r.Throughput
			}
		}
	}
}

func TestFigure7DLBoosterWins(t *testing.T) {
	for _, m := range perf.InferProfiles {
		for _, b := range batchSweep(m) {
			dlb := infer(t, InferSetup{Model: m, Backend: InferDLBooster, Batch: b})
			for _, ib := range []InferBackend{InferCPU, InferNvJPEG} {
				base := infer(t, InferSetup{Model: m, Backend: ib, Batch: b})
				if dlb.Throughput < base.Throughput*0.999 {
					t.Fatalf("%s b=%d: DLBooster %.0f < %s %.0f", m.Name, b, dlb.Throughput, ib, base.Throughput)
				}
			}
		}
	}
}

func TestFigure7GoogLeNetPlateau(t *testing.T) {
	// DLBooster approaches its FPGA bound at batch ≥ 16 (§5.3: "when the
	// batch size is greater than 16 ... DLBooster approaches its
	// performance bound").
	b16 := infer(t, InferSetup{Model: perf.GoogLeNet, Backend: InferDLBooster, Batch: 16})
	b32 := infer(t, InferSetup{Model: perf.GoogLeNet, Backend: InferDLBooster, Batch: 32})
	within(t, "plateau b=32", b32.Throughput, 5200, perf.FPGADecodeRate())
	if gain := b32.Throughput / b16.Throughput; gain > 1.25 {
		t.Fatalf("no plateau: b16→b32 still gains %.2fx", gain)
	}
	// Plugging a second FPGA lifts the plateau (§5.3's remedy).
	two := infer(t, InferSetup{Model: perf.GoogLeNet, Backend: InferDLBooster, Batch: 32, FPGAs: 2})
	if two.Throughput <= b32.Throughput*1.02 {
		t.Fatalf("second FPGA did not lift the plateau: %.0f vs %.0f", two.Throughput, b32.Throughput)
	}
}

func TestFigure7NvJPEGContention(t *testing.T) {
	// §5.3: nvJPEG loses ≈40% at large batch from GPU competition.
	dlb := infer(t, InferSetup{Model: perf.GoogLeNet, Backend: InferDLBooster, Batch: 32})
	nv := infer(t, InferSetup{Model: perf.GoogLeNet, Backend: InferNvJPEG, Batch: 32})
	within(t, "nvJPEG degradation", 1-nv.Throughput/dlb.Throughput, 0.25, 0.55)
}

// --- Figure 8 ----------------------------------------------------------

func TestFigure8Batch1LatencyOrdering(t *testing.T) {
	// Paper: ≈1.2 ms DLBooster < ≈1.8 ms nvJPEG < ≈3.4 ms CPU-based.
	for _, m := range perf.InferProfiles {
		dlb := infer(t, InferSetup{Model: m, Backend: InferDLBooster, Batch: 1})
		nv := infer(t, InferSetup{Model: m, Backend: InferNvJPEG, Batch: 1})
		cpu := infer(t, InferSetup{Model: m, Backend: InferCPU, Batch: 1})
		if !(dlb.MeanLatencyMs < nv.MeanLatencyMs && nv.MeanLatencyMs < cpu.MeanLatencyMs) {
			t.Fatalf("%s: latency ordering broken: dlb=%.2f nv=%.2f cpu=%.2f",
				m.Name, dlb.MeanLatencyMs, nv.MeanLatencyMs, cpu.MeanLatencyMs)
		}
	}
	g := infer(t, InferSetup{Model: perf.GoogLeNet, Backend: InferDLBooster, Batch: 1})
	within(t, "GoogLeNet DLB batch-1 latency", g.MeanLatencyMs, 0.8, 1.6) // paper 1.2
}

func TestFigure8LatencyGrowsWithBatch(t *testing.T) {
	for _, ib := range []InferBackend{InferCPU, InferNvJPEG, InferDLBooster} {
		prev := 0.0
		for _, b := range []int{1, 4, 16, 32} {
			r := infer(t, InferSetup{Model: perf.VGG16, Backend: ib, Batch: b})
			if r.MeanLatencyMs < prev {
				t.Fatalf("%s: latency fell at batch %d", ib, b)
			}
			prev = r.MeanLatencyMs
		}
	}
}

// --- Figure 9 ----------------------------------------------------------

func TestFigure9InferenceCores(t *testing.T) {
	for _, m := range perf.InferProfiles {
		b := 32
		if m.MaxBatch >= 64 {
			b = 64
		}
		cpu := infer(t, InferSetup{Model: m, Backend: InferCPU, Batch: b})
		within(t, m.Name+" CPU cores", cpu.TotalCores, 6.5, 15.5) // paper 7–14
		nv := infer(t, InferSetup{Model: m, Backend: InferNvJPEG, Batch: b})
		within(t, m.Name+" nvJPEG cores", nv.TotalCores, 1.2, 2.0) // paper ~1.5
		dlb := infer(t, InferSetup{Model: m, Backend: InferDLBooster, Batch: b})
		within(t, m.Name+" DLBooster cores", dlb.TotalCores, 0.05, 0.8) // paper ~0.5
	}
}

// --- Headline ----------------------------------------------------------

func TestHeadlineRatios(t *testing.T) {
	fig, err := Headline()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 3 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	// Recompute the extremes directly for assertion.
	minR, maxR := 1e18, 0.0
	for _, m := range perf.InferProfiles {
		for _, b := range batchSweep(m) {
			dlb := infer(t, InferSetup{Model: m, Backend: InferDLBooster, Batch: b})
			for _, ib := range []InferBackend{InferCPU, InferNvJPEG} {
				base := infer(t, InferSetup{Model: m, Backend: ib, Batch: b})
				r := dlb.Throughput / base.Throughput
				if r < minR {
					minR = r
				}
				if r > maxR {
					maxR = r
				}
			}
		}
	}
	if minR < 1.0 {
		t.Fatalf("DLBooster loses somewhere: min ratio %.2f", minR)
	}
	within(t, "max throughput ratio", maxR, 1.8, 2.9) // paper up to 2.4x
}

// --- Ablations ---------------------------------------------------------

func TestAblationCopyMode(t *testing.T) {
	fig, err := AblationCopyMode()
	if err != nil {
		t.Fatal(err)
	}
	batched := train(t, TrainSetup{Model: perf.LeNet5, Backend: DLBooster, GPUs: 1, Cached: true})
	perItem := train(t, TrainSetup{Model: perf.LeNet5, Backend: DLBooster, GPUs: 1, Cached: true, PerItemCopy: true})
	within(t, "per-item copy loss", 1-perItem.Throughput/batched.Throughput, 0.10, 0.28) // paper ~20%
	if len(fig.Rows) != 2 {
		t.Fatalf("figure rows = %d", len(fig.Rows))
	}
}

func TestAblationSharedStore(t *testing.T) {
	shared := train(t, TrainSetup{Model: perf.AlexNet, Backend: LMDBStore, GPUs: 2})
	private := train(t, TrainSetup{Model: perf.AlexNet, Backend: LMDBStore, GPUs: 2, LMDBPrivate: true})
	if private.Throughput <= shared.Throughput*1.1 {
		t.Fatalf("removing contention gained too little: %.0f vs %.0f", private.Throughput, shared.Throughput)
	}
}

func TestAblationAsyncReader(t *testing.T) {
	async := train(t, TrainSetup{Model: perf.AlexNet, Backend: DLBooster, GPUs: 2})
	sync := train(t, TrainSetup{Model: perf.AlexNet, Backend: DLBooster, GPUs: 2, SyncReader: true})
	if sync.Throughput >= async.Throughput*0.95 {
		t.Fatalf("synchronous reader should cost real throughput: %.0f vs %.0f", sync.Throughput, async.Throughput)
	}
}

func TestAblationUnitWidths(t *testing.T) {
	// Throughput must rise with Huffman width and saturate once another
	// stage (or the GPU) binds.
	var prev float64
	for _, hw := range []int{1, 2, 4} {
		r := infer(t, InferSetup{Model: perf.GoogLeNet, Backend: InferDLBooster, Batch: 32, HuffmanWays: hw, ResizeWays: 2})
		if r.Throughput < prev {
			t.Fatalf("throughput fell at %d-way Huffman", hw)
		}
		prev = r.Throughput
	}
	r8 := infer(t, InferSetup{Model: perf.GoogLeNet, Backend: InferDLBooster, Batch: 32, HuffmanWays: 8, ResizeWays: 2})
	if r8.Throughput > prev*1.25 {
		t.Fatalf("8-way Huffman gained %.2fx over 4-way: no saturation", r8.Throughput/prev)
	}
}

func TestAblationSelectiveOffload(t *testing.T) {
	sel := infer(t, InferSetup{Model: perf.GoogLeNet, Backend: InferDLBooster, Batch: 32})
	full := infer(t, InferSetup{Model: perf.GoogLeNet, Backend: InferDLBooster, Batch: 32, HuffmanWays: 2})
	if full.Throughput >= sel.Throughput {
		t.Fatalf("full offload should lose: %.0f vs %.0f", full.Throughput, sel.Throughput)
	}
}

func TestFutureWorkDirections(t *testing.T) {
	// More FPGAs lift the batch-32 plateau.
	one := infer(t, InferSetup{Model: perf.GoogLeNet, Backend: InferDLBooster, Batch: 32})
	two := infer(t, InferSetup{Model: perf.GoogLeNet, Backend: InferDLBooster, Batch: 32, FPGAs: 2})
	if two.Throughput <= one.Throughput {
		t.Fatalf("2 FPGAs: %.0f <= %.0f", two.Throughput, one.Throughput)
	}
	// GPUDirect trims latency without hurting throughput.
	direct := infer(t, InferSetup{Model: perf.GoogLeNet, Backend: InferDLBooster, Batch: 32, GPUDirect: true})
	if direct.MeanLatencyMs >= one.MeanLatencyMs {
		t.Fatalf("GPUDirect latency %.2f >= %.2f", direct.MeanLatencyMs, one.MeanLatencyMs)
	}
	if direct.Throughput < one.Throughput*0.99 {
		t.Fatalf("GPUDirect lost throughput: %.0f vs %.0f", direct.Throughput, one.Throughput)
	}
	fig, err := FutureWork()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 5 {
		t.Fatalf("future-work rows = %d", len(fig.Rows))
	}
}

func TestScalabilityShape(t *testing.T) {
	// §2.2: the CPU backend must fall progressively behind the boundary
	// as GPUs are added (core budget), while DLBooster with enough
	// boards stays ≥95%.
	prevFrac := 2.0
	for _, g := range []int{2, 4, 8} {
		ideal := train(t, TrainSetup{Model: perf.AlexNet, Backend: Ideal, GPUs: g})
		cpu := train(t, TrainSetup{Model: perf.AlexNet, Backend: CPUBased, GPUs: g})
		frac := cpu.Throughput / ideal.Throughput
		if frac >= prevFrac+0.01 {
			t.Fatalf("CPU fraction rose at %d GPUs: %.2f after %.2f", g, frac, prevFrac)
		}
		prevFrac = frac
		boards := 1 + (g-1)/2 // demand/5.6k rounded up ≈ this sweep
		dlb := train(t, TrainSetup{Model: perf.AlexNet, Backend: DLBooster, GPUs: g, FPGAs: boards + 1})
		if dlb.Throughput < 0.95*ideal.Throughput {
			t.Fatalf("%d GPUs: DLBooster %.0f below 95%% of %.0f", g, dlb.Throughput, ideal.Throughput)
		}
	}
	// At 8 GPUs the CPU backend must be badly core-bound (paper: each
	// GPU can use at most ~3 cores on a DGX-2).
	ideal8 := train(t, TrainSetup{Model: perf.AlexNet, Backend: Ideal, GPUs: 8})
	cpu8 := train(t, TrainSetup{Model: perf.AlexNet, Backend: CPUBased, GPUs: 8})
	if cpu8.Throughput > 0.5*ideal8.Throughput {
		t.Fatalf("8-GPU CPU backend too fast: %.0f vs boundary %.0f", cpu8.Throughput, ideal8.Throughput)
	}
	fig, err := Scalability()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 4 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
}

func TestHybridCacheFigure(t *testing.T) {
	// Epochs ≥2 must be at least as fast as epoch 1 for every backend,
	// and DLBooster's epoch 1 must already be near the boundary (the
	// FPGA covers MNIST decode easily).
	for _, be := range []TrainBackend{CPUBased, LMDBStore, DLBooster} {
		first := train(t, TrainSetup{Model: perf.LeNet5, Backend: be, GPUs: 1, Cached: false})
		later := train(t, TrainSetup{Model: perf.LeNet5, Backend: be, GPUs: 1, Cached: true})
		if later.Throughput < first.Throughput*0.999 {
			t.Fatalf("%s: cached epoch slower: %.0f vs %.0f", be, later.Throughput, first.Throughput)
		}
	}
	fig, err := HybridCache()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 3 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
}

// --- Infrastructure ----------------------------------------------------

func TestDeterminism(t *testing.T) {
	a := train(t, TrainSetup{Model: perf.AlexNet, Backend: LMDBStore, GPUs: 2})
	b := train(t, TrainSetup{Model: perf.AlexNet, Backend: LMDBStore, GPUs: 2})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("training sim not deterministic: %+v vs %+v", a, b)
	}
	x := infer(t, InferSetup{Model: perf.ResNet50, Backend: InferNvJPEG, Batch: 16})
	y := infer(t, InferSetup{Model: perf.ResNet50, Backend: InferNvJPEG, Batch: 16})
	if !reflect.DeepEqual(x, y) {
		t.Fatalf("inference sim not deterministic")
	}
}

func TestValidation(t *testing.T) {
	if _, err := RunTraining(TrainSetup{Model: perf.AlexNet, Backend: CPUBased, GPUs: 0}); err == nil {
		t.Fatal("0 GPUs accepted")
	}
	if _, err := RunTraining(TrainSetup{Model: perf.TrainProfile{}, Backend: CPUBased, GPUs: 1}); err == nil {
		t.Fatal("zero profile accepted")
	}
	if _, err := RunTraining(TrainSetup{Model: perf.AlexNet, Backend: "bogus", GPUs: 1}); err == nil {
		t.Fatal("bogus backend accepted")
	}
	if _, err := RunInference(InferSetup{Model: perf.GoogLeNet, Backend: InferCPU, Batch: 0}); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, err := RunInference(InferSetup{Model: perf.InferProfile{}, Backend: InferCPU, Batch: 1}); err == nil {
		t.Fatal("zero profile accepted")
	}
	if _, err := RunInference(InferSetup{Model: perf.GoogLeNet, Backend: "bogus", Batch: 1}); err == nil {
		t.Fatal("bogus backend accepted")
	}
}

// TestAllFiguresRunAndRender is the behavioural baseline: every figure
// and ablation, rendered as dlbench prints them, must equal
// testdata/figures.golden byte for byte. After a change that is meant to
// move a figure, regenerate the file from the repository root with
//
//	go run ./cmd/dlbench > internal/experiments/testdata/figures.golden
//
// and say in the change which figures moved and why.
func TestAllFiguresRunAndRender(t *testing.T) {
	figs, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 18 {
		t.Fatalf("figures = %d, want 18", len(figs))
	}
	ids := map[string]bool{}
	for _, f := range figs {
		if ids[f.ID] {
			t.Fatalf("duplicate figure id %s", f.ID)
		}
		ids[f.ID] = true
	}
	abls, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(abls) != 5 {
		t.Fatalf("ablations = %d", len(abls))
	}
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := RenderAll(append(figs, abls...))
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("rendered figures differ from testdata/figures.golden at line %d:\ngot  %q\nwant %q", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("rendered figures have %d lines, testdata/figures.golden %d", len(gotLines), len(wantLines))
	}
}
