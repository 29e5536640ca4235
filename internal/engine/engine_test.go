package engine

import (
	"sync"
	"testing"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/metrics"
	"dlbooster/internal/nvme"
	"dlbooster/internal/perf"
)

// rig wires a backend, dispatcher, and n solvers — the full functional
// stack below the engine.
type rig struct {
	backend *core.Booster
	solvers []*core.Solver
	disk    *nvme.Device
	spec    dataset.Spec
	devices []*gpu.Device
}

func newRig(t *testing.T, images, batch, gpus int) *rig {
	t.Helper()
	spec := dataset.MNISTLike(images)
	disk := nvme.New(nvme.Config{})
	if _, err := spec.WriteToNVMe(disk); err != nil {
		t.Fatal(err)
	}
	b, err := core.New(core.Config{
		BatchSize: batch, OutW: 28, OutH: 28, Channels: 1,
		PoolBatches: 4, Source: disk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	r := &rig{backend: b, disk: disk, spec: spec}
	for g := 0; g < gpus; g++ {
		dev, err := gpu.NewDevice(g, 1<<26)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dev.Close)
		s, err := core.NewSolver(dev, 2, batch*28*28)
		if err != nil {
			t.Fatal(err)
		}
		r.solvers = append(r.solvers, s)
		r.devices = append(r.devices, dev)
	}
	return r
}

// pump runs one epoch through backend and dispatcher in the background.
func (r *rig) pump(t *testing.T) <-chan error {
	t.Helper()
	errc := make(chan error, 2)
	d, err := core.NewDispatcher(r.backend.Batches(), r.backend.RecycleBatch, r.solvers, core.DispatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { errc <- d.Run() }()
	go func() {
		col, err := core.LoadFromDisk(r.disk, func(name string, i int) int { return r.spec.Label(i) })
		if err != nil {
			errc <- err
			return
		}
		if err := r.backend.RunEpoch(col); err != nil {
			errc <- err
			return
		}
		r.backend.CloseBatches()
		errc <- nil
	}()
	return errc
}

func TestTrainerSingleGPU(t *testing.T) {
	r := newRig(t, 32, 8, 1)
	tr, err := NewTrainer(TrainerConfig{Profile: perf.LeNet5, Solvers: r.solvers})
	if err != nil {
		t.Fatal(err)
	}
	errc := r.pump(t)
	st, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if st.Images != 32 || st.Iterations != 4 || st.SkippedBad != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LossProxy == 0 {
		t.Fatal("loss proxy is zero: forward pass never ran")
	}
	if r.devices[0].KernelBusy() <= 0 {
		t.Fatal("no kernel busy time accounted")
	}
}

func TestTrainerDataParallelTwoGPUs(t *testing.T) {
	r := newRig(t, 48, 8, 2)
	tr, err := NewTrainer(TrainerConfig{Profile: perf.LeNet5, Solvers: r.solvers})
	if err != nil {
		t.Fatal(err)
	}
	errc := r.pump(t)
	st, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	// 6 batches round-robined over 2 GPUs → 3 lockstep iterations.
	if st.Images != 48 || st.Iterations != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTrainerLossIndependentOfBackendOrGPUs: the digest is order
// independent (XOR) so any backend/GPU arrangement that delivers the same
// images yields the same proxy.
func TestTrainerLossIndependentOfArrangement(t *testing.T) {
	digest := func(gpus, batch int) uint64 {
		r := newRig(t, 24, batch, gpus)
		tr, err := NewTrainer(TrainerConfig{Profile: perf.LeNet5, Solvers: r.solvers})
		if err != nil {
			t.Fatal(err)
		}
		errc := r.pump(t)
		st, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
		return st.LossProxy
	}
	a := digest(1, 8)
	b := digest(2, 8)
	c := digest(2, 4)
	if a != b || b != c {
		t.Fatalf("digests differ: %x %x %x", a, b, c)
	}
}

func TestTrainerBusyBreakdown(t *testing.T) {
	r := newRig(t, 16, 8, 1)
	busy := metrics.NewBusyTracker()
	tr, err := NewTrainer(TrainerConfig{Profile: perf.LeNet5, Solvers: r.solvers, Busy: busy})
	if err != nil {
		t.Fatal(err)
	}
	errc := r.pump(t)
	st, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	el := st.Elapsed.Seconds()
	cores := busy.Cores(el)
	if diff := cores["kernels"] - perf.KernelLaunchCores; diff > 0.01 || diff < -0.01 {
		t.Fatalf("kernels cores = %v", cores["kernels"])
	}
	if cores["update"] <= 0 || cores["transform"] <= 0 {
		t.Fatalf("breakdown missing: %v", cores)
	}
}

func TestTrainerValidation(t *testing.T) {
	if _, err := NewTrainer(TrainerConfig{Profile: perf.LeNet5}); err == nil {
		t.Fatal("no solvers accepted")
	}
	r := newRig(t, 8, 8, 1)
	if _, err := NewTrainer(TrainerConfig{Profile: perf.TrainProfile{}, Solvers: r.solvers}); err == nil {
		t.Fatal("zero profile accepted")
	}
}

func TestTrainerPacing(t *testing.T) {
	// Pacing must call the sleeper with batch/(rate·syncEff).
	var slept []float64
	old := sleepSeconds
	sleepSeconds = func(s float64) { slept = append(slept, s) }
	defer func() { sleepSeconds = old }()
	r := newRig(t, 16, 8, 1)
	tr, err := NewTrainer(TrainerConfig{Profile: perf.LeNet5, Solvers: r.solvers, PaceCompute: true})
	if err != nil {
		t.Fatal(err)
	}
	errc := r.pump(t)
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if len(slept) != 2 {
		t.Fatalf("paced %d iterations, want 2", len(slept))
	}
	want := 8.0 / perf.LeNet5.IdealRate
	if slept[0] < want*0.99 || slept[0] > want*1.01 {
		t.Fatalf("paced %v s, want %v", slept[0], want)
	}
}

func TestInferenceEngine(t *testing.T) {
	r := newRig(t, 24, 8, 1)
	lat := &metrics.Histogram{}
	var mu sync.Mutex
	var preds []Prediction
	inf, err := NewInference(InferenceConfig{
		Profile: perf.GoogLeNet,
		Solver:  r.solvers[0],
		Classes: 10,
		Latency: lat,
		Emit: func(p Prediction) {
			mu.Lock()
			preds = append(preds, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := r.pump(t)
	st, err := inf.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if st.Images != 24 || st.Batches != 3 {
		t.Fatalf("stats = %+v", st)
	}
	s := lat.Summarize()
	if s.Count != 24 {
		t.Fatalf("latency samples = %d", s.Count)
	}
	if s.Min < 0 {
		t.Fatal("negative latency")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(preds) != 24 {
		t.Fatalf("predictions = %d", len(preds))
	}
	for _, p := range preds {
		if p.Label < 0 || p.Label >= 10 {
			t.Fatalf("label %d out of range", p.Label)
		}
	}
	// Determinism: the same image always gets the same label.
	seen := map[int]int{}
	for _, p := range preds {
		seen[p.Seq] = p.Label
	}
	if len(seen) != 24 {
		t.Fatalf("distinct items = %d", len(seen))
	}
}

func TestInferenceValidation(t *testing.T) {
	if _, err := NewInference(InferenceConfig{Profile: perf.GoogLeNet}); err == nil {
		t.Fatal("nil solver accepted")
	}
	r := newRig(t, 8, 8, 1)
	if _, err := NewInference(InferenceConfig{Solver: r.solvers[0]}); err == nil {
		t.Fatal("zero profile accepted")
	}
}

func TestInferencePaced(t *testing.T) {
	var slept []float64
	old := sleepSeconds
	sleepSeconds = func(s float64) { slept = append(slept, s) }
	defer func() { sleepSeconds = old }()
	r := newRig(t, 16, 8, 1)
	inf, err := NewInference(InferenceConfig{Profile: perf.VGG16, Solver: r.solvers[0], PaceCompute: true})
	if err != nil {
		t.Fatal(err)
	}
	errc := r.pump(t)
	if _, err := inf.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if len(slept) != 2 {
		t.Fatalf("paced %d batches", len(slept))
	}
	want := perf.VGG16.BatchSeconds(8)
	if slept[0] != want {
		t.Fatalf("paced %v, want %v", slept[0], want)
	}
}

func TestEndToEndLatencyIsMeasuredFromReceipt(t *testing.T) {
	// Items stamped in the past must show correspondingly large latency.
	r := newRig(t, 8, 8, 1)
	lat := &metrics.Histogram{}
	inf, err := NewInference(InferenceConfig{Profile: perf.GoogLeNet, Solver: r.solvers[0], Latency: lat})
	if err != nil {
		t.Fatal(err)
	}
	// Feed items with a back-dated timestamp through a custom collector.
	items := make([]core.Item, 8)
	for i := range items {
		data, err := r.spec.JPEG(i)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = core.Item{
			Ref:  refInline(data),
			Meta: core.ItemMeta{Seq: i, ReceivedAt: time.Now().Add(-time.Second)},
		}
	}
	d, err := core.NewDispatcher(r.backend.Batches(), r.backend.RecycleBatch, r.solvers, core.DispatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 2)
	go func() { errc <- d.Run() }()
	go func() {
		if err := r.backend.RunEpoch(core.CollectorFromItems(items)); err != nil {
			errc <- err
			return
		}
		r.backend.CloseBatches()
		errc <- nil
	}()
	if _, err := inf.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if lat.Summarize().Min < 1000 {
		t.Fatalf("latency min = %v ms, want >= 1000 (back-dated receipt)", lat.Summarize().Min)
	}
}

// refInline builds an inline DataRef without importing fpga everywhere.
func refInline(data []byte) fpga.DataRef { return fpga.DataRef{Inline: data} }
