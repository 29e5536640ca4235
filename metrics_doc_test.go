package dlbooster

// metrics_doc_test pins docs/METRICS.md to the code: every metric name
// an instrumented pipeline actually exports must appear (backticked) in
// the reference, so a new instrument cannot land undocumented. Indexed
// names are normalised to the documented placeholders (fpga0_… →
// fpga<i>_…, trans0_… → trans<i>_…).

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/engine"
	"dlbooster/internal/faults"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/metrics"
	"dlbooster/internal/perf"
)

var (
	fpgaRe  = regexp.MustCompile(`^fpga\d+_`)
	transRe = regexp.MustCompile(`^trans\d+_`)
)

// normalizeMetricName maps per-board / per-solver instrument names onto
// the placeholder forms docs/METRICS.md documents.
func normalizeMetricName(name string) string {
	name = fpgaRe.ReplaceAllString(name, "fpga<i>_")
	name = transRe.ReplaceAllString(name, "trans<i>_")
	return name
}

// tracedSnapshot runs one fully traced pipeline — collector → FPGAReader
// (with fault-injected retries and a cache-enabled epoch) → Dispatcher →
// trainer and inference engines — and returns its snapshot, so the test
// sees the widest real instrument surface.
func tracedSnapshot(t *testing.T) *metrics.PipelineSnapshot {
	t.Helper()
	const n, batch, edge = 16, 4, 28
	spec := dataset.MNISTLike(n)
	items := make([]core.Item, n)
	for i := range items {
		data, err := spec.JPEG(i)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = core.Item{
			Ref:  fpga.DataRef{Inline: data},
			Meta: core.ItemMeta{Label: spec.Label(i), Seq: i, ReceivedAt: time.Now()},
		}
	}
	reg := metrics.NewRegistry()
	b, err := core.New(core.Config{
		BatchSize: batch, OutW: edge, OutH: edge, Channels: 1, PoolBatches: 3,
		Cache:      core.CacheConfig{RAMBytes: 1 << 20},
		FPGA:       fpga.Config{Inject: faults.New(faults.Config{FailEvery: 5, Seed: 1})},
		Resilience: core.Resilience{MaxRetries: 2, RetryBackoff: 10 * time.Microsecond, FallbackAfter: 100},
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	reg.SetBusy(metrics.NewBusyTracker())

	dev, err := gpu.NewDevice(0, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	batchBytes := batch * edge * edge
	trainSolver, err := core.NewSolver(dev, 2, batchBytes)
	if err != nil {
		t.Fatal(err)
	}
	inferSolver, err := core.NewSolver(dev, 2, batchBytes)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := core.NewDispatcher(b.Batches(), b.RecycleBatch,
		[]*core.Solver{trainSolver, inferSolver}, core.DispatcherConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := engine.NewTrainer(engine.TrainerConfig{
		Profile: perf.LeNet5, Solvers: []*core.Solver{trainSolver}, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	inf, err := engine.NewInference(engine.InferenceConfig{
		Profile: perf.GoogLeNet, Solver: inferSolver, Classes: 10, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 4)
	go func() {
		err := b.RunEpoch(core.CollectorFromItems(items))
		if err == nil {
			err = b.ReplayCache() // exercise the cache-replay counters
		}
		b.CloseBatches()
		errc <- err
	}()
	go func() { errc <- disp.Run() }()
	go func() { _, err := trainer.Run(); errc <- err }()
	go func() { _, err := inf.Run(); errc <- err }()
	for i := 0; i < 4; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	return b.Snapshot()
}

func TestEveryMetricNameDocumented(t *testing.T) {
	docBytes, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(docBytes)
	documented := func(name string) bool {
		return strings.Contains(doc, "`"+normalizeMetricName(name)+"`")
	}

	s := tracedSnapshot(t)
	var missing []string
	for name := range s.Counters {
		if !documented(name) {
			missing = append(missing, "counter "+name)
		}
	}
	for name := range s.Gauges {
		if !documented(name) {
			missing = append(missing, "gauge "+name)
		}
	}
	for name := range s.Stages {
		if !documented(name) {
			missing = append(missing, "stage "+name)
		}
	}
	for name := range s.Queues {
		if !documented(name) {
			missing = append(missing, "queue "+name)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("docs/METRICS.md does not document:\n  %s", strings.Join(missing, "\n  "))
	}

	// The pipeline above exercised most of the surface; sanity-check the
	// run produced what the documentation narrates.
	if s.Counters["cache_replay_images_total"] == 0 {
		t.Fatal("cache replay never happened — widen the scenario")
	}
	if s.Counters["decode_retries_total"] == 0 {
		t.Fatal("fault injection produced no retries — widen the scenario")
	}
	if s.Counters["train_images_total"] == 0 || s.Counters["infer_images_total"] == 0 {
		t.Fatal("engines consumed nothing")
	}
}

// TestRuntimeGaugesDocumented pins the Go runtime health gauges: the
// traced scenario above never registers them (they are dlserve wiring),
// so they get their own registry and the same backtick check.
func TestRuntimeGaugesDocumented(t *testing.T) {
	docBytes, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(docBytes)
	reg := metrics.NewRegistry()
	metrics.RegisterRuntimeGauges(reg)
	snap := reg.Snapshot()
	if len(snap.Gauges) == 0 {
		t.Fatal("RegisterRuntimeGauges registered nothing")
	}
	for name := range snap.Gauges {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("runtime gauge %q not documented", name)
		}
	}
}

// TestEveryStageConstantDocumented covers stages the scenario above may
// not hit (degraded-mode decodes, timeouts): every stage constant and
// span JSON field must appear in the reference regardless.
func TestEveryStageConstantDocumented(t *testing.T) {
	docBytes, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(docBytes)
	for _, name := range []string{
		metrics.StageFPGADecode, metrics.StageCPUFallback, metrics.StageGetItemWait,
		metrics.StageAssemble, metrics.StageFullQueueWait, metrics.StageCopySync,
		metrics.StageRecycle, metrics.StageBatchE2E, metrics.StageInferE2E,
		metrics.StageTrainIter, metrics.StageBatchFill,
	} {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("stage %q not documented", name)
		}
	}
	for _, field := range []string{
		"batch", "collected", "buf_acquired", "sealed", "published",
		"dispatched", "synced", "recycled", "images", "fpga", "fallback", "failed",
	} {
		if !strings.Contains(doc, "`"+field+"`") {
			t.Errorf("span field %q not documented", field)
		}
	}
}
