package main

import (
	"errors"
	"fmt"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/engine"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/metrics"
	"dlbooster/internal/nvme"
	"dlbooster/internal/perf"
)

// tracedRunSize is the decoder output edge of the instrumented run —
// small enough that the run takes well under a second, part of the
// BenchConfig identity benchdiff compares on.
const tracedRunSize = 96

// tracedResult is what one instrumented end-to-end run produced, shared
// by the -metrics table, the -doctor report and the -json bench result.
type tracedResult struct {
	snap    *metrics.PipelineSnapshot
	images  int64
	batches int
	elapsed time.Duration
	config  metrics.BenchConfig
	// hist is the sampled telemetry history of an -slo run (nil when no
	// sampler was attached), the window the scorecard is judged against.
	hist *metrics.History
}

// sloSampleEvery is the sampler interval of an -slo run: fine enough
// that a sub-second traced run still yields a multi-sample window.
const sloSampleEvery = 10 * time.Millisecond

// attachSampler starts a telemetry sampler over the run's registry when
// the run declared an SLO; the returned stop function joins the sampler
// and hands back its history (nil stop/history when sampling is off).
func attachSampler(reg *metrics.Registry, sample bool) (stop func() *metrics.History) {
	if !sample {
		return func() *metrics.History { return nil }
	}
	s := metrics.NewSampler(reg, metrics.SamplerConfig{Interval: sloSampleEvery})
	s.Start()
	return func() *metrics.History {
		s.Stop()
		return s.History()
	}
}

// tracedRun drives one small instrumented end-to-end pipeline — corpus
// → FPGAReader → Dispatcher → inference engine — with full tracing on.
// It is the real pipeline under a deterministic corpus, not the
// virtual-time simulation the figures use, so its numbers are honest
// wall-clock measurements.
func tracedRun(images, batchSize int, sample bool) (*tracedResult, error) {
	const size = tracedRunSize
	spec := dataset.ILSVRCLike(minInt(images, 64))
	reg := metrics.NewRegistry()
	stopSampler := attachSampler(reg, sample)
	booster, err := core.New(core.Config{
		BatchSize: batchSize, OutW: size, OutH: size, Channels: 3,
		PoolBatches: 4,
		Metrics:     reg,
	})
	if err != nil {
		return nil, err
	}
	defer booster.Close()

	items := make([]core.Item, images)
	for i := range items {
		data, err := spec.JPEG(i % spec.Count)
		if err != nil {
			return nil, err
		}
		items[i] = core.Item{
			Ref:  fpga.DataRef{Inline: data},
			Meta: core.ItemMeta{Label: i % 1000, Seq: i, ReceivedAt: time.Now()},
		}
	}

	dev, err := gpu.NewDevice(0, 1<<30)
	if err != nil {
		return nil, err
	}
	defer dev.Close()
	solver, err := core.NewSolver(dev, 2, batchSize*size*size*3)
	if err != nil {
		return nil, err
	}
	disp, err := core.NewDispatcher(booster.Batches(), booster.RecycleBatch,
		[]*core.Solver{solver}, core.DispatcherConfig{Metrics: reg})
	if err != nil {
		return nil, err
	}
	inf, err := engine.NewInference(engine.InferenceConfig{
		Profile: perf.GoogLeNet, Solver: solver, Classes: 1000,
		Metrics: reg,
	})
	if err != nil {
		return nil, err
	}

	start := time.Now()
	errc := make(chan error, 2)
	go func() {
		err := booster.RunEpoch(core.CollectorFromItems(items))
		booster.CloseBatches()
		errc <- err
	}()
	go func() { errc <- disp.Run() }()
	stats, err := inf.Run()
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			return nil, err
		}
	}
	return &tracedResult{
		snap:    booster.Snapshot(),
		images:  stats.Images,
		batches: stats.Batches,
		elapsed: time.Since(start),
		config: metrics.BenchConfig{
			Images: images, Batch: batchSize, Size: size,
			Boards: 1,
		},
		hist: stopSampler(),
	}, nil
}

// printMetrics renders the -metrics telemetry table.
func printMetrics(res *tracedResult) {
	fmt.Printf("dlbench -metrics: %d images through the traced pipeline (%d batches)\n\n",
		res.images, res.batches)
	fmt.Print(res.snap.Table())
}

// benchResult assembles the schema-versioned BENCH_<n>.json record from
// one traced run.
func benchResult(res *tracedResult) *metrics.BenchResult {
	elapsed := res.elapsed.Seconds()
	throughput := 0.0
	if elapsed > 0 {
		throughput = float64(res.images) / elapsed
	}
	name := "traced-e2e"
	if res.config.Shards > 0 {
		name = "traced-e2e-shards"
	}
	if res.config.CacheMode != "" {
		name = "traced-replay"
	}
	if res.config.AutotuneSpec != "" {
		name = "autotune-overload"
	}
	return &metrics.BenchResult{
		SchemaVersion:  metrics.BenchSchemaVersion,
		Name:           name,
		TakenAt:        time.Now().UTC(),
		GitSHA:         gitSHA(),
		GoVersion:      runtime.Version(),
		Config:         res.config,
		ElapsedSeconds: elapsed,
		Throughput:     throughput,
		Stages:         res.snap.Stages,
		Counters:       res.snap.Counters,
	}
}

// tracedReplayRun drives the instrumented pipeline through one decode
// epoch plus replayEpochs cache-served epochs, and measures throughput
// over the replay epochs only — the "epochs 2+" number of the §3.1
// hybrid service. cacheMode sizes the tiered cache so the decoded
// dataset is 2× the RAM tier:
//
//   - "cold":     no cache; every epoch re-decodes (the baseline)
//   - "ram":      RAM tier only — it overflows at 2×, drops wholesale,
//     and epochs 2+ fall back to re-decoding
//   - "ram+nvme": RAM tier + paced NVMe spill tier with compression;
//     epochs 2+ serve from the two tiers
//
// The tier hit counts land in the result's counter map
// (cache_ram_hit_images_total, cache_spill_hit_images_total,
// cache_redecode_images_total), so BENCH_4.json records throughput and
// hit rate from the same run.
func tracedReplayRun(images, batchSize, replayEpochs int, cacheMode string, sample bool) (*tracedResult, error) {
	const size = tracedRunSize
	spec := dataset.ILSVRCLike(minInt(images, 64))
	reg := metrics.NewRegistry()
	stopSampler := attachSampler(reg, sample)
	epochBytes := int64(images * size * size * 3)
	cfg := core.Config{
		BatchSize: batchSize, OutW: size, OutH: size, Channels: 3,
		PoolBatches: 4,
		Metrics:     reg,
	}
	switch cacheMode {
	case "cold":
	case "ram":
		cfg.Cache = core.CacheConfig{RAMBytes: epochBytes / 2}
	case "ram+nvme":
		spill := nvme.New(nvme.Config{
			ReadBandwidth:  perf.NVMeReadBandwidth,
			ReadLatency:    time.Duration(perf.NVMeReadLatency * float64(time.Second)),
			WriteBandwidth: perf.NVMeWriteBandwidth,
			WriteLatency:   time.Duration(perf.NVMeWriteLatency * float64(time.Second)),
		})
		cfg.Cache = core.CacheConfig{
			RAMBytes:   epochBytes / 2,
			Spill:      spill,
			SpillBytes: 2 * epochBytes,
			Compress:   true,
		}
	default:
		return nil, fmt.Errorf("unknown cache mode %q (cold, ram, ram+nvme)", cacheMode)
	}
	booster, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	defer booster.Close()

	items := make([]core.Item, images)
	for i := range items {
		data, err := spec.JPEG(i % spec.Count)
		if err != nil {
			return nil, err
		}
		items[i] = core.Item{
			Ref:  fpga.DataRef{Inline: data},
			Meta: core.ItemMeta{Label: i % 1000, Seq: i, ReceivedAt: time.Now()},
		}
	}

	dev, err := gpu.NewDevice(0, 1<<30)
	if err != nil {
		return nil, err
	}
	defer dev.Close()
	solver, err := core.NewSolver(dev, 2, batchSize*size*size*3)
	if err != nil {
		return nil, err
	}
	disp, err := core.NewDispatcher(booster.Batches(), booster.RecycleBatch,
		[]*core.Solver{solver}, core.DispatcherConfig{Metrics: reg})
	if err != nil {
		return nil, err
	}
	inf, err := engine.NewInference(engine.InferenceConfig{
		Profile: perf.GoogLeNet, Solver: solver, Classes: 1000,
		Metrics: reg,
	})
	if err != nil {
		return nil, err
	}

	errc := make(chan error, 2)
	statc := make(chan engine.InferStats, 1)
	go func() { errc <- disp.Run() }()
	go func() {
		stats, err := inf.Run()
		statc <- stats
		errc <- err
	}()

	// Epoch 1 decodes (and captures, when a cache is configured)…
	var replayed time.Duration
	epochErr := func() error {
		if err := booster.RunEpoch(core.CollectorFromItems(items)); err != nil {
			return err
		}
		// …epochs 2+ are the measurement: replay from the tiers, or
		// re-decode when the mode has no usable cache (cold; RAM-only
		// after wholesale overflow — the errors.Is fallback dltrain uses).
		start := time.Now()
		for e := 0; e < replayEpochs; e++ {
			err := booster.ReplayCache()
			if errors.Is(err, core.ErrCacheUnavailable) {
				err = booster.RunEpoch(core.CollectorFromItems(items))
			}
			if err != nil {
				return err
			}
		}
		replayed = time.Since(start)
		return nil
	}()
	booster.CloseBatches()
	stats := <-statc
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil && epochErr == nil {
			epochErr = err
		}
	}
	if epochErr != nil {
		return nil, epochErr
	}
	return &tracedResult{
		snap:    booster.Snapshot(),
		images:  int64(images * replayEpochs),
		batches: stats.Batches,
		elapsed: replayed,
		config: metrics.BenchConfig{
			Images: images, Batch: batchSize, Size: size,
			Boards:    1,
			CacheMode: cacheMode, ReplayEpochs: replayEpochs,
		},
		hist: stopSampler(),
	}, nil
}

// gitSHA best-efforts the commit of the working tree ("unknown" when
// git or the repository is unavailable, e.g. in a release tarball).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
