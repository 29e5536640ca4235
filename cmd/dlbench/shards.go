package main

// The -shards scaling mode: the traced end-to-end pipeline replicated
// into N fleet shards, each with its own decoder pipeline, dispatcher
// and paced inference engine. The engine is paced at -shard-rate
// images/s — a modelled per-shard accelerator well under the decode
// path's single-core capacity — so one shard is engine-capped and N
// shards scale until decode saturates the host, the serving-side form
// of the paper's "plug more FPGA devices" lever (§5.3). BENCH_3.json
// records the 2-shard run; tools/benchdiff -speedup gates the 2-vs-1
// shard ratio in CI.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/engine"
	"dlbooster/internal/fleet"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/metrics"
	"dlbooster/internal/perf"
)

// tracedShardsRun pushes `images` items through a fleet of `shards`
// traced pipelines, least-loaded placement, each shard's engine paced
// at `rate` images/s. Returns the usual tracedResult (snap is the
// fleet total) plus the full rollup for the fleet doctor and trace
// views.
func tracedShardsRun(images, batchSize, shards int, rate float64, sample bool) (*tracedResult, *metrics.FleetSnapshot, error) {
	const size = tracedRunSize
	if shards < 1 {
		return nil, nil, fmt.Errorf("dlbench: -shards %d", shards)
	}
	if rate <= 0 {
		return nil, nil, fmt.Errorf("dlbench: -shard-rate %v", rate)
	}
	spec := dataset.ILSVRCLike(minInt(images, 64))
	fl, err := fleet.New(fleet.Config{
		Shards:   shards,
		QueueCap: maxInt(images, 1),
		NewBooster: func(int) (*core.Booster, error) {
			return core.New(core.Config{
				BatchSize: batchSize, OutW: size, OutH: size, Channels: 3,
				PoolBatches: 4,
				Metrics:     metrics.NewRegistry(),
			})
		},
	})
	if err != nil {
		return nil, nil, err
	}
	defer fl.Close()

	// The modelled per-shard accelerator: zero fixed cost, so the
	// steady-state rate is exactly `rate` regardless of batch size.
	profile := perf.InferProfile{
		Name: "shard-accelerator", MaxRate: rate,
		MaxBatch: batchSize, ImagePixels: size * size, InputChannels: 3,
	}

	var totalImages, totalBatches int64
	var engErr error
	var engErrOnce sync.Once
	var wg sync.WaitGroup
	for _, s := range fl.Shards() {
		b := s.Booster()
		dev, err := gpu.NewDevice(s.ID(), 1<<30)
		if err != nil {
			return nil, nil, err
		}
		defer dev.Close()
		solver, err := core.NewSolver(dev, 2, batchSize*size*size*3)
		if err != nil {
			return nil, nil, err
		}
		disp, err := core.NewDispatcher(b.Batches(), b.RecycleBatch,
			[]*core.Solver{solver}, core.DispatcherConfig{Metrics: b.Registry()})
		if err != nil {
			return nil, nil, err
		}
		inf, err := engine.NewInference(engine.InferenceConfig{
			Profile: profile, Solver: solver, Classes: 1000,
			PaceCompute: true,
			Metrics:     b.Registry(),
		})
		if err != nil {
			return nil, nil, err
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := disp.Run(); err != nil {
				engErrOnce.Do(func() { engErr = fmt.Errorf("shard %d dispatcher: %w", id, err) })
			}
		}(s.ID())
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			stats, err := inf.Run()
			if err != nil {
				engErrOnce.Do(func() { engErr = fmt.Errorf("shard %d engine: %w", id, err) })
				return
			}
			atomic.AddInt64(&totalImages, stats.Images)
			atomic.AddInt64(&totalBatches, int64(stats.Batches))
		}(s.ID())
	}

	// Encode the corpus before the clock starts — JPEG encoding is
	// host-side data prep, not pipeline work, and it would serialise
	// the shards' intake if it ran inside the submit loop.
	payloads := make([][]byte, spec.Count)
	for i := range payloads {
		data, err := spec.JPEG(i)
		if err != nil {
			return nil, nil, err
		}
		payloads[i] = data
	}

	if sample {
		// Fleet.Drain stops the samplers before the queues close, so the
		// merged history ends on a final whole-run sample.
		fl.StartSampler(metrics.SamplerConfig{Interval: sloSampleEvery})
	}
	fl.Start()
	start := time.Now()
	for i := 0; i < images; i++ {
		item := core.Item{
			Ref:  fpga.DataRef{Inline: payloads[i%len(payloads)]},
			Meta: core.ItemMeta{Label: i % 1000, Seq: i, ReceivedAt: time.Now()},
		}
		if shard, adm := fl.Submit(item, uint64(i)); adm != fleet.AdmitOK {
			return nil, nil, fmt.Errorf("dlbench: item %d refused by shard %d (%v) with a corpus-sized queue", i, shard, adm)
		}
	}
	if err := fl.Drain(); err != nil {
		return nil, nil, err
	}
	wg.Wait()
	elapsed := time.Since(start)
	if engErr != nil {
		return nil, nil, engErr
	}

	fsnap := fl.Snapshot()
	var hist *metrics.History
	if sample {
		hist = fl.History()
	}
	return &tracedResult{
		snap:    fsnap.Total,
		hist:    hist,
		images:  totalImages,
		batches: int(totalBatches),
		elapsed: elapsed,
		config: metrics.BenchConfig{
			Images: images, Batch: batchSize, Size: size,
			Boards: 1, Shards: shards, ShardRate: rate,
		},
	}, fsnap, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
