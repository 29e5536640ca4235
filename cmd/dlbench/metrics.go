package main

import (
	"fmt"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/engine"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/metrics"
	"dlbooster/internal/perf"
)

// tracedRunSize is the decoder output edge of the instrumented run —
// small enough that the run takes well under a second.
const tracedRunSize = 96

// tracedResult is what one instrumented end-to-end run produced, shared
// by the -metrics table and the -doctor report.
type tracedResult struct {
	snap    *metrics.PipelineSnapshot
	images  int64
	batches int
}

// tracedRun drives one small instrumented end-to-end pipeline — corpus
// → FPGAReader → Dispatcher → inference engine — with full tracing on.
// It is the real pipeline under a deterministic corpus, not the
// virtual-time simulation the figures use, so its numbers are honest
// wall-clock measurements.
func tracedRun(images, batchSize int) (*tracedResult, error) {
	const size = tracedRunSize
	spec := dataset.ILSVRCLike(minInt(images, 64))
	reg := metrics.NewRegistry()
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
	}, nil
}

// printMetrics renders the -metrics telemetry table.
func printMetrics(res *tracedResult) {
	fmt.Printf("dlbench -metrics: %d images through the traced pipeline (%d batches)\n\n",
		res.images, res.batches)
	fmt.Print(res.snap.Table())
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
