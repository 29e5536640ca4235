// Inference example: the online workflow of paper §5.3 — clients
// streaming JPEGs over a (simulated) 40 Gbps fabric into the DLBooster
// pipeline, with per-image receipt→prediction latency, the Figure 8
// metric. For the same flow over real TCP sockets, see cmd/dlserve.
//
//	go run ./examples/inference
package main

import (
	"fmt"
	"log"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/engine"
	"dlbooster/internal/gpu"
	"dlbooster/internal/metrics"
	"dlbooster/internal/nic"
	"dlbooster/internal/perf"
)

const (
	clients   = 5 // the paper's client count
	requests  = 96
	batchSize = 8
	outEdge   = 224
)

func main() {
	// Client payloads: the paper's 500×375 colour JPEGs.
	spec := dataset.ILSVRCLike(16)
	payloads := make([][]byte, spec.Count)
	for i := range payloads {
		data, err := spec.JPEG(i)
		if err != nil {
			log.Fatal(err)
		}
		payloads[i] = data
	}

	// The 40 Gbps fabric with 5 closed-loop clients.
	fabric := nic.New(nic.Config{BandwidthBits: perf.NICBandwidthBits, RxQueueCap: 64})
	group, err := nic.StartClients(fabric, clients, payloads)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		fabric.Close()
		group.Stop()
	}()

	// DLBooster backend + one GPU inference engine.
	backend, err := core.New(core.Config{
		BatchSize: batchSize, OutW: outEdge, OutH: outEdge, Channels: 3,
		PoolBatches: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer backend.Close()
	dev, err := gpu.NewDevice(0, 1<<31)
	if err != nil {
		log.Fatal(err)
	}
	defer dev.Close()
	solver, err := core.NewSolver(dev, 2, batchSize*outEdge*outEdge*3)
	if err != nil {
		log.Fatal(err)
	}
	disp, err := core.NewDispatcher(backend.Batches(), backend.RecycleBatch, []*core.Solver{solver}, core.DispatcherConfig{})
	if err != nil {
		log.Fatal(err)
	}
	lat := &metrics.Histogram{}
	inf, err := engine.NewInference(engine.InferenceConfig{
		Profile: perf.GoogLeNet, Solver: solver, Classes: 1000, Latency: lat,
	})
	if err != nil {
		log.Fatal(err)
	}

	errc := make(chan error, 2)
	go func() { errc <- disp.Run() }()
	go func() {
		col, err := core.LoadFromNet(fabric, requests)
		if err != nil {
			errc <- err
			return
		}
		if err := backend.RunEpoch(col); err != nil {
			errc <- err
			return
		}
		backend.CloseBatches()
		errc <- nil
	}()

	start := time.Now()
	st, err := inf.Run()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			log.Fatal(err)
		}
	}

	elapsed := time.Since(start)
	fmt.Printf("served %d images (%d batches of %d) from %d clients in %v\n",
		st.Images, st.Batches, batchSize, clients, elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f images/s (functional mode; calibrated shapes come from cmd/dlbench)\n",
		float64(st.Images)/elapsed.Seconds())
	s := lat.Summarize()
	fmt.Printf("receipt→prediction latency: p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
		s.P50, s.P95, s.P99, s.Max)
	fmt.Printf("decode errors: %d\n", backend.DecodeErrors())
}
