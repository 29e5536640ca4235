// Training example: the offline-training workflow of paper §5.2 run
// functionally, comparing DLBooster against the CPU-based baseline on
// the same corpus — and proving they feed the engine identical data
// (same deterministic loss digest) while spending very different host
// effort.
//
//	go run ./examples/training
package main

import (
	"fmt"
	"log"
	"time"

	"dlbooster/internal/backends"
	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/engine"
	"dlbooster/internal/gpu"
	"dlbooster/internal/metrics"
	"dlbooster/internal/nvme"
	"dlbooster/internal/perf"
)

const (
	images  = 512
	batch   = 64
	gpus    = 2
	outEdge = 28
)

func main() {
	spec := dataset.MNISTLike(images)
	disk := nvme.New(nvme.Config{})
	if _, err := spec.WriteToNVMe(disk); err != nil {
		log.Fatal(err)
	}

	var digests []uint64
	for _, which := range []string{"dlbooster", "cpu"} {
		digest, elapsed, busy := trainOnce(which, spec, disk)
		digests = append(digests, digest)
		fmt.Printf("%-10s trained %d images on %d GPUs in %v; host busy: %v\n",
			which, images, gpus, elapsed.Round(time.Millisecond), busy)
	}
	if digests[0] == digests[1] {
		fmt.Printf("\nloss digests match (%016x): the backends are interchangeable,\n", digests[0])
		fmt.Println("exactly the pluggability §4.2 claims — the engine cannot tell them apart.")
	} else {
		log.Fatalf("digests differ: %x vs %x", digests[0], digests[1])
	}
}

func trainOnce(which string, spec dataset.Spec, disk *nvme.Device) (uint64, time.Duration, map[string]float64) {
	busy := metrics.NewBusyTracker()
	cfg := core.Config{
		BatchSize: batch, OutW: outEdge, OutH: outEdge, Channels: 1,
		PoolBatches: 8, Source: disk,
	}
	var backend *core.Booster
	var err error
	switch which {
	case "dlbooster":
		backend, err = core.New(cfg)
	case "cpu":
		backend, err = backends.NewCPU(cfg, backends.CPUConfig{Workers: 2, Busy: busy})
	}
	if err != nil {
		log.Fatal(err)
	}
	defer backend.Close()

	solvers := make([]*core.Solver, gpus)
	for g := range solvers {
		dev, err := gpu.NewDevice(g, 1<<28)
		if err != nil {
			log.Fatal(err)
		}
		defer dev.Close()
		s, err := core.NewSolver(dev, 2, batch*outEdge*outEdge)
		if err != nil {
			log.Fatal(err)
		}
		solvers[g] = s
	}
	disp, err := core.NewDispatcher(backend.Batches(), backend.RecycleBatch, solvers, core.DispatcherConfig{})
	if err != nil {
		log.Fatal(err)
	}
	trainer, err := engine.NewTrainer(engine.TrainerConfig{Profile: perf.LeNet5, Solvers: solvers})
	if err != nil {
		log.Fatal(err)
	}

	errc := make(chan error, 2)
	go func() { errc <- disp.Run() }()
	go func() {
		col, err := core.LoadFromDisk(disk, func(name string, i int) int { return spec.Label(i) })
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
	st, err := trainer.Run()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			log.Fatal(err)
		}
	}
	if st.Images != images {
		log.Fatalf("%s: trained %d images, want %d", which, st.Images, images)
	}
	return st.LossProxy, st.Elapsed, busy.Cores(st.Elapsed.Seconds())
}
