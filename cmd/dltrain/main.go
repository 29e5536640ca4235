// Command dltrain runs the functional offline-training workflow
// end-to-end: synthetic corpus on a simulated NVMe disk → preprocessing
// backend (DLBooster's FPGA pipeline or a baseline) → Dispatcher →
// data-parallel training engine on simulated GPUs. Real bytes, real
// JPEG decode, real goroutine pipeline — wall-clock mode of the repo.
//
//	dltrain -backend dlbooster -images 2000 -epochs 3 -gpus 2
//	dltrain -backend cpu -workers 4
//	dltrain -backend lmdb
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dlbooster/internal/backends"
	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/engine"
	"dlbooster/internal/gpu"
	"dlbooster/internal/lmdb"
	"dlbooster/internal/metrics"
	"dlbooster/internal/nvme"
	"dlbooster/internal/perf"
)

func main() {
	backendName := flag.String("backend", "dlbooster", "dlbooster, cpu, or lmdb")
	images := flag.Int("images", 2000, "corpus size")
	batch := flag.Int("batch", 64, "batch size per GPU")
	gpus := flag.Int("gpus", 1, "data-parallel GPUs")
	epochs := flag.Int("epochs", 2, "training epochs")
	workers := flag.Int("workers", perf.DefaultCPUDecodeThreads, "decode threads for -backend cpu")
	outSize := flag.Int("size", 28, "decoder output edge (pixels)")
	pace := flag.Bool("pace", false, "pace GPU compute with the calibrated LeNet-5 rate")
	cacheMB := flag.Int("cache-mb", 0, "RAM tier of the decoded-tensor ReplayCache in MiB (0 = auto-size to the corpus)")
	cacheSpillMB := flag.Int("cache-spill-mb", 0, "NVMe spill tier of the ReplayCache in MiB (0 = RAM tier only; overflow drops the cache)")
	cacheCompress := flag.Bool("cache-compress", false, "flate-compress tensors spilled to the NVMe tier")
	flag.Parse()

	if err := run(*backendName, *images, *batch, *gpus, *epochs, *workers, *outSize, *pace, *cacheMB, *cacheSpillMB, *cacheCompress); err != nil {
		fmt.Fprintf(os.Stderr, "dltrain: %v\n", err)
		os.Exit(1)
	}
}

func run(backendName string, images, batch, gpus, epochs, workers, outSize int, pace bool, cacheMB, cacheSpillMB int, cacheCompress bool) error {
	spec := dataset.MNISTLike(images)
	fmt.Printf("generating %d-image %s corpus onto simulated NVMe...\n", images, spec.Name)
	disk := nvme.New(nvme.Config{ReadBandwidth: perf.NVMeReadBandwidth, ReadLatency: time.Duration(perf.NVMeReadLatency * float64(time.Second))})
	if _, err := spec.WriteToNVMe(disk); err != nil {
		return err
	}

	busy := metrics.NewBusyTracker()
	// The RAM tier auto-sizes to hold the whole decoded corpus unless
	// -cache-mb pins it smaller; -cache-spill-mb then adds an NVMe spill
	// tier (its own paced device, so spill traffic doesn't contend with
	// the corpus disk's manifest) instead of dropping on overflow.
	cacheCfg := core.CacheConfig{
		RAMBytes: int64(images*outSize*outSize) + 1<<20,
		Compress: cacheCompress,
	}
	if cacheMB > 0 {
		cacheCfg.RAMBytes = int64(cacheMB) << 20
	}
	if cacheSpillMB > 0 {
		cacheCfg.Spill = nvme.New(nvme.Config{
			ReadBandwidth:  perf.NVMeReadBandwidth,
			ReadLatency:    time.Duration(perf.NVMeReadLatency * float64(time.Second)),
			WriteBandwidth: perf.NVMeWriteBandwidth,
			WriteLatency:   time.Duration(perf.NVMeWriteLatency * float64(time.Second)),
		})
		cacheCfg.SpillBytes = int64(cacheSpillMB) << 20
	}
	cfg := core.Config{
		BatchSize: batch, OutW: outSize, OutH: outSize, Channels: 1,
		PoolBatches: 8, Source: disk, Cache: cacheCfg,
	}
	var backend *core.Booster
	var err error
	switch backendName {
	case "dlbooster":
		backend, err = core.New(cfg)
	case "cpu":
		backend, err = backends.NewCPU(cfg, backends.CPUConfig{Workers: workers, Busy: busy})
	case "lmdb":
		fmt.Println("running offline conversion (the cost online backends avoid)...")
		convStart := time.Now()
		db := lmdb.New()
		if err := dataset.ConvertToLMDB(spec, db, outSize, outSize); err != nil {
			return err
		}
		fmt.Printf("offline conversion: %d records in %v\n", images, time.Since(convStart).Round(time.Millisecond))
		backend, err = backends.NewLMDB(cfg, backends.LMDBConfig{DB: db, Busy: busy})
	default:
		return fmt.Errorf("unknown backend %q", backendName)
	}
	if err != nil {
		return err
	}
	defer backend.Close()

	solvers := make([]*core.Solver, gpus)
	for g := 0; g < gpus; g++ {
		dev, err := gpu.NewDevice(g, 1<<30)
		if err != nil {
			return err
		}
		defer dev.Close()
		s, err := core.NewSolver(dev, 2, batch*outSize*outSize)
		if err != nil {
			return err
		}
		solvers[g] = s
	}
	disp, err := core.NewDispatcher(backend.Batches(), backend.RecycleBatch, solvers, core.DispatcherConfig{})
	if err != nil {
		return err
	}
	trainer, err := engine.NewTrainer(engine.TrainerConfig{
		Profile: perf.LeNet5, Solvers: solvers, PaceCompute: pace, Busy: busy,
	})
	if err != nil {
		return err
	}

	errc := make(chan error, 2)
	go func() { errc <- disp.Run() }()
	go func() {
		defer backend.CloseBatches()
		for e := 0; e < epochs; e++ {
			start := time.Now()
			if e > 0 && backend.CacheComplete() && backend.CacheReplayable() {
				if err := backend.ReplayCache(); err != nil {
					errc <- err
					return
				}
				cs := backend.Cache().Stats()
				fmt.Printf("epoch %d: served from the replay cache in %v (hybrid mode; %d RAM + %d spilled batches, %d re-decoded)\n",
					e+1, time.Since(start).Round(time.Millisecond), cs.RAMResident, cs.SpillResident, cs.Dropped)
				continue
			}
			col, err := core.LoadFromDisk(disk, func(name string, i int) int { return spec.Label(i) })
			if err != nil {
				errc <- err
				return
			}
			if err := backend.RunEpoch(col); err != nil {
				errc <- err
				return
			}
			fmt.Printf("epoch %d: decoded online in %v\n", e+1, time.Since(start).Round(time.Millisecond))
		}
		errc <- nil
	}()

	st, err := trainer.Run()
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			return err
		}
	}

	fmt.Printf("\nbackend=%s gpus=%d batch=%d epochs=%d\n", backendName, gpus, batch, epochs)
	fmt.Printf("  images trained:    %d (skipped %d bad)\n", st.Images, st.SkippedBad)
	fmt.Printf("  iterations:        %d\n", st.Iterations)
	fmt.Printf("  wall time:         %v\n", st.Elapsed.Round(time.Millisecond))
	fmt.Printf("  throughput:        %.0f images/s\n", float64(st.Images)/st.Elapsed.Seconds())
	fmt.Printf("  loss proxy:        %016x (deterministic digest)\n", st.LossProxy)
	fmt.Printf("  decode errors:     %d\n", backend.DecodeErrors())
	if cores := busy.Cores(st.Elapsed.Seconds()); len(cores) > 0 {
		fmt.Printf("  host busy cores:   %v\n", cores)
	}
	return nil
}
