package experiments

import (
	"fmt"

	"dlbooster/internal/metrics"
	"dlbooster/internal/perf"
	"dlbooster/internal/simtime"
)

// InferBackend names a preprocessing backend in the online-inference
// experiments (§5.3: LMDB-style offline backends cannot help inference,
// so the baselines are CPU-based and nvJPEG).
type InferBackend string

// The inference backends of Figures 7–9.
const (
	InferCPU       InferBackend = "cpu"
	InferNvJPEG    InferBackend = "nvjpeg"
	InferDLBooster InferBackend = "dlbooster"
)

// InferSetup is one online-inference configuration: 5 clients over a
// 40 Gbps fabric sending 500×375 JPEGs to one GPU server (§5.3).
type InferSetup struct {
	Model   perf.InferProfile
	Backend InferBackend
	Batch   int
	// CPUThreads for the CPU backend; 0 picks the smallest pool meeting
	// demand, capped at 14 (the most the paper observes, Figure 9).
	CPUThreads int
	// FPGAs is the number of FPGA decoder boards for DLBooster
	// (default 1; §5.3 suggests plugging more to raise the plateau).
	FPGAs int
	// HuffmanWays / ResizeWays override the decoder's stage widths for
	// the unit-scaling ablation (0 = the paper's 4 and 2).
	HuffmanWays, ResizeWays int
	// GPUDirect makes the FPGA DMA processed batches straight into GPU
	// memory, skipping the host bounce buffer — future-work item (2) of
	// §7 ("directly writing the processed data to GPU devices for lower
	// latency"). DLBooster only.
	GPUDirect bool
}

// InferResult is one simulated inference measurement.
type InferResult struct {
	Setup         InferSetup
	Throughput    float64 // images/s at saturation (Figure 7)
	MeanLatencyMs float64 // receipt→prediction at 80 % load (Figure 8)
	TotalCores    float64 // host CPU cost (Figure 9)
	Breakdown     map[string]float64
	CPUThreads    int
}

// inferCap is the maximum CPU decode pool for inference; Figure 9's
// CPU-based bars top out around 14 cores.
const inferCap = 14

// RunInference simulates one configuration: a closed-loop saturation run
// for throughput, then an open-loop run at 80 % of that capacity for the
// latency distribution (queueing-free service latency, which is what the
// paper's lightly-loaded latency numbers reflect).
func RunInference(s InferSetup) (InferResult, error) {
	if s.Batch < 1 {
		return InferResult{}, fmt.Errorf("experiments: batch %d", s.Batch)
	}
	if s.Model.MaxRate <= 0 {
		return InferResult{}, fmt.Errorf("experiments: invalid model profile %+v", s.Model)
	}
	if s.FPGAs == 0 {
		s.FPGAs = 1
	}
	threads := s.CPUThreads
	if threads == 0 && s.Backend == InferCPU {
		demand := s.Model.Rate(s.Batch)
		threads = chooseCPUThreads(demand, perf.ReferenceImagePixels)
		if threads > inferCap {
			threads = inferCap
		}
	}

	throughput := runInferencePhase(s, threads, 0, nil)
	lat := &metrics.Histogram{}
	runInferencePhase(s, threads, throughput*0.8, lat)

	breakdown := map[string]float64{}
	switch s.Backend {
	case InferDLBooster:
		breakdown["cmd+dispatch"] = throughput * perf.FPGACmdOverheadSeconds
	case InferNvJPEG:
		breakdown["kernel-launch"] = perf.NvJPEGLaunchCores
		breakdown["serving"] = 0.5
	case InferCPU:
		breakdown["decode"] = throughput * perf.CPUDecodeSeconds(perf.ReferenceImagePixels) / perf.CPUThreadEfficiency(threads)
		breakdown["serving"] = 1.0
	default:
		return InferResult{}, fmt.Errorf("experiments: unknown backend %q", s.Backend)
	}
	total := 0.0
	for _, v := range breakdown {
		total += v
	}
	return InferResult{
		Setup:         s,
		Throughput:    round1(throughput),
		MeanLatencyMs: round3(lat.Summarize().Mean),
		TotalCores:    round1(total),
		Breakdown:     breakdown,
		CPUThreads:    threads,
	}, nil
}

func round3(v float64) float64 {
	return float64(int(v*1000+0.5)) / 1000
}

// runInferencePhase runs one simulation. arrivalRate 0 means closed-loop
// saturation (throughput phase); otherwise images arrive open-loop at
// that rate and latencies land in lat. It returns achieved images/s.
func runInferencePhase(s InferSetup, threads int, arrivalRate float64, lat *metrics.Histogram) float64 {
	sim := simtime.New()
	b := s.Batch

	// Shared 40 Gbps link (never the bottleneck, but modelled).
	nicSrv := simtime.NewServer(sim, 1)
	nicSvc := simtime.FromSeconds(float64(perf.AvgJPEGBytes*8) / perf.NICBandwidthBits)

	// Per-image preprocessing chain.
	var chain []stage
	switch s.Backend {
	case InferDLBooster:
		hw, rw := s.HuffmanWays, s.ResizeWays
		if hw == 0 {
			hw = perf.FPGAHuffmanWays
		}
		if rw == 0 {
			rw = perf.FPGAResizeWays
		}
		mk := func(unitRate float64) stage {
			return stage{
				server: simtime.NewServer(sim, s.FPGAs),
				svc:    simtime.FromSeconds(1 / unitRate),
			}
		}
		chain = append(chain,
			mk(perf.FPGAHuffmanRatePerWay*float64(hw)),
			mk(perf.FPGAIDCTRate),
			mk(perf.FPGAResizeRatePerWay*float64(rw)),
		)
	case InferCPU:
		// Each image occupies one core for the full decode time; the
		// pool-wide efficiency loss inflates per-image service. This
		// keeps both the aggregate rate (T·300·eff) and the per-image
		// latency (≈3.3 ms) faithful — the CPU backend's Figure 8
		// penalty is exactly this decode latency.
		svc := perf.CPUDecodeSeconds(perf.ReferenceImagePixels) / perf.CPUThreadEfficiency(threads)
		chain = append(chain, stage{server: simtime.NewServer(sim, threads), svc: simtime.FromSeconds(svc)})
	case InferNvJPEG:
		// Raw bytes go straight to the device; decode happens there.
	}

	// Batch-level stages: host→device copy, then the GPU engine.
	copySrv := simtime.NewServer(sim, 1)
	gpuSrv := simtime.NewServer(sim, 1)
	batchPixels := b * s.Model.ImagePixels * s.Model.InputChannels
	var copySvc, gpuSvc simtime.Time
	switch s.Backend {
	case InferDLBooster:
		if s.GPUDirect {
			// The decoder writes into device memory; only a doorbell
			// remains on the host path.
			copySvc = simtime.FromSeconds(perf.PerItemCopyOverheadSeconds)
		} else {
			copySvc = simtime.FromSeconds(perf.CopySeconds(batchPixels, 1))
		}
		gpuSvc = simtime.FromSeconds(s.Model.BatchSeconds(b))
	case InferCPU:
		// The CPU baseline copies each datum synchronously before the
		// launch (§5.2 reason 1): the copies ride the GPU critical path
		// rather than overlapping as a pipeline stage.
		copySvc = 0
		gpuSvc = simtime.FromSeconds(s.Model.BatchSeconds(b) + perf.CopySeconds(batchPixels, b))
	case InferNvJPEG:
		// Raw JPEG bytes cross PCIe; decode and inference serialise on
		// the device's compute resource (the §5.3 contention).
		copySvc = simtime.FromSeconds(perf.CopySeconds(b*perf.AvgJPEGBytes, b))
		gpuSvc = simtime.FromSeconds(
			perf.NvJPEGBatchOverheadSeconds +
				float64(b)/perf.NvJPEGDecodeRate +
				s.Model.BatchSeconds(b))
	}

	const (
		warmup  = 1 * simtime.Second
		horizon = 9 * simtime.Second
	)
	var imagesDone int64
	var pending []simtime.Time // arrival stamps awaiting a full batch
	var arrive func()

	submitBatch := func(stamps []simtime.Time) {
		copySrv.Visit(copySvc, func() {
			gpuSrv.Visit(gpuSvc, func() {
				for _, t0 := range stamps {
					if sim.Now() > warmup {
						imagesDone++
						if lat != nil {
							lat.Add((sim.Now() - t0).Milliseconds())
						}
					}
					if arrivalRate == 0 {
						arrive() // closed loop: recycle the token
					}
				}
			})
		})
	}
	preprocess := func(t0 simtime.Time) {
		var step func(int)
		step = func(at int) {
			if at >= len(chain) {
				pending = append(pending, t0)
				if len(pending) >= b {
					stamps := append([]simtime.Time(nil), pending[:b]...)
					pending = pending[b:]
					submitBatch(stamps)
				}
				return
			}
			st := chain[at]
			st.server.Visit(st.svc, func() { step(at + 1) })
		}
		step(0)
	}
	arrive = func() {
		t0 := sim.Now()
		nicSrv.Visit(nicSvc, func() { preprocess(t0) })
	}

	if arrivalRate == 0 {
		// Saturating closed loop: enough tokens to fill every stage and
		// several batches.
		window := 4*b + 8
		for i := 0; i < window; i++ {
			arrive()
		}
	} else {
		interval := simtime.FromSeconds(1 / arrivalRate)
		var tick func()
		tick = func() {
			arrive()
			if sim.Now()+interval < horizon {
				sim.After(interval, tick)
			}
		}
		sim.At(0, tick)
	}
	sim.RunUntil(horizon)
	return float64(imagesDone) / (horizon - warmup).Seconds()
}
