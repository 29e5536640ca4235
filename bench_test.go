package dlbooster

// The benchmark harness: one benchmark per paper table/figure (the
// virtual-time experiment that regenerates it, with the headline series
// reported as custom metrics), one per design-choice ablation, and
// microbenchmarks of the functional substrates (real JPEG decode, the
// FPGA device pipeline, the end-to-end functional stack).
//
//	go test -bench=. -benchmem

import (
	"sync"
	"testing"

	"dlbooster/internal/audio"
	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/engine"
	"dlbooster/internal/experiments"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/hugepage"
	"dlbooster/internal/imageproc"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/lmdb"
	"dlbooster/internal/nvme"
	"dlbooster/internal/perf"
	"dlbooster/internal/queue"
)

// --- Figure benchmarks (virtual-time experiment per iteration) ---------

func benchTraining(b *testing.B, s experiments.TrainSetup, metric string) {
	b.Helper()
	var last experiments.TrainResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTraining(s)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Throughput, metric)
	b.ReportMetric(last.TotalCores, "cores")
}

func benchInference(b *testing.B, s experiments.InferSetup) {
	b.Helper()
	var last experiments.InferResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunInference(s)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Throughput, "img/s")
	b.ReportMetric(last.MeanLatencyMs, "ms-latency")
	b.ReportMetric(last.TotalCores, "cores")
}

// BenchmarkFigure2 regenerates the motivation experiment (AlexNet,
// CPU-based vs LMDB vs ideal).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates training throughput per model/backend.
func BenchmarkFigure5(b *testing.B) {
	for _, m := range perf.TrainProfiles {
		for _, be := range []experiments.TrainBackend{experiments.CPUBased, experiments.LMDBStore, experiments.DLBooster} {
			b.Run(m.Name+"/"+string(be), func(b *testing.B) {
				benchTraining(b, experiments.TrainSetup{
					Model: m, Backend: be, GPUs: 2, Cached: m.DatasetFitsInMemory,
				}, "img/s")
			})
		}
	}
}

// BenchmarkFigure6 regenerates the training CPU-cost comparison.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7And8 regenerates the inference throughput and latency
// sweeps; each sub-benchmark reports both Figure 7's img/s and Figure
// 8's ms-latency for its (model, backend, batch) point.
func BenchmarkFigure7And8(b *testing.B) {
	for _, m := range perf.InferProfiles {
		for _, be := range []experiments.InferBackend{experiments.InferCPU, experiments.InferNvJPEG, experiments.InferDLBooster} {
			for _, batch := range []int{1, 8, 32} {
				b.Run(m.Name+"/"+string(be)+"/b="+itoa(batch), func(b *testing.B) {
					benchInference(b, experiments.InferSetup{Model: m, Backend: be, Batch: batch})
				})
			}
		}
	}
}

// BenchmarkFigure9 regenerates the inference CPU-cost comparison.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadline regenerates the abstract's claims.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Headline(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks ------------------------------------------------

// BenchmarkAblationCopyMode: batched vs per-datum copies (§5.2 reason 1).
func BenchmarkAblationCopyMode(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		benchTraining(b, experiments.TrainSetup{Model: perf.LeNet5, Backend: experiments.DLBooster, GPUs: 1, Cached: true}, "img/s")
	})
	b.Run("per-item", func(b *testing.B) {
		benchTraining(b, experiments.TrainSetup{Model: perf.LeNet5, Backend: experiments.DLBooster, GPUs: 1, Cached: true, PerItemCopy: true}, "img/s")
	})
}

// BenchmarkAblationSharedStore: shared vs per-GPU LMDB (§5.2 reason 2).
func BenchmarkAblationSharedStore(b *testing.B) {
	b.Run("shared", func(b *testing.B) {
		benchTraining(b, experiments.TrainSetup{Model: perf.AlexNet, Backend: experiments.LMDBStore, GPUs: 2}, "img/s")
	})
	b.Run("private", func(b *testing.B) {
		benchTraining(b, experiments.TrainSetup{Model: perf.AlexNet, Backend: experiments.LMDBStore, GPUs: 2, LMDBPrivate: true}, "img/s")
	})
}

// BenchmarkAblationAsyncReader: Algorithm 1's asynchrony on vs off.
func BenchmarkAblationAsyncReader(b *testing.B) {
	b.Run("async", func(b *testing.B) {
		benchTraining(b, experiments.TrainSetup{Model: perf.AlexNet, Backend: experiments.DLBooster, GPUs: 2}, "img/s")
	})
	b.Run("sync", func(b *testing.B) {
		benchTraining(b, experiments.TrainSetup{Model: perf.AlexNet, Backend: experiments.DLBooster, GPUs: 2, SyncReader: true}, "img/s")
	})
}

// BenchmarkAblationUnitWidths: FPGA stage-width sweep (§3.3).
func BenchmarkAblationUnitWidths(b *testing.B) {
	for _, hw := range []int{1, 2, 4} {
		b.Run("huffman="+itoa(hw), func(b *testing.B) {
			benchInference(b, experiments.InferSetup{
				Model: perf.GoogLeNet, Backend: experiments.InferDLBooster, Batch: 32,
				HuffmanWays: hw, ResizeWays: 2,
			})
		})
	}
}

// --- Functional substrate microbenchmarks --------------------------------

// BenchmarkJPEGDecodeReference measures the from-scratch codec on the
// paper's reference image — this host's analogue of "300 images per
// second per Xeon core".
func BenchmarkJPEGDecodeReference(b *testing.B) {
	spec := dataset.ILSVRCLike(1)
	data, err := spec.JPEG(0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jpeg.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJPEGDecodeMNIST measures decode on the small-image corpus.
func BenchmarkJPEGDecodeMNIST(b *testing.B) {
	spec := dataset.MNISTLike(1)
	data, err := spec.JPEG(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jpeg.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJPEGEncodeReference measures the encoder (dataset generation).
func BenchmarkJPEGEncodeReference(b *testing.B) {
	spec := dataset.ILSVRCLike(1)
	img := spec.Image(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jpeg.Encode(img, jpeg.DefaultEncodeOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResizeBilinear measures the resizer kernel (500×375 → 224²).
func BenchmarkResizeBilinear(b *testing.B) {
	spec := dataset.ILSVRCLike(1)
	img := spec.Image(0)
	dst, err := imageproc.Resize(img, 224, 224, imageproc.Bilinear)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := imageproc.ResizeInto(img, dst, imageproc.Bilinear); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFPGADeviceThroughput drives the functional FPGA device flat
// out and reports its host-side decode rate.
func BenchmarkFPGADeviceThroughput(b *testing.B) {
	pool, err := hugepage.NewPool(224*224*3, 8)
	if err != nil {
		b.Fatal(err)
	}
	mirror, err := fpga.LoadMirror("jpeg")
	if err != nil {
		b.Fatal(err)
	}
	dev, err := fpga.New(fpga.DefaultConfig(), pool.Arena(), nil, mirror)
	if err != nil {
		b.Fatal(err)
	}
	defer dev.Close()
	spec := dataset.ILSVRCLike(4)
	payloads := make([][]byte, spec.Count)
	for i := range payloads {
		payloads[i], err = spec.JPEG(i)
		if err != nil {
			b.Fatal(err)
		}
	}
	buf, err := pool.Get()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			if _, err := dev.WaitCompletion(); err != nil {
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		err := dev.Submit(fpga.Cmd{
			ID: uint64(i), Data: fpga.DataRef{Inline: payloads[i%len(payloads)]},
			DMAAddr: buf.PhysAddr(), OutW: 224, OutH: 224, Channels: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
}

// BenchmarkFunctionalPipeline measures the whole functional stack:
// backend → dispatcher → training engine, end to end on real bytes.
func BenchmarkFunctionalPipeline(b *testing.B) {
	const (
		images = 256
		batch  = 32
		edge   = 28
	)
	spec := dataset.MNISTLike(images)
	disk := nvme.New(nvme.Config{})
	if _, err := spec.WriteToNVMe(disk); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backend, err := core.New(core.Config{
			BatchSize: batch, OutW: edge, OutH: edge, Channels: 1,
			PoolBatches: 4, Source: disk,
		})
		if err != nil {
			b.Fatal(err)
		}
		dev, err := gpu.NewDevice(0, 1<<26)
		if err != nil {
			b.Fatal(err)
		}
		solver, err := core.NewSolver(dev, 2, batch*edge*edge)
		if err != nil {
			b.Fatal(err)
		}
		disp, err := core.NewDispatcher(backend.Batches(), backend.RecycleBatch, []*core.Solver{solver}, core.DispatcherConfig{})
		if err != nil {
			b.Fatal(err)
		}
		trainer, err := engine.NewTrainer(engine.TrainerConfig{Profile: perf.LeNet5, Solvers: []*core.Solver{solver}})
		if err != nil {
			b.Fatal(err)
		}
		errc := make(chan error, 2)
		go func() { errc <- disp.Run() }()
		go func() {
			col, err := core.LoadFromDisk(disk, nil)
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
			b.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
		}
		if st.Images != images {
			b.Fatalf("trained %d images", st.Images)
		}
		backend.Close()
		dev.Close()
	}
	b.ReportMetric(float64(images), "img/op")
}

// BenchmarkQueueTransfer measures the pipeline's queue hot path.
func BenchmarkQueueTransfer(b *testing.B) {
	q := queue.New[int](64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := q.Pop(); err != nil {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.Push(i); err != nil {
			b.Fatal(err)
		}
	}
	q.Close()
	<-done
}

// BenchmarkHugePagePool measures buffer get/recycle churn.
func BenchmarkHugePagePool(b *testing.B) {
	pool, err := hugepage.NewPool(1<<16, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := pool.Get()
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Put(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLMDBGet measures the offline store's read path.
func BenchmarkLMDBGet(b *testing.B) {
	db := lmdb.New()
	spec := dataset.MNISTLike(64)
	if err := dataset.ConvertToLMDB(spec, db, 28, 28); err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, spec.Count)
	for i := range keys {
		keys[i] = []byte(spec.Key(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := db.Get(keys[i%len(keys)]); err != nil || !ok {
			b.Fatal("missing record")
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkJPEGProgressiveDecode measures the multi-scan software
// decoder on the reference image.
func BenchmarkJPEGProgressiveDecode(b *testing.B) {
	spec := dataset.ILSVRCLike(1)
	spec.Progressive = true
	data, err := spec.JPEG(0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jpeg.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJPEGProgressiveEncode measures the two-pass optimal-table
// progressive encoder.
func BenchmarkJPEGProgressiveEncode(b *testing.B) {
	spec := dataset.ILSVRCLike(1)
	img := spec.Image(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jpeg.EncodeProgressive(img, jpeg.DefaultEncodeOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpectrogram measures the speech mirror's heavy stage: 2 s of
// 16 kHz audio through windowed DCT-II feature extraction.
func BenchmarkSpectrogram(b *testing.B) {
	clip := audio.Synth(1, 16000, 32000)
	wav, err := audio.EncodeWAV(clip)
	if err != nil {
		b.Fatal(err)
	}
	p := audio.DefaultSpectrogramParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clip, err := audio.DecodeWAV(wav)
		if err != nil {
			b.Fatal(err)
		}
		frames, err := audio.ExtractFrames(clip, p)
		if err != nil {
			b.Fatal(err)
		}
		frames.ToImage()
	}
}

// BenchmarkFutureWork regenerates the §7 directions figure.
func BenchmarkFutureWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FutureWork(); err != nil {
			b.Fatal(err)
		}
	}
}
