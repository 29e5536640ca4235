package main

import (
	"fmt"
	"runtime"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/engine"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/hugepage"
	"dlbooster/internal/imageproc"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/nvme"
	"dlbooster/internal/perf"
	"dlbooster/internal/pix"
	"dlbooster/internal/queue"
)

const (
	// layerSamples is how many times each isolated timing is repeated;
	// its median is reported.
	layerSamples = 5
	// layerTimings is the number of calls layerBench makes to sample;
	// with the calibration runs it splits the layer budget evenly.
	layerTimings = 17
	// imagePass is the least number of images a sample of an image-based
	// timing covers: half the corpus, so that the figure is the corpus's
	// and not a few images'.
	imagePass = corpusImages / 2
	// cacheLayerBytes caps the decoded bytes the isolated cache timings
	// hold, so the traced run's memory stays small.
	cacheLayerBytes = 48 << 20
)

// layerBench times each layer's public functions in isolation, from one
// goroutine, on the workload's own corpus, geometry and batch size.
type layerBench struct {
	spec      workloadSpec
	c         *corpus
	sampleDur time.Duration
	out       map[string]float64
}

// sample finds an iteration count n (at least minN) for which op(n)
// lasts about sampleDur, then runs it layerSamples times and
// returns the median time per iteration in nanoseconds. op performs the
// operation n times and returns how long the measured part took, so
// set-up inside op stays outside the figure. after, when non-nil, is
// called after every kept sample with its n and duration.
func (lb *layerBench) sample(minN int, op func(n int) (time.Duration, error), after func(n int, d time.Duration)) (float64, error) {
	n := minN
	for {
		d, err := op(n)
		if err != nil {
			return 0, err
		}
		if d >= lb.sampleDur/2 {
			break
		}
		grow := 10.0
		if d > 0 {
			grow = 1.2 * float64(lb.sampleDur) / float64(d)
		}
		if grow > 100 {
			grow = 100
		}
		n = int(float64(n)*grow) + 1
	}
	per := make([]float64, layerSamples)
	for i := range per {
		d, err := op(n)
		if err != nil {
			return 0, err
		}
		per[i] = float64(d) / float64(n)
		if after != nil {
			after(n, d)
		}
	}
	return median(per), nil
}

// loop adapts a plain n-times loop to sample's op.
func loop(body func(i int) error) func(n int) (time.Duration, error) {
	return func(n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := body(i); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
}

// jpegOf walks the corpus in a fixed scattered order (67 is coprime to
// the corpus size), so that a pass shorter than the corpus is an even
// sample of it, not its first images.
func (lb *layerBench) jpegOf(i int) []byte { return lb.c.jpegs[i*67%corpusImages] }

// run fills lb.out with every isolated layer metric.
func (lb *layerBench) run() error {
	for _, step := range []func() error{
		lb.decodeStages, lb.decodeFused, lb.fpgaDevice, lb.reader,
		lb.dispatch, lb.inference, lb.cache, lb.spill, lb.handoffs,
	} {
		if err := step(); err != nil {
			return err
		}
		runtime.GC() // one layer's garbage is not the next one's cost
	}
	return nil
}

// decodeStages times the four units of the FPGA model — parser, Huffman,
// iDCT+colour, resizer — through the mirror's public stage functions,
// with a stopwatch around each call.
func (lb *layerBench) decodeStages() error {
	size := lb.spec.size
	var m fpga.JPEGMirror
	dst := pix.New(size, size, 3)
	var stage [4]time.Duration
	var perStage [4][]float64
	_, err := lb.sample(imagePass, func(n int) (time.Duration, error) {
		stage = [4]time.Duration{}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			job, err := m.Parse(lb.jpegOf(i))
			if err != nil {
				return 0, err
			}
			t1 := time.Now()
			co, err := m.EntropyDecode(job)
			if err != nil {
				return 0, err
			}
			t2 := time.Now()
			img, _, err := m.ReconstructScaled(co, size, size)
			if err != nil {
				return 0, err
			}
			t3 := time.Now()
			if err := imageproc.ResizeInto(img, dst, imageproc.Bilinear); err != nil {
				return 0, err
			}
			t4 := time.Now()
			stage[0] += t1.Sub(t0)
			stage[1] += t2.Sub(t1)
			stage[2] += t3.Sub(t2)
			stage[3] += t4.Sub(t3)
		}
		return stage[0] + stage[1] + stage[2] + stage[3], nil
	}, func(n int, _ time.Duration) {
		for s := range stage {
			perStage[s] = append(perStage[s], float64(stage[s])/float64(n)/1e3)
		}
	})
	if err != nil {
		return fmt.Errorf("decode stages: %w", err)
	}
	lb.out["jpeg.parse_us"] = median(perStage[0])
	lb.out["jpeg.entropy_us"] = median(perStage[1])
	lb.out["jpeg.reconstruct_us"] = median(perStage[2])
	lb.out["imageproc.resize_us"] = median(perStage[3])
	meanJPEG := float64(lb.c.jpegBytes) / corpusImages
	lb.out["jpeg.entropy_mb_s"] = meanJPEG / lb.out["jpeg.entropy_us"] // bytes/µs = MB/s
	return nil
}

// decodeFused times the fused single-call decoder with a private
// Scratch: into the workload geometry, into 1×1 (the parse + entropy
// floor no kernel below the entropy stage can beat), and its steady
// allocation count.
func (lb *layerBench) decodeFused() error {
	var sc jpeg.Scratch
	for _, t := range []struct {
		name string
		dst  *pix.Image
	}{
		{"jpeg.decode_fused_us", pix.New(lb.spec.size, lb.spec.size, 3)},
		{"jpeg.decode_floor_us", pix.New(1, 1, 3)},
	} {
		ns, err := lb.sample(imagePass, loop(func(i int) error {
			_, err := jpeg.DecodeScaledInto(lb.jpegOf(i), t.dst, &sc)
			return err
		}), nil)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		lb.out[t.name] = ns / 1e3
	}
	dst := pix.New(lb.spec.size, lb.spec.size, 3)
	const runs = 32
	before := readUsage()
	for i := 0; i < runs; i++ {
		if _, err := jpeg.DecodeScaledInto(lb.jpegOf(i), dst, &sc); err != nil {
			return err
		}
	}
	lb.out["jpeg.decode_allocs"] = float64(readUsage().mallocs-before.mallocs) / runs
	return nil
}

// fpgaDevice drives one standalone board: first one command at a time
// (Submit → FINISH latency, whose excess over the four stage times is
// the board's own hand-off cost), then with the FIFO kept full
// (throughput, and which unit is busiest).
func (lb *layerBench) fpgaDevice() error {
	size, batch := lb.spec.size, lb.spec.batch
	imgBytes := size * size * 3
	pool, err := hugepage.NewPool(imgBytes*batch, 2)
	if err != nil {
		return err
	}
	defer pool.Close()
	dev, err := fpga.New(fpga.Config{}, pool.Arena(), nil, fpga.JPEGMirror{})
	if err != nil {
		return err
	}
	defer dev.Close()
	buf, err := pool.Get()
	if err != nil {
		return err
	}
	var id uint64
	cmd := func(i int) fpga.Cmd {
		id++
		return fpga.Cmd{
			ID: id, Data: fpga.DataRef{Inline: lb.jpegOf(i)},
			DMAAddr: buf.PhysAddr(), DMAOff: (i % batch) * imgBytes,
			OutW: size, OutH: size, Channels: 3,
		}
	}
	wait := func() error {
		comp, err := dev.WaitCompletion()
		if err != nil {
			return err
		}
		return comp.Err
	}
	ns, err := lb.sample(imagePass, loop(func(i int) error {
		if err := dev.Submit(cmd(i)); err != nil {
			return err
		}
		return wait()
	}), nil)
	if err != nil {
		return fmt.Errorf("fpga depth-1 latency: %w", err)
	}
	lb.out["fpga.cmd_latency_us"] = ns / 1e3
	lb.out["fpga.handoff_us"] = ns/1e3 - (lb.out["jpeg.parse_us"] + lb.out["jpeg.entropy_us"] +
		lb.out["jpeg.reconstruct_us"] + lb.out["imageproc.resize_us"])

	var busy [4][]float64
	var last [4]time.Duration
	stats := func() [4]time.Duration {
		p, h, i, r := dev.Stats()
		return [4]time.Duration{p.Busy, h.Busy, i.Busy, r.Busy}
	}
	ns, err = lb.sample(imagePass, func(n int) (time.Duration, error) {
		last = stats()
		t0 := time.Now()
		errc := make(chan error, 1) // the submitter's single result
		go func() {
			for i := 0; i < n; i++ {
				if err := dev.Submit(cmd(i)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		for i := 0; i < n; i++ {
			if err := wait(); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), <-errc
	}, func(_ int, d time.Duration) {
		now := stats()
		for s := range busy {
			busy[s] = append(busy[s], float64(now[s]-last[s])/float64(d))
		}
	})
	if err != nil {
		return fmt.Errorf("fpga saturated: %w", err)
	}
	lb.out["fpga.device_images_per_s"] = 1e9 / ns
	for s, unit := range []string{"parser", "huffman", "idct", "resize"} {
		lb.out["fpga.stage_busy_share."+unit] = median(busy[s])
	}
	return pool.Put(buf)
}

// reader runs the Booster's FPGAReader alone: RunEpoch with the bench
// popping Batches() and recycling, no dispatcher or engine behind it.
// Its rate over (cores × single-core fused decode rate) is the
// efficiency ROADMAP wants at 0.67 or better.
func (lb *layerBench) reader() error {
	size, batch := lb.spec.size, lb.spec.batch
	pool := trainPoolBatches
	if lb.spec.kind == kindServe {
		pool = servePoolBatches
	}
	b, err := core.New(core.Config{BatchSize: batch, OutW: size, OutH: size, Channels: 3, PoolBatches: pool})
	if err != nil {
		return err
	}
	defer b.Close()
	ns, err := lb.sample(imagePass/batch, func(n int) (time.Duration, error) {
		n *= batch
		items := make([]core.Item, n)
		for i := range items {
			items[i] = core.Item{Ref: fpga.DataRef{Inline: lb.jpegOf(i)}, Meta: core.ItemMeta{Seq: i}}
		}
		errc := make(chan error, 1) // the consumer's single result
		t0 := time.Now()
		go func() {
			for got := 0; got < n; {
				bt, err := b.Batches().Pop()
				if err != nil {
					errc <- err
					return
				}
				got += bt.Images
				if err := b.RecycleBatch(bt); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		if err := b.RunEpoch(core.CollectorFromItems(items)); err != nil {
			return 0, err
		}
		err := <-errc
		return time.Since(t0), err
	}, nil)
	if err != nil {
		return fmt.Errorf("reader: %w", err)
	}
	rate := 1e9 / (ns / float64(batch))
	lb.out["core.reader_images_per_s"] = rate
	lb.out["core.reader_efficiency"] = rate / (float64(runtime.GOMAXPROCS(0)) * 1e6 / lb.out["jpeg.decode_fused_us"])
	return nil
}

// batchOf builds a full host batch of the workload's geometry over buf.
func (lb *layerBench) batchOf(buf *hugepage.Buffer, metas []core.ItemMeta, valid []bool) *core.Batch {
	return &core.Batch{
		Buf: buf, Images: lb.spec.batch, W: lb.spec.size, H: lb.spec.size, C: 3,
		Metas: metas, Valid: valid,
	}
}

func (lb *layerBench) metasValid() ([]core.ItemMeta, []bool) {
	metas := make([]core.ItemMeta, lb.spec.batch)
	valid := make([]bool, lb.spec.batch)
	for i := range valid {
		metas[i].Seq, valid[i] = i, true
	}
	return metas, valid
}

// dispatch feeds pre-filled host batches through a Dispatcher and one
// solver whose engine side only returns the device buffer, and times
// the bare host→device copy the dispatcher wraps.
func (lb *layerBench) dispatch() error {
	batchBytes := lb.spec.size * lb.spec.size * 3 * lb.spec.batch
	pool, err := hugepage.NewPool(batchBytes, trainPoolBatches)
	if err != nil {
		return err
	}
	defer pool.Close()
	dev, err := gpu.NewDevice(0, 1<<30)
	if err != nil {
		return err
	}
	defer dev.Close()
	solver, err := core.NewSolver(dev, 2, batchBytes)
	if err != nil {
		return err
	}
	batches := queue.New[*core.Batch](trainPoolBatches)
	disp, err := core.NewDispatcher(batches, func(bt *core.Batch) error { return pool.Put(bt.Buf) }, []*core.Solver{solver}, core.DispatcherConfig{})
	if err != nil {
		return err
	}
	dispErr := make(chan error, 1) // Dispatcher.Run's single result
	go func() { dispErr <- disp.Run() }()
	landed := make(chan struct{}) // one tick per batch the fake engine released
	go func() {
		defer close(landed)
		for {
			db, err := solver.Full.Pop()
			if err != nil {
				return
			}
			if solver.Free.Push(db.Buf) != nil {
				return
			}
			landed <- struct{}{}
		}
	}()
	metas, valid := lb.metasValid()
	ns, err := lb.sample(1, func(n int) (time.Duration, error) {
		errc := make(chan error, 1) // the feeder's single result
		t0 := time.Now()
		go func() {
			for i := 0; i < n; i++ {
				buf, err := pool.Get()
				if err == nil {
					err = batches.Push(lb.batchOf(buf, metas, valid))
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		for i := 0; i < n; i++ {
			if _, ok := <-landed; !ok {
				return 0, fmt.Errorf("dispatcher stopped early")
			}
		}
		return time.Since(t0), <-errc
	}, nil)
	batches.Close()
	if derr := <-dispErr; err == nil {
		err = derr
	}
	for range landed { // the fake engine exits once the dispatcher closed Full
	}
	if err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	lb.out["core.dispatch_us_per_batch"] = ns / 1e3

	stream, err := dev.NewStream()
	if err != nil {
		return err
	}
	defer stream.Close()
	dbuf, err := dev.Malloc(batchBytes)
	if err != nil {
		return err
	}
	host := make([]byte, batchBytes)
	ns, err = lb.sample(1, loop(func(int) error {
		if err := stream.MemcpyHtoDAsync(dbuf, 0, host); err != nil {
			return err
		}
		return stream.Synchronize()
	}), nil)
	if err != nil {
		return fmt.Errorf("h2d: %w", err)
	}
	lb.out["gpu.h2d_us_per_batch"] = ns / 1e3
	lb.out["gpu.h2d_gb_s"] = float64(batchBytes) / ns // bytes/ns = GB/s
	return nil
}

// inference runs the unpaced inference engine over device batches that
// are already filled, so only its forward proxy and bookkeeping count.
func (lb *layerBench) inference() error {
	size, batch := lb.spec.size, lb.spec.batch
	dev, err := gpu.NewDevice(0, 1<<30)
	if err != nil {
		return err
	}
	defer dev.Close()
	metas, valid := lb.metasValid()
	ns, err := lb.sample(1, func(n int) (time.Duration, error) {
		solver, err := core.NewSolver(dev, 2, batch*size*size*3)
		if err != nil {
			return 0, err
		}
		inf, err := engine.NewInference(engine.InferenceConfig{Profile: perf.GoogLeNet, Solver: solver, Classes: classes})
		if err != nil {
			return 0, err
		}
		go func() {
			defer solver.Full.Close()
			for i := 0; i < n; i++ {
				buf, err := solver.Free.Pop()
				if err != nil {
					return
				}
				db := &core.DeviceBatch{Buf: buf, Images: batch, W: size, H: size, C: 3, Metas: metas, Valid: valid, Seq: i}
				if solver.Full.Push(db) != nil {
					return
				}
			}
		}()
		st, err := inf.Run()
		if err == nil && st.Images != int64(n*batch) {
			err = fmt.Errorf("engine saw %d images, want %d", st.Images, n*batch)
		}
		for { // return the device buffers the engine released
			buf, ok, _ := solver.Free.TryPop()
			if !ok {
				break
			}
			_ = buf.Free() // a failed free only leaves simulated device memory booked until dev.Close
		}
		return st.Elapsed, err
	}, nil)
	if err != nil {
		return fmt.Errorf("inference: %w", err)
	}
	lb.out["engine.infer_us_per_image"] = ns / float64(batch) / 1e3
	return nil
}

// cache times TieredCache.Add and Replay into a sink that discards the
// batch, once with everything in RAM and once with (all but one batch)
// on an unpaced spill device.
func (lb *layerBench) cache() error {
	batch := lb.spec.batch
	batchBytes := lb.spec.size * lb.spec.size * 3 * batch
	entries := cacheLayerBytes / batchBytes
	if entries < 4 {
		entries = 4
	}
	pool, err := hugepage.NewPool(batchBytes, 2)
	if err != nil {
		return err
	}
	defer pool.Close()
	src, err := pool.Get()
	if err != nil {
		return err
	}
	metas, valid := lb.metasValid()
	refs := make([]fpga.DataRef, batch)
	bt := lb.batchOf(src, metas, valid)
	fill := func(cfg core.CacheConfig) (*core.TieredCache, time.Duration, error) {
		c, err := core.NewTieredCache(cfg)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		for i := 0; i < entries; i++ {
			c.Add(bt, refs, 1e6)
		}
		return c, time.Since(t0), nil
	}
	adds := make([]float64, layerSamples)
	for i := range adds {
		_, d, err := fill(core.CacheConfig{RAMBytes: int64(entries+1) * int64(batchBytes)})
		if err != nil {
			return fmt.Errorf("cache add: %w", err)
		}
		adds[i] = float64(d) / float64(entries) / 1e3
	}
	lb.out["core.cache_add_us_per_batch"] = median(adds)

	sink := core.CacheReplaySink{
		GetBuffer: pool.Get,
		Publish: func(buf *hugepage.Buffer, _ int, _ []core.ItemMeta, _ []bool, _ core.CacheTier) error {
			return pool.Put(buf)
		},
	}
	for _, tier := range []struct {
		name string
		cfg  core.CacheConfig
	}{
		{"core.cache_replay_ram_images_per_s", core.CacheConfig{RAMBytes: int64(entries+1) * int64(batchBytes)}},
		{"core.cache_replay_spill_images_per_s", core.CacheConfig{RAMBytes: int64(batchBytes), Spill: nvme.New(nvme.Config{})}},
	} {
		c, _, err := fill(tier.cfg)
		if err != nil {
			return err
		}
		ns, err := lb.sample(1, loop(func(int) error { return c.Replay(0, 1, sink) }), nil)
		if err != nil {
			return fmt.Errorf("%s: %w", tier.name, err)
		}
		lb.out[tier.name] = float64(entries*batch) * 1e9 / ns
	}
	return pool.Put(src)
}

// spill times the unpaced NVMe model as the cache's SpillStore, with a
// record the size of one batch plus the spill header.
func (lb *layerBench) spill() error {
	rec := make([]byte, lb.spec.size*lb.spec.size*3*lb.spec.batch+core.SpillHeaderSize)
	dev := nvme.New(nvme.Config{})
	// The store refuses to overwrite, as the cache never does: a put is
	// timed with the delete that frees its name again.
	put, err := lb.sample(1, loop(func(int) error {
		if err := dev.WriteObject("bench/put", rec); err != nil {
			return err
		}
		return dev.Delete("bench/put")
	}), nil)
	if err != nil {
		return fmt.Errorf("spill put: %w", err)
	}
	if err := dev.WriteObject("bench/get", rec); err != nil {
		return err
	}
	get, err := lb.sample(1, loop(func(int) error {
		_, err := dev.Read("bench/get")
		return err
	}), nil)
	if err != nil {
		return fmt.Errorf("spill get: %w", err)
	}
	lb.out["nvme.spill_put_us_per_batch"] = put / 1e3
	lb.out["nvme.spill_get_us_per_batch"] = get / 1e3
	return nil
}

// handoffs times the primitives every stage boundary is built from: a
// HugePage buffer check-out and return, a queue push+pop on one
// goroutine, and a queue hand-off between two.
func (lb *layerBench) handoffs() error {
	pool, err := hugepage.NewPool(4096, 2)
	if err != nil {
		return err
	}
	defer pool.Close()
	ns, err := lb.sample(1, loop(func(int) error {
		buf, err := pool.Get()
		if err != nil {
			return err
		}
		return pool.Put(buf)
	}), nil)
	if err != nil {
		return fmt.Errorf("hugepage get/put: %w", err)
	}
	lb.out["hugepage.getput_ns"] = ns

	q := queue.New[int](4)
	ns, err = lb.sample(1, loop(func(i int) error {
		if err := q.Push(i); err != nil {
			return err
		}
		_, err := q.Pop()
		return err
	}), nil)
	if err != nil {
		return fmt.Errorf("queue push/pop: %w", err)
	}
	lb.out["queue.pushpop_ns"] = ns

	ping, pong := queue.New[int](1), queue.New[int](1)
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			v, err := ping.Pop()
			if err != nil || pong.Push(v) != nil {
				return
			}
		}
	}()
	ns, err = lb.sample(1, loop(func(i int) error {
		if err := ping.Push(i); err != nil {
			return err
		}
		_, err := pong.Pop()
		return err
	}), nil)
	ping.Close()
	<-echoed
	if err != nil {
		return fmt.Errorf("queue hand-off: %w", err)
	}
	lb.out["queue.handoff_ns"] = ns / 2 // a round trip is two hand-offs
	return nil
}
