package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/engine"
	"dlbooster/internal/fleet"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/metrics"
	"dlbooster/internal/nvme"
	"dlbooster/internal/perf"
)

// workloadKind selects the wiring a workload runs.
type workloadKind int

const (
	kindTrain  workloadKind = iota // closed loop, dltrain wiring, no cache
	kindReplay                     // kindTrain plus the tiered cache and replay epochs
	kindServe                      // open loop, dlserve -shards 2 wiring
)

// workloadSpec is one row of the workload table in README.md. Only the
// configuration fields that table lists are ever set on the program's
// configs, so removing a legacy knob cannot break the benchmark.
type workloadSpec struct {
	name    string
	why     string
	kind    workloadKind
	size    int // output edge, pixels
	batch   int
	repeats int
}

const (
	// trainPoolBatches and servePoolBatches are the HugePage pool depths
	// of the two wirings.
	trainPoolBatches = 4
	servePoolBatches = 8
	// replayCaptureItems is epoch 1 of replay-96: small enough that the
	// cache reads, not the decode, fill most of a repeat.
	replayCaptureItems = 5 * corpusImages

	serveShards       = 2
	serveQueueCap     = 256
	serveGrace        = 5 * time.Millisecond
	serveBatchTimeout = 5 * time.Millisecond
	// serveRate is fixed below the knee: about half of train-96's
	// closed-loop capacity on the 2-vCPU build box.
	serveRate = 300.0
	// latencyLimitMs is the serving latency limit on p95; a request over
	// it, shed, unanswered or wrong counts as a miss.
	latencyLimitMs = 50.0
)

var workloads = []workloadSpec{
	{name: "train-224", kind: kindTrain, size: 224, batch: 32, repeats: 7,
		why: "paper geometry: full 8x8 iDCT, colour and a real resize dominate CPU, entropy decode is a quarter; a kernel change must move it, an entropy-only change barely"},
	{name: "train-96", kind: kindTrain, size: 96, batch: 32, repeats: 7,
		why: "decode-to-scale path (iDCT scale 4): parse and entropy decode dominate and per-image compute is smallest, so queue and FINISH hand-offs are the largest share"},
	{name: "replay-96", kind: kindReplay, size: 96, batch: 32, repeats: 5,
		why: "decoder works in epoch 1 only; later epochs read the tiered cache, half RAM half spill: shows a cache gain that costs capture, or a decode gain that must not move replay"},
	{name: "serve-96", kind: kindServe, size: 96, batch: 8, repeats: 7,
		why: "open loop at a fixed 300 req/s through a 2-shard fleet with deadline-flushed partial batches: per-batch fixed costs and hand-off latency show, not throughput"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// plan sizes one repeat: the load generator offers work for length and
// then stops at the next point where the digests stay checkable.
// maxItems is how many items it may offer at most (the capacity of the
// item log); the open loop offers exactly that many.
type plan struct {
	length   time.Duration
	maxItems int
}

// repeatResult is what one repeat measured.
type repeatResult struct {
	attempted, failed int64
	images            int64 // delivered to the engine, all passes
	passes            int

	imagesPerS      float64 // first to last delivery; replay-96: the replay epochs
	capturePerS     float64 // the decode pass; equals imagesPerS without replay epochs
	cpuMsPerImage   float64 // replay-96: the replay epochs
	allocKBPerImage float64 // replay-96: the replay epochs
	allocsPerImage  float64
	windows         []window // the timed stretch cut into short pieces

	latencyMs []float64 // ascending; hand-off (serve: due time) → delivery
	lateMs    []float64 // ascending; how late the generator submitted (serve)
	misses    int64     // failed, or (serve) answered after the latency limit
	notes     []string  // what the correctness gate objected to

	// Traced repeats only.
	snap         *metrics.PipelineSnapshot
	submitNs     float64 // mean duration of Fleet.Submit
	imbalance    float64 // max ÷ min images per shard
	shed, steals int64
	cacheHit     float64 // share of replayed images served from a tier
}

// perImage fills the per-image costs of the interval from..to.
func (r *repeatResult) perImage(from, to usage, images int64) {
	n := float64(images)
	r.cpuMsPerImage = (to.cpu - from.cpu).Seconds() * 1e3 / n
	r.allocKBPerImage = float64(to.alloc-from.alloc) / 1024 / n
	r.allocsPerImage = float64(to.mallocs-from.mallocs) / n
}

// window is one short stretch of a repeat's timed part: the box's slow
// states come and go within a repeat, and a repeat-long average mixes
// them.
type window struct {
	imagesPerS    float64
	cpuMsPerImage float64
}

// windowLength is how long a window lasts at least: long enough that the
// scheduler-tick resolution of rusage CPU time is about a hundredth of it.
const windowLength = 500 * time.Millisecond

// windower cuts a stream of deliveries into windows. A window closes at
// the first delivery after windowLength, so its image count and its
// clock agree exactly; what is left open when the repeat ends is dropped.
type windower struct {
	open   usage
	images int64
	out    []window
}

func (w *windower) start(u usage) { w.open, w.images = u, 0 }

// deliver books n images as delivered now.
func (w *windower) deliver(n int) {
	w.images += int64(n)
	if time.Since(w.open.at) < windowLength {
		return
	}
	u := readUsage()
	w.out = append(w.out, window{
		imagesPerS:    float64(w.images) / u.at.Sub(w.open.at).Seconds(),
		cpuMsPerImage: (u.cpu - w.open.cpu).Seconds() * 1e3 / float64(w.images),
	})
	w.start(u)
}

// itemLog records, per item sequence number, when it entered the
// pipeline, when it was first delivered, and how often. Slots are
// written by one goroutine each (the collector; the dispatcher or the
// owning shard's engine), except the counters, which two shards could
// both bump for a duplicated item.
type itemLog struct {
	handoff   []time.Duration
	delivered []time.Duration
	count     []atomic.Int32
	bad       []atomic.Int32 // invalid slot or wrong label
	stray     atomic.Int64   // deliveries of a sequence number never offered
	total     atomic.Int64
}

func newItemLog(n int) *itemLog {
	return &itemLog{
		handoff:   make([]time.Duration, n),
		delivered: make([]time.Duration, n),
		count:     make([]atomic.Int32, n),
		bad:       make([]atomic.Int32, n),
	}
}

// deliver books one delivery of item seq at offset now.
func (l *itemLog) deliver(seq int, now time.Duration, ok bool) {
	l.total.Add(1)
	if seq < 0 || seq >= len(l.count) {
		l.stray.Add(1)
		return
	}
	if l.count[seq].Add(1) == 1 {
		l.delivered[seq] = now
	}
	if !ok {
		l.bad[seq].Add(1)
	}
}

// settle compares the log against what was offered: each of the first
// n items delivered exactly passes times, none of them bad, nothing
// else delivered at all. It returns the number of failed operations —
// missing, surplus, bad or stray deliveries — and the latencies of first
// deliveries.
func (l *itemLog) settle(n, passes int) (failed int64, latency []time.Duration) {
	failed = l.stray.Load()
	latency = make([]time.Duration, 0, n)
	for i := range l.count {
		c, bad := int(l.count[i].Load()), int(l.bad[i].Load())
		if i >= n {
			failed += int64(c)
			continue
		}
		if c > passes {
			failed += int64(c - passes)
		} else {
			failed += int64(passes - c)
		}
		failed += int64(min(bad, c, passes))
		if c > 0 {
			latency = append(latency, l.delivered[i]-l.handoff[i])
		}
	}
	return failed, latency
}

// stampCollector is the closed-loop load generator: item i carries
// corpus image i mod corpusImages inline, and the moment the Booster
// takes it is stamped as its hand-off time. It offers items until the
// plan's length has passed, and then stops at an odd multiple of the
// corpus — the nearer of the two around the deadline — so that every
// image has been consumed an odd number of times and the trainer's XOR
// digest cannot cancel. With fixed set it offers exactly that many.
type stampCollector struct {
	c     *corpus
	log   *itemLog
	start time.Time
	p     plan
	fixed int
	pos   int
}

func (s *stampCollector) done() bool {
	if s.fixed > 0 {
		return s.pos >= s.fixed
	}
	if s.pos >= s.p.maxItems {
		return true
	}
	cycles := s.pos / corpusImages
	if s.pos%corpusImages != 0 || cycles%2 == 0 {
		return false
	}
	// The next stopping point is two corpus cycles away; stop here if
	// the deadline is nearer than its midpoint.
	elapsed := time.Since(s.start)
	return elapsed+elapsed/time.Duration(cycles) >= s.p.length
}

func (s *stampCollector) Next() (core.Item, bool) {
	if s.done() {
		return core.Item{}, false
	}
	i := s.pos
	s.pos++
	s.log.handoff[i] = time.Since(s.start)
	k := i % corpusImages
	return core.Item{
		Ref:  fpga.DataRef{Inline: s.c.jpegs[k]},
		Meta: core.ItemMeta{Label: s.c.labels[k], Seq: i},
	}, true
}

// runner holds what every repeat of one process shares.
type runner struct {
	spec   workloadSpec
	corpus *corpus
	seed   int64
	tr     *tracer // nil unless tracing
}

// repeat runs one repeat of the runner's workload.
func (r *runner) repeat(p plan, idx int, traced bool) (repeatResult, error) {
	var tr *tracer
	if traced {
		tr = r.tr
	}
	parent := tr.begin("repeat", 0, -1)
	defer tr.end(parent)
	if r.spec.kind == kindServe {
		return r.serveRepeat(p, idx, tr, parent)
	}
	return r.trainRepeat(p, tr, parent)
}

// trainRepeat is the dltrain wiring: Booster → Dispatcher → one solver
// → unpaced Trainer, built fresh so TrainStats cover exactly this
// repeat. replay-96 gives the Booster the tiered cache (half the decoded
// set in RAM, the rest on an unpaced spill device), decodes a fixed
// first epoch and then replays it, two epochs at a time so that the pass
// count stays odd, until the plan's length has passed.
func (r *runner) trainRepeat(p plan, tr *tracer, parent int) (res repeatResult, err error) {
	traced := tr != nil
	replay := r.spec.kind == kindReplay
	size, batch := r.spec.size, r.spec.batch
	imgBytes := size * size * 3
	var reg *metrics.Registry
	if traced {
		reg = metrics.NewRegistry()
	}
	cfg := core.Config{
		BatchSize: batch, OutW: size, OutH: size, Channels: 3,
		PoolBatches: trainPoolBatches, Metrics: reg,
	}
	col := &stampCollector{c: r.corpus, p: p}
	if replay {
		col.fixed = replayCaptureItems
		decoded := int64(replayCaptureItems * imgBytes)
		cfg.Cache = core.CacheConfig{RAMBytes: decoded / 2, Spill: nvme.New(nvme.Config{}), SpillBytes: 2 * decoded}
	}
	b, err := core.New(cfg)
	if err != nil {
		return res, err
	}
	defer b.Close()
	dev, err := gpu.NewDevice(0, 1<<30)
	if err != nil {
		return res, err
	}
	defer dev.Close()
	solver, err := core.NewSolver(dev, 2, batch*imgBytes)
	if err != nil {
		return res, err
	}
	solvers := []*core.Solver{solver}

	log := newItemLog(max(p.maxItems, col.fixed))
	col.log = log
	// The recycle hook is where the bench sees every batch: after its
	// host→device copy has synchronised, before the engine gets it. All
	// of this state is the dispatcher goroutine's until Run returns.
	var start time.Time
	var firstAt, lastAt, captureAt time.Duration
	var firstImages int64
	var captureEnd usage
	var win windower
	recycle := func(bt *core.Batch) error {
		now := time.Since(start)
		for i := 0; i < bt.Images; i++ {
			log.deliver(bt.Metas[i].Seq, now, bt.Valid[i])
		}
		switch {
		case firstAt == 0:
			firstAt, firstImages = now, int64(bt.Images)
			if !replay {
				win.start(readUsage())
			}
		case !replay || captureAt != 0:
			win.deliver(bt.Images)
		}
		lastAt = now
		if replay && captureAt == 0 && log.total.Load() >= replayCaptureItems {
			captureAt, captureEnd = now, readUsage()
			win.start(captureEnd) // the windows of replay-96 are its replay epochs
		}
		return b.RecycleBatch(bt)
	}
	disp, err := core.NewDispatcher(b.Batches(), recycle, solvers, core.DispatcherConfig{Metrics: reg})
	if err != nil {
		return res, err
	}
	trainer, err := engine.NewTrainer(engine.TrainerConfig{Profile: perf.AlexNet, Solvers: solvers, Metrics: reg})
	if err != nil {
		return res, err
	}

	before := readUsage()
	start, col.start = before.at, before.at
	passes := 1
	errc := make(chan error, 2) // one send from each of the two goroutines below
	go func() { errc <- disp.Run() }()
	go func() {
		defer b.CloseBatches()
		sp := tr.begin("RunEpoch", parent, -1)
		err := b.RunEpoch(col)
		tr.end(sp)
		for replay && err == nil && (passes == 1 || passes%2 == 0 || time.Since(start) < p.length) {
			if !b.CacheComplete() {
				err = errors.New("cache lost entries: a replay epoch would re-decode")
				break
			}
			sp := tr.begin("ReplayCache", parent, -1)
			err = b.ReplayCache()
			tr.end(sp)
			passes++
		}
		errc <- err
	}()
	st, runErr := trainer.Run()
	after := readUsage()
	for i := 0; i < 2; i++ {
		if e := <-errc; e != nil && err == nil {
			err = e
		}
	}
	if err == nil {
		err = runErr
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", r.spec.name, err)
	}

	n := col.pos
	res.passes = passes
	res.windows = win.out
	res.attempted = int64(n * passes)
	res.images = st.Images
	if replay {
		res.capturePerS = float64(int64(n)-firstImages) / (captureAt - firstAt).Seconds()
		res.imagesPerS = float64(st.Images-int64(n)) / (lastAt - captureAt).Seconds()
		res.perImage(captureEnd, after, st.Images-int64(n))
	} else {
		res.imagesPerS = float64(st.Images-firstImages) / (lastAt - firstAt).Seconds()
		res.capturePerS = res.imagesPerS
		res.perImage(before, after, st.Images)
	}
	failed, latency := log.settle(n, passes)
	res.latencyMs = sortedMs(latency)
	gate := func(ok bool, format string, a ...any) {
		if !ok {
			res.notes = append(res.notes, fmt.Sprintf(format, a...))
		}
	}
	gate(failed == 0, "%d items missing, duplicated or in an invalid slot", failed)
	gate(st.Images == res.attempted, "trainer consumed %d images, want %d", st.Images, res.attempted)
	gate(st.SkippedBad == 0, "trainer skipped %d bad slots", st.SkippedBad)
	want := r.corpus.expectedXOR(n, passes)
	gate(st.LossProxy == want, "loss proxy %016x, reference predicts %016x", st.LossProxy, want)
	gate(b.Pool().Outstanding() == 0, "%d HugePage buffers leaked", b.Pool().Outstanding())
	snap := b.Snapshot()
	if replay {
		redecoded := snap.Counters["cache_redecode_images_total"]
		gate(redecoded == 0, "%d images re-decoded during replay", redecoded)
		hits := snap.Counters["cache_ram_hit_images_total"] + snap.Counters["cache_spill_hit_images_total"]
		if replayed := snap.Counters["cache_replay_images_total"] + redecoded; replayed > 0 {
			res.cacheHit = float64(hits) / float64(replayed)
		}
	}
	if len(res.notes) > 0 && failed == 0 {
		failed = 1 // an aggregate check failed without naming its items
	}
	res.failed, res.misses = failed, failed // a closed loop has no latency limit to miss
	if traced {
		res.snap = snap
		tr.items(parent, start, log)
	}
	return res, nil
}

// serveRepeat is the dlserve -shards 2 wiring driven open loop: a
// least-loaded fleet of two Boosters with deadline-flushed batches, each
// feeding its own dispatcher and unpaced inference engine; TCP framing
// stays outside. Requests are submitted on a seeded Poisson schedule
// from this goroutine and timed from their due time to Emit.
func (r *runner) serveRepeat(p plan, idx int, tr *tracer, parent int) (res repeatResult, err error) {
	traced := tr != nil
	size, batch := r.spec.size, r.spec.batch
	imgBytes := size * size * 3
	n := p.maxItems
	due := poissonSchedule(r.seed*1000+int64(idx), n, serveRate)
	late := make([]time.Duration, n)
	log := newItemLog(n)
	var start time.Time

	regs := make([]*metrics.Registry, serveShards)
	fl, err := fleet.New(fleet.Config{
		Shards: serveShards, Placement: fleet.PlacementLeastLoaded,
		QueueCap: serveQueueCap, Grace: serveGrace,
		NewBooster: func(shard int) (*core.Booster, error) {
			if traced {
				regs[shard] = metrics.NewRegistry()
			}
			return core.New(core.Config{
				BatchSize: batch, OutW: size, OutH: size, Channels: 3,
				PoolBatches: servePoolBatches, BatchTimeout: serveBatchTimeout,
				Metrics: regs[shard],
			})
		},
	})
	if err != nil {
		return res, err
	}
	defer fl.Close()

	emit := func(pr engine.Prediction) {
		ok := pr.Seq >= 0 && pr.Seq < n && pr.Label == r.corpus.labels[pr.Seq%corpusImages]
		log.deliver(pr.Seq, time.Since(start), ok)
	}
	errc := make(chan error, 2*serveShards) // one send per dispatcher and per engine
	for _, s := range fl.Shards() {
		dev, err := gpu.NewDevice(s.ID(), 1<<30)
		if err != nil {
			return res, err
		}
		defer dev.Close()
		solver, err := core.NewSolver(dev, 2, batch*imgBytes)
		if err != nil {
			return res, err
		}
		bo := s.Booster()
		disp, err := core.NewDispatcher(bo.Batches(), bo.RecycleBatch, []*core.Solver{solver}, core.DispatcherConfig{Metrics: regs[s.ID()]})
		if err != nil {
			return res, err
		}
		inf, err := engine.NewInference(engine.InferenceConfig{
			Profile: perf.GoogLeNet, Solver: solver, Classes: classes,
			Emit: emit, Metrics: regs[s.ID()],
		})
		if err != nil {
			return res, err
		}
		go func() { errc <- disp.Run() }()
		go func() { _, err := inf.Run(); errc <- err }()
	}

	var submitNs int64
	var win windower // here a window's rate is the arrival rate; its CPU per request is the program's
	before := readUsage()
	start = before.at
	win.start(before)
	fl.Start()
	openLoop(start, due, late, func(i int) {
		win.deliver(1)
		k := i % corpusImages
		item := core.Item{
			Ref:  fpga.DataRef{Inline: r.corpus.jpegs[k]},
			Meta: core.ItemMeta{Label: r.corpus.labels[k], Seq: i, ReceivedAt: start.Add(due[i])},
		}
		log.handoff[i] = due[i]
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		// A shed or refused request is never delivered, which settle
		// counts as failed.
		fl.Submit(item, uint64(i))
		if traced {
			t1 := time.Now()
			submitNs += int64(t1.Sub(t0))
			tr.add("Submit", parent, i, t0, t1)
		}
	})
	sp := tr.begin("Drain", parent, -1)
	err = fl.Drain()
	tr.end(sp)
	for i := 0; i < 2*serveShards; i++ {
		if e := <-errc; e != nil && err == nil {
			err = e
		}
	}
	after := readUsage()
	if err != nil {
		return res, fmt.Errorf("%s: %w", r.spec.name, err)
	}

	res.attempted, res.passes = int64(n), 1
	res.windows = win.out
	failed, latency := log.settle(n, 1)
	res.latencyMs = sortedMs(latency)
	res.lateMs = sortedMs(late)
	res.images = int64(len(latency))
	res.imagesPerS = float64(res.images) / after.at.Sub(start).Seconds()
	res.capturePerS = res.imagesPerS
	res.perImage(before, after, res.images)
	res.misses = failed
	for _, ms := range res.latencyMs {
		if ms > latencyLimitMs {
			res.misses++
		}
	}
	if failed > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d requests shed, unanswered, answered twice or mislabelled", failed))
	}
	minImg, maxImg := int64(-1), int64(0)
	for _, s := range fl.Shards() {
		if out := s.Booster().Pool().Outstanding(); out != 0 {
			res.notes = append(res.notes, fmt.Sprintf("shard %d leaked %d HugePage buffers", s.ID(), out))
		}
		img := s.Booster().Images()
		if minImg < 0 || img < minImg {
			minImg = img
		}
		if img > maxImg {
			maxImg = img
		}
		res.shed += s.Shed()
	}
	if len(res.notes) > 0 && failed == 0 {
		failed = 1
	}
	res.failed = failed
	res.steals = fl.Steals()
	if minImg > 0 {
		res.imbalance = float64(maxImg) / float64(minImg)
	}
	if traced {
		res.snap = fl.Snapshot().Total
		res.submitNs = float64(submitNs) / float64(n)
		tr.items(parent, start, log)
	}
	return res, nil
}
