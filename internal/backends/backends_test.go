package backends

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/lmdb"
	"dlbooster/internal/metrics"
	"dlbooster/internal/nvme"
)

// collected mirrors core's drained batches for backend-agnostic checks.
type collected struct {
	images int
	metas  []core.ItemMeta
	valid  []bool
	pixels [][]byte
}

func drain(t *testing.T, b *core.Booster) <-chan []collected {
	t.Helper()
	out := make(chan []collected, 1)
	go func() {
		var all []collected
		for {
			batch, err := b.Batches().Pop()
			if err != nil {
				out <- all
				return
			}
			c := collected{images: batch.Images, metas: batch.Metas, valid: batch.Valid}
			for i := 0; i < batch.Images; i++ {
				c.pixels = append(c.pixels, append([]byte(nil), batch.Image(i)...))
			}
			all = append(all, c)
			if err := b.RecycleBatch(batch); err != nil {
				t.Errorf("recycle: %v", err)
			}
		}
	}()
	return out
}

// fixtures shared across backend tests.
const (
	fixCount = 18
	fixBatch = 4
	fixOut   = 28
)

func fixtureSpec() dataset.Spec { return dataset.MNISTLike(fixCount) }

// fixConfig is the batch geometry every fixture backend shares.
func fixConfig(src fpga.DataSource) core.Config {
	return core.Config{BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1, PoolBatches: 3, Source: src}
}

func fixtureDisk(t *testing.T) *nvme.Device {
	t.Helper()
	d := nvme.New(nvme.Config{})
	if _, err := fixtureSpec().WriteToNVMe(d); err != nil {
		t.Fatal(err)
	}
	return d
}

func fixtureCollector(t *testing.T, d *nvme.Device) core.DataCollector {
	t.Helper()
	spec := fixtureSpec()
	col, err := core.LoadFromDisk(d, func(name string, i int) int { return spec.Label(i) })
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// verifyEpoch checks an epoch's output regardless of batch order.
func verifyEpoch(t *testing.T, all []collected, wantImages int, batch int) {
	t.Helper()
	spec := fixtureSpec()
	seen := map[int]bool{}
	for _, c := range all {
		if c.images > batch {
			t.Fatalf("batch with %d images exceeds batch size %d", c.images, batch)
		}
		for s := 0; s < c.images; s++ {
			if !c.valid[s] {
				t.Fatalf("invalid slot for item %d", c.metas[s].Seq)
			}
			idx := c.metas[s].Seq
			if seen[idx] {
				t.Fatalf("item %d delivered twice", idx)
			}
			seen[idx] = true
			if c.metas[s].Label != spec.Label(idx) {
				t.Fatalf("item %d label %d, want %d", idx, c.metas[s].Label, spec.Label(idx))
			}
			allZero := true
			for _, v := range c.pixels[s] {
				if v != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Fatalf("item %d has empty pixels", idx)
			}
		}
	}
	if len(seen) != wantImages {
		t.Fatalf("delivered %d distinct images, want %d", len(seen), wantImages)
	}
}

func runBackendEpoch(t *testing.T, b *core.Booster, col core.DataCollector) []collected {
	t.Helper()
	results := drain(t, b)
	if err := b.RunEpoch(col); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	return <-results
}

func TestDLBoosterBackend(t *testing.T) {
	disk := fixtureDisk(t)
	b, err := core.New(fixConfig(disk))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	all := runBackendEpoch(t, b, fixtureCollector(t, disk))
	verifyEpoch(t, all, fixCount, fixBatch)
	if b.Images() != fixCount {
		t.Fatalf("Images = %d", b.Images())
	}
}

func TestCPUBackend(t *testing.T) {
	disk := fixtureDisk(t)
	busy := metrics.NewBusyTracker()
	b, err := NewCPU(fixConfig(disk), CPUConfig{Workers: 3, Busy: busy})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	all := runBackendEpoch(t, b, fixtureCollector(t, disk))
	verifyEpoch(t, all, fixCount, fixBatch)
	if busy.Busy("preprocess") <= 0 {
		t.Fatal("no decode busy time recorded")
	}
}

func fixtureLMDB(t *testing.T) *lmdb.DB {
	t.Helper()
	db := lmdb.New()
	if err := dataset.ConvertToLMDB(fixtureSpec(), db, fixOut, fixOut); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLMDBBackend(t *testing.T) {
	disk := fixtureDisk(t)
	db := fixtureLMDB(t)
	b, err := NewLMDB(fixConfig(nil), LMDBConfig{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	all := runBackendEpoch(t, b, fixtureCollector(t, disk))
	verifyEpoch(t, all, fixCount, fixBatch)
	gets, _, _, _ := db.Stats()
	if gets != fixCount {
		t.Fatalf("store gets = %d", gets)
	}
}

func TestLMDBBackendMissingAndMismatchedRecords(t *testing.T) {
	spec := fixtureSpec()
	db := lmdb.New()
	// Store records at the wrong geometry for half the items and skip
	// the others entirely.
	if err := dataset.ConvertToLMDB(dataset.Spec{
		Name: spec.Name, Count: fixCount / 2, W: spec.W, H: spec.H, C: spec.C,
		Classes: spec.Classes, Quality: spec.Quality, Seed: spec.Seed,
	}, db, 16, 16); err != nil {
		t.Fatal(err)
	}
	disk := fixtureDisk(t)
	b, err := NewLMDB(fixConfig(nil), LMDBConfig{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	results := drain(t, b)
	if err := b.RunEpoch(fixtureCollector(t, disk)); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	<-results
	if b.Images() != 0 {
		t.Fatalf("Images = %d, want 0 (wrong geometry + missing)", b.Images())
	}
	if b.DecodeErrors() != fixCount {
		t.Fatalf("DecodeErrors = %d, want %d", b.DecodeErrors(), fixCount)
	}
}

func TestNvJPEGBackend(t *testing.T) {
	disk := fixtureDisk(t)
	dev, err := gpu.NewDevice(0, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	b, err := NewNvJPEG(fixConfig(disk), NvJPEGConfig{Device: dev, Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	all := runBackendEpoch(t, b, fixtureCollector(t, disk))
	verifyEpoch(t, all, fixCount, fixBatch)
	// The decode cost must land on the GPU.
	if dev.KernelBusy() <= 0 {
		t.Fatal("GPU kernel busy time is zero: decode did not run on device")
	}
}

// TestBackendsProduceIdenticalPixels: all four backends are
// interchangeable — same inputs, same output bytes (DLBooster, CPU and
// nvJPEG decode online with the same codec; LMDB serves the same decode
// done offline).
func TestBackendsProduceIdenticalPixels(t *testing.T) {
	disk := fixtureDisk(t)
	db := fixtureLMDB(t)
	dev, _ := gpu.NewDevice(0, 1<<26)
	defer dev.Close()

	build := map[string]func() (*core.Booster, error){
		"dlbooster": func() (*core.Booster, error) { return core.New(fixConfig(disk)) },
		"cpu":       func() (*core.Booster, error) { return NewCPU(fixConfig(disk), CPUConfig{Workers: 2}) },
		"lmdb":      func() (*core.Booster, error) { return NewLMDB(fixConfig(nil), LMDBConfig{DB: db}) },
		"nvjpeg":    func() (*core.Booster, error) { return NewNvJPEG(fixConfig(disk), NvJPEGConfig{Device: dev}) },
	}
	outputs := map[string]map[int][]byte{}
	for name, mk := range build {
		b, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		all := runBackendEpoch(t, b, fixtureCollector(t, disk))
		byItem := map[int][]byte{}
		for _, c := range all {
			for s := 0; s < c.images; s++ {
				byItem[c.metas[s].Seq] = c.pixels[s]
			}
		}
		outputs[name] = byItem
		b.Close()
	}
	ref := outputs["dlbooster"]
	var names []string
	for n := range outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		got := outputs[name]
		if len(got) != len(ref) {
			t.Fatalf("%s delivered %d items, want %d", name, len(got), len(ref))
		}
		for idx, pix := range ref {
			other := got[idx]
			if len(other) != len(pix) {
				t.Fatalf("%s item %d length %d vs %d", name, idx, len(other), len(pix))
			}
			for j := range pix {
				if pix[j] != other[j] {
					t.Fatalf("%s item %d differs from dlbooster at byte %d", name, idx, j)
				}
			}
		}
	}
}

func TestBackendCacheParity(t *testing.T) {
	// CPU backend with cache behaves like DLBooster's hybrid mode.
	disk := fixtureDisk(t)
	cfg := fixConfig(disk)
	cfg.Cache = core.CacheConfig{RAMBytes: 1 << 20}
	b, err := NewCPU(cfg, CPUConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	results := drain(t, b)
	if err := b.RunEpoch(fixtureCollector(t, disk)); err != nil {
		t.Fatal(err)
	}
	if !b.CacheComplete() {
		t.Fatal("cache incomplete after epoch")
	}
	if err := b.ReplayCache(); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	all := <-results
	verify := map[int]int{}
	for _, c := range all {
		for s := 0; s < c.images; s++ {
			verify[c.metas[s].Seq]++
		}
	}
	for idx, n := range verify {
		if n != 2 {
			t.Fatalf("item %d delivered %d times, want 2 (epoch + replay)", idx, n)
		}
	}
}

func TestBackendValidation(t *testing.T) {
	small := core.Config{BatchSize: 1, OutW: 8, OutH: 8, Channels: 1}
	if _, err := NewCPU(small, CPUConfig{Workers: 0}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := NewCPU(core.Config{BatchSize: 0, OutW: 8, OutH: 8, Channels: 1}, CPUConfig{Workers: 1}); err == nil {
		t.Fatal("zero batch accepted")
	}
	if _, err := NewLMDB(small, LMDBConfig{}); err == nil {
		t.Fatal("nil DB accepted")
	}
	if _, err := NewNvJPEG(small, NvJPEGConfig{}); err == nil {
		t.Fatal("nil device accepted")
	}
	dev, _ := gpu.NewDevice(0, 1<<20)
	defer dev.Close()
	if _, err := NewNvJPEG(small, NvJPEGConfig{Device: dev, Lanes: -1}); err == nil {
		t.Fatal("negative lanes accepted")
	}
	cpu, err := NewCPU(small, CPUConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.RunEpoch(nil); err == nil {
		t.Fatal("nil collector accepted")
	}
	if err := cpu.RecycleBatch(nil); err == nil {
		t.Fatal("nil batch accepted")
	}
	if err := cpu.ReplayCache(); !errors.Is(err, core.ErrCacheUnavailable) {
		t.Fatalf("ReplayCache = %v", err)
	}
	cpu.Close()
}

func TestCPUDecodeErrorsCounted(t *testing.T) {
	spec := fixtureSpec()
	items := make([]core.Item, 4)
	for i := range items {
		data, err := spec.JPEG(i)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			data = data[:10]
		}
		items[i] = core.Item{Ref: fpga.DataRef{Inline: data}, Meta: core.ItemMeta{Seq: i}}
	}
	b, err := NewCPU(core.Config{BatchSize: 2, OutW: fixOut, OutH: fixOut, Channels: 1, PoolBatches: 2}, CPUConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	results := drain(t, b)
	if err := b.RunEpoch(core.CollectorFromItems(items)); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	<-results
	if b.Images() != 2 || b.DecodeErrors() != 2 {
		t.Fatalf("images=%d errors=%d", b.Images(), b.DecodeErrors())
	}
}

// TestProgressiveInputsDifferentiateBackends: the FPGA decoder (like
// real hardware JPEG decoders) is baseline-only, so a progressive corpus
// fails through DLBooster's error path while the CPU backend's software
// decoder handles it.
func TestProgressiveInputsDifferentiateBackends(t *testing.T) {
	spec := fixtureSpec()
	spec.Progressive = true
	disk := nvme.New(nvme.Config{})
	if _, err := spec.WriteToNVMe(disk); err != nil {
		t.Fatal(err)
	}
	col := func() core.DataCollector {
		c, err := core.LoadFromDisk(disk, func(name string, i int) int { return spec.Label(i) })
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	dlb, err := core.New(fixConfig(disk))
	if err != nil {
		t.Fatal(err)
	}
	defer dlb.Close()
	runBackendEpoch(t, dlb, col())
	if dlb.Images() != 0 || dlb.DecodeErrors() != int64(fixCount) {
		t.Fatalf("FPGA backend on progressive: %d ok, %d errors (want all errors)", dlb.Images(), dlb.DecodeErrors())
	}

	cpu, err := NewCPU(fixConfig(disk), CPUConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cpu.Close()
	all := runBackendEpoch(t, cpu, col())
	verifyEpoch(t, all, fixCount, fixBatch)
}

func TestCPUBackendSourcelessPathFails(t *testing.T) {
	// Disk refs without a DataSource must count as decode errors, not
	// hang or panic.
	b, err := NewCPU(core.Config{BatchSize: 2, OutW: 8, OutH: 8, Channels: 1, PoolBatches: 2}, CPUConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	items := []core.Item{
		{Ref: fpga.DataRef{Path: "missing"}},
		{Ref: fpga.DataRef{Path: "also-missing"}},
	}
	results := drain(t, b)
	if err := b.RunEpoch(core.CollectorFromItems(items)); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	<-results
	if b.DecodeErrors() != 2 || b.Images() != 0 {
		t.Fatalf("errors=%d images=%d", b.DecodeErrors(), b.Images())
	}
}

func TestNvJPEGChannelMismatchCounted(t *testing.T) {
	dev, _ := gpu.NewDevice(0, 1<<24)
	defer dev.Close()
	b, err := NewNvJPEG(core.Config{BatchSize: 2, OutW: 8, OutH: 8, Channels: 3, PoolBatches: 2}, NvJPEGConfig{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Grayscale JPEGs into a 3-channel pipeline: every decode fails.
	spec := dataset.MNISTLike(2)
	items := make([]core.Item, 2)
	for i := range items {
		data, err := spec.JPEG(i)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = core.Item{Ref: fpga.DataRef{Inline: data}}
	}
	results := drain(t, b)
	if err := b.RunEpoch(core.CollectorFromItems(items)); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	<-results
	if b.DecodeErrors() != 2 {
		t.Fatalf("DecodeErrors = %d", b.DecodeErrors())
	}
}

// TestFailedPublishRecyclesBuffer: a batch finished after the Full
// queue closed (teardown mid-epoch) cannot be pushed; the epoch must
// fail, and its HugePage buffer — with every other one the epoch held —
// must go back to the pool, not leak with the dropped batch.
func TestFailedPublishRecyclesBuffer(t *testing.T) {
	disk := fixtureDisk(t)
	db := fixtureLMDB(t)
	build := map[string]func() (*core.Booster, error){
		"lmdb": func() (*core.Booster, error) { return NewLMDB(fixConfig(nil), LMDBConfig{DB: db}) },
		"cpu":  func() (*core.Booster, error) { return NewCPU(fixConfig(disk), CPUConfig{Workers: 2}) },
	}
	for _, name := range []string{"lmdb", "cpu"} {
		b, err := build[name]()
		if err != nil {
			t.Fatal(err)
		}
		b.CloseBatches()
		if err := b.RunEpoch(fixtureCollector(t, disk)); err == nil {
			t.Fatalf("%s epoch against a closed batch queue returned nil", name)
		}
		if n := b.Pool().Outstanding(); n != 0 {
			t.Fatalf("%s: %d buffers still checked out after a failed publish", name, n)
		}
		b.Close()
	}
}

// TestLMDBLabelsComeFromCollector: the store's record label does not
// override the collector's — the label source is the same for every
// backend.
func TestLMDBLabelsComeFromCollector(t *testing.T) {
	disk := fixtureDisk(t)
	b, err := NewLMDB(fixConfig(nil), LMDBConfig{DB: fixtureLMDB(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	spec := fixtureSpec()
	col, err := core.LoadFromDisk(disk, func(name string, i int) int { return spec.Label(i) + 1000 })
	if err != nil {
		t.Fatal(err)
	}
	all := runBackendEpoch(t, b, col)
	n := 0
	for _, c := range all {
		for s := 0; s < c.images; s++ {
			if want := spec.Label(c.metas[s].Seq) + 1000; c.metas[s].Label != want || !c.valid[s] {
				t.Fatalf("item %d: label %d valid %v, want the collector's %d", c.metas[s].Seq, c.metas[s].Label, c.valid[s], want)
			}
			n++
		}
	}
	if n != fixCount {
		t.Fatalf("delivered %d items, want %d", n, fixCount)
	}
}

// TestCPUEpochSteadyStateAllocs pins the baselines' epoch to the
// boards' allocation budget (core's TestRunEpochSteadyStateAllocs): once
// warm, a CPU epoch of 500×375 JPEGs decoded to 96×96 allocates at most
// 0.5 objects and 1 KiB per image at every worker count.
func TestCPUEpochSteadyStateAllocs(t *testing.T) {
	spec := dataset.Spec{Name: "rgb", Count: 1, W: 500, H: 375, C: 3, Classes: 10, Seed: 7}
	data, err := jpeg.Encode(spec.Image(0), jpeg.EncodeOptions{Quality: 88, Subsample420: true})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]core.Item, 256)
	for i := range items {
		items[i] = core.Item{Ref: fpga.DataRef{Inline: data}, Meta: core.ItemMeta{Seq: i}}
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			b, err := NewCPU(core.Config{BatchSize: 32, OutW: 96, OutH: 96, Channels: 3, PoolBatches: 4}, CPUConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			results := drainCount(b)
			epoch := func() {
				if err := b.RunEpoch(core.CollectorFromItems(items)); err != nil {
					t.Fatal(err)
				}
			}
			epoch() // warm the lanes' scratch buffers
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			epoch()
			runtime.ReadMemStats(&after)
			b.CloseBatches()
			if n := <-results; n != 2*len(items) {
				t.Fatalf("consumer saw %d valid images, want %d", n, 2*len(items))
			}
			objects := float64(after.Mallocs-before.Mallocs) / float64(len(items))
			size := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(items))
			t.Logf("%d workers: %.3f objects, %.0f bytes per image", workers, objects, size)
			if objects > 0.5 || size > 1024 {
				t.Errorf("%.2f objects and %.0f bytes per image, want at most 0.5 and 1024", objects, size)
			}
		})
	}
}

// drainCount recycles every batch without copying it and reports the
// valid images it saw once the stream closes.
func drainCount(b *core.Booster) <-chan int {
	out := make(chan int, 1)
	go func() {
		n := 0
		for {
			batch, err := b.Batches().Pop()
			if err != nil {
				out <- n
				return
			}
			n += batch.ValidCount()
			_ = b.RecycleBatch(batch)
		}
	}()
	return out
}
