package backends

import (
	"errors"
	"sort"
	"testing"

	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
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

func drain(t *testing.T, b Backend) <-chan []collected {
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

func runBackendEpoch(t *testing.T, b Backend, col core.DataCollector) []collected {
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
	b, err := NewDLBooster(core.Config{
		BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1,
		PoolBatches: 3, Source: disk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Name() != "dlbooster" {
		t.Fatalf("Name = %q", b.Name())
	}
	all := runBackendEpoch(t, b, fixtureCollector(t, disk))
	verifyEpoch(t, all, fixCount, fixBatch)
	if b.Images() != fixCount {
		t.Fatalf("Images = %d", b.Images())
	}
}

func TestCPUBackend(t *testing.T) {
	disk := fixtureDisk(t)
	busy := metrics.NewBusyTracker()
	b, err := NewCPU(CPUConfig{
		BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1,
		PoolBatches: 3, Workers: 3, Source: disk, Busy: busy,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Name() != "cpu" || b.Workers() != 3 {
		t.Fatalf("identity: %q/%d", b.Name(), b.Workers())
	}
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
	b, err := NewLMDB(LMDBConfig{
		BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1,
		PoolBatches: 3, DB: db,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Name() != "lmdb" {
		t.Fatalf("Name = %q", b.Name())
	}
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
	b, err := NewLMDB(LMDBConfig{
		BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1,
		PoolBatches: 3, DB: db,
	})
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
	busy := metrics.NewBusyTracker()
	b, err := NewNvJPEG(NvJPEGConfig{
		BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1,
		PoolBatches: 3, Device: dev, Lanes: 2, Source: disk, Busy: busy,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Name() != "nvjpeg" {
		t.Fatalf("Name = %q", b.Name())
	}
	all := runBackendEpoch(t, b, fixtureCollector(t, disk))
	verifyEpoch(t, all, fixCount, fixBatch)
	// The decode cost must land on the GPU, not the host tracker.
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

	build := map[string]func() (Backend, error){
		"dlbooster": func() (Backend, error) {
			return NewDLBooster(core.Config{BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1, PoolBatches: 3, Source: disk})
		},
		"cpu": func() (Backend, error) {
			return NewCPU(CPUConfig{BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1, PoolBatches: 3, Workers: 2, Source: disk})
		},
		"lmdb": func() (Backend, error) {
			return NewLMDB(LMDBConfig{BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1, PoolBatches: 3, DB: db})
		},
		"nvjpeg": func() (Backend, error) {
			return NewNvJPEG(NvJPEGConfig{BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1, PoolBatches: 3, Device: dev, Source: disk})
		},
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
	b, err := NewCPU(CPUConfig{
		BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1,
		PoolBatches: 3, Workers: 2, Source: disk, Cache: core.CacheConfig{RAMBytes: 1 << 20},
	})
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
	if _, err := NewCPU(CPUConfig{BatchSize: 1, OutW: 8, OutH: 8, Channels: 1, Workers: 0}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := NewCPU(CPUConfig{BatchSize: 0, OutW: 8, OutH: 8, Channels: 1, Workers: 1}); err == nil {
		t.Fatal("zero batch accepted")
	}
	if _, err := NewLMDB(LMDBConfig{BatchSize: 1, OutW: 8, OutH: 8, Channels: 1}); err == nil {
		t.Fatal("nil DB accepted")
	}
	if _, err := NewNvJPEG(NvJPEGConfig{BatchSize: 1, OutW: 8, OutH: 8, Channels: 1}); err == nil {
		t.Fatal("nil device accepted")
	}
	dev, _ := gpu.NewDevice(0, 1<<20)
	defer dev.Close()
	if _, err := NewNvJPEG(NvJPEGConfig{BatchSize: 1, OutW: 8, OutH: 8, Channels: 1, Device: dev, Lanes: -1}); err == nil {
		t.Fatal("negative lanes accepted")
	}
	var cpu *CPU
	c, err := NewCPU(CPUConfig{BatchSize: 1, OutW: 8, OutH: 8, Channels: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cpu = c
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
	b, err := NewCPU(CPUConfig{BatchSize: 2, OutW: fixOut, OutH: fixOut, Channels: 1, PoolBatches: 2, Workers: 2})
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

	dlb, err := NewDLBooster(core.Config{BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1, PoolBatches: 3, Source: disk})
	if err != nil {
		t.Fatal(err)
	}
	defer dlb.Close()
	runBackendEpoch(t, dlb, col())
	if dlb.Images() != 0 || dlb.DecodeErrors() != int64(fixCount) {
		t.Fatalf("FPGA backend on progressive: %d ok, %d errors (want all errors)", dlb.Images(), dlb.DecodeErrors())
	}

	cpu, err := NewCPU(CPUConfig{BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1, PoolBatches: 3, Workers: 2, Source: disk})
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
	b, err := NewCPU(CPUConfig{BatchSize: 2, OutW: 8, OutH: 8, Channels: 1, PoolBatches: 2, Workers: 1})
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
	b, err := NewNvJPEG(NvJPEGConfig{BatchSize: 2, OutW: 8, OutH: 8, Channels: 3, PoolBatches: 2, Device: dev})
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
// queue closed (teardown mid-epoch) cannot be pushed; its HugePage
// buffer must go back to the pool, not leak with the dropped batch.
func TestFailedPublishRecyclesBuffer(t *testing.T) {
	disk := fixtureDisk(t)
	lm, err := NewLMDB(LMDBConfig{
		BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1,
		PoolBatches: 3, DB: fixtureLMDB(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	lm.CloseBatches()
	if err := lm.RunEpoch(fixtureCollector(t, disk)); err == nil {
		t.Fatal("lmdb epoch against a closed batch queue returned nil")
	}
	if n := lm.Pool().Outstanding(); n != 0 {
		t.Fatalf("lmdb: %d buffers still checked out after a failed publish", n)
	}

	cpu, err := NewCPU(CPUConfig{
		BatchSize: fixBatch, OutW: fixOut, OutH: fixOut, Channels: 1,
		PoolBatches: 3, Workers: 2, Source: disk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cpu.Close()
	cpu.CloseBatches()
	// The workers publish asynchronously, so the epoch itself succeeds;
	// with more batches than pool buffers it only finishes at all if
	// every failed publish gave its buffer back.
	if err := cpu.RunEpoch(fixtureCollector(t, disk)); err != nil {
		t.Fatal(err)
	}
	if n := cpu.Pool().Outstanding(); n != 0 {
		t.Fatalf("cpu: %d buffers still checked out after failed publishes", n)
	}
}
