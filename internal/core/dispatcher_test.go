package core

import (
	"bytes"
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"dlbooster/internal/dataset"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
)

func newTestSolver(t *testing.T, depth, batchBytes int) *Solver {
	t.Helper()
	dev, err := gpu.NewDevice(0, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dev.Close)
	s, err := NewSolver(dev, depth, batchBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// engineDrain simulates a compute engine: pops device batches, records
// their contents, recycles the device buffers.
func engineDrain(t *testing.T, s *Solver, wg *sync.WaitGroup, out *[][]byte, mu *sync.Mutex) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			db, err := s.Full.Pop()
			if err != nil {
				return
			}
			data := make([]byte, db.Images*db.ImageBytes())
			copy(data, db.Buf.Bytes()[:len(data)])
			mu.Lock()
			*out = append(*out, data)
			mu.Unlock()
			if err := s.Free.Push(db.Buf); err != nil {
				t.Errorf("returning device buffer: %v", err)
				return
			}
		}
	}()
}

func TestDispatcherEndToEnd(t *testing.T) {
	spec := dataset.MNISTLike(24)
	items := make([]Item, spec.Count)
	for i := range items {
		items[i] = Item{Ref: fpga.DataRef{Inline: mustJPEG(t, spec, i)}, Meta: ItemMeta{Label: spec.Label(i)}}
	}
	b := newBooster(t, Config{BatchSize: 4, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3})
	batchBytes := 4 * 28 * 28
	s1 := newTestSolver(t, 2, batchBytes)
	s2 := newTestSolver(t, 2, batchBytes)
	d, err := NewDispatcher(b.Batches(), b.RecycleBatch, []*Solver{s1, s2}, DispatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got1, got2 [][]byte
	var wg sync.WaitGroup
	engineDrain(t, s1, &wg, &got1, &mu)
	engineDrain(t, s2, &wg, &got2, &mu)
	dispErr := make(chan error, 1)
	go func() { dispErr <- d.Run() }()
	if err := b.RunEpoch(CollectorFromItems(items)); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	if err := <-dispErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// 24 images / batch 4 = 6 batches, round-robin 3 per solver.
	mu.Lock()
	defer mu.Unlock()
	if len(got1) != 3 || len(got2) != 3 {
		t.Fatalf("solver batches = %d/%d, want 3/3 (round robin)", len(got1), len(got2))
	}
	if d.Dispatched() != 6 {
		t.Fatalf("Dispatched = %d", d.Dispatched())
	}
	for _, data := range append(append([][]byte(nil), got1...), got2...) {
		if len(data) != batchBytes {
			t.Fatalf("device batch size %d", len(data))
		}
		if bytes.Count(data, []byte{0}) == len(data) {
			t.Fatal("device batch is all zeros: copy missing")
		}
	}
}

func TestDispatcherPerItemCopyMatchesBatched(t *testing.T) {
	spec := dataset.MNISTLike(8)
	run := func(perItem bool) [][]byte {
		items := make([]Item, spec.Count)
		for i := range items {
			items[i] = Item{Ref: fpga.DataRef{Inline: mustJPEG(t, spec, i)}}
		}
		b := newBooster(t, Config{BatchSize: 4, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 2})
		s := newTestSolver(t, 2, 4*28*28)
		d, err := NewDispatcher(b.Batches(), b.RecycleBatch, []*Solver{s}, DispatcherConfig{PerItemCopy: perItem})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var got [][]byte
		var wg sync.WaitGroup
		engineDrain(t, s, &wg, &got, &mu)
		done := make(chan error, 1)
		go func() { done <- d.Run() }()
		if err := b.RunEpoch(CollectorFromItems(items)); err != nil {
			t.Fatal(err)
		}
		b.CloseBatches()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		return got
	}
	batched := run(false)
	perItem := run(true)
	if len(batched) != len(perItem) {
		t.Fatalf("batch counts differ: %d vs %d", len(batched), len(perItem))
	}
	// Batches can publish in different orders between runs; compare as
	// multisets.
	canon := func(bs [][]byte) [][]byte {
		out := append([][]byte(nil), bs...)
		sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
		return out
	}
	batched, perItem = canon(batched), canon(perItem)
	for i := range batched {
		if !bytes.Equal(batched[i], perItem[i]) {
			t.Fatalf("batch %d content differs between copy modes", i)
		}
	}
}

func TestDispatcherValidation(t *testing.T) {
	b := newBooster(t, Config{BatchSize: 2, OutW: 8, OutH: 8, Channels: 1, PoolBatches: 2})
	s := newTestSolver(t, 1, 128)
	if _, err := NewDispatcher(nil, b.RecycleBatch, []*Solver{s}, DispatcherConfig{}); err == nil {
		t.Fatal("nil queue accepted")
	}
	if _, err := NewDispatcher(b.Batches(), nil, []*Solver{s}, DispatcherConfig{}); err == nil {
		t.Fatal("nil recycle accepted")
	}
	if _, err := NewDispatcher(b.Batches(), b.RecycleBatch, nil, DispatcherConfig{}); err == nil {
		t.Fatal("no solvers accepted")
	}
	dev, _ := gpu.NewDevice(1, 1<<20)
	defer dev.Close()
	if _, err := NewSolver(dev, 0, 128); err == nil {
		t.Fatal("zero depth accepted")
	}
	if _, err := NewSolver(dev, 1, 1<<21); err == nil {
		t.Fatal("oversized device batch accepted")
	}
}

// TestNewSolverFailureReleasesDevice gives NewSolver a device with room
// for one of its two buffers: the failed call must leave no device
// memory taken and no stream goroutine running.
func TestNewSolverFailureReleasesDevice(t *testing.T) {
	before := runtime.NumGoroutine()
	dev, err := gpu.NewDevice(0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSolver(dev, 2, 1024); !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Fatalf("NewSolver on a device too small for its second buffer: err = %v, want ErrOutOfMemory", err)
	}
	if used := dev.MemUsed(); used != 0 {
		t.Errorf("%d bytes of device memory still taken after the failed NewSolver", used)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed NewSolver, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDispatcherClosesSolverQueuesOnExit(t *testing.T) {
	b := newBooster(t, Config{BatchSize: 2, OutW: 8, OutH: 8, Channels: 1, PoolBatches: 2})
	s := newTestSolver(t, 1, 128)
	d, err := NewDispatcher(b.Batches(), b.RecycleBatch, []*Solver{s}, DispatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Run() }()
	b.CloseBatches()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := s.Full.Pop(); err == nil {
		t.Fatal("solver Full queue still open after dispatcher exit")
	}
}

func TestDispatcherSolverFreeQueueClosedMidRun(t *testing.T) {
	spec := dataset.MNISTLike(4)
	items := make([]Item, spec.Count)
	for i := range items {
		items[i] = Item{Ref: fpga.DataRef{Inline: mustJPEG(t, spec, i)}}
	}
	b := newBooster(t, Config{BatchSize: 2, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 2})
	s := newTestSolver(t, 1, 2*28*28)
	// Take the only device buffer out and close the Free queue: the
	// dispatcher must fail cleanly rather than hang.
	buf, err := s.Free.Pop()
	if err != nil {
		t.Fatal(err)
	}
	_ = buf
	s.Free.Close()
	d, err := NewDispatcher(b.Batches(), b.RecycleBatch, []*Solver{s}, DispatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Run() }()
	go func() {
		_ = b.RunEpoch(CollectorFromItems(items))
		b.CloseBatches()
	}()
	if err := <-done; err == nil {
		t.Fatal("dispatcher ignored closed Free queue")
	}
}

func TestRecycleForeignBatchRejected(t *testing.T) {
	b1 := newBooster(t, Config{BatchSize: 2, OutW: 8, OutH: 8, Channels: 1, PoolBatches: 2})
	b2 := newBooster(t, Config{BatchSize: 2, OutW: 8, OutH: 8, Channels: 1, PoolBatches: 2})
	buf, err := b2.Pool().Get()
	if err != nil {
		t.Fatal(err)
	}
	foreign := &Batch{Buf: buf, Images: 1, W: 8, H: 8, C: 1}
	if err := b1.RecycleBatch(foreign); err == nil {
		t.Fatal("foreign batch recycled")
	}
}
