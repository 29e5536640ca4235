package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dlbooster/internal/dataset"
	"dlbooster/internal/fpga"
	"dlbooster/internal/imageproc"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/nic"
	"dlbooster/internal/nvme"
	"dlbooster/internal/pix"
	"dlbooster/internal/queue"
)

// drainAll consumes and recycles every batch, returning them in arrival
// order with their pixel contents copied out (buffers are recycled).
type drained struct {
	seq    int
	images int
	pixels [][]byte
	metas  []ItemMeta
	valid  []bool
}

func drainAll(t *testing.T, b *Booster) <-chan []drained {
	t.Helper()
	out := make(chan []drained, 1)
	go func() {
		var all []drained
		for {
			batch, err := b.Batches().Pop()
			if err != nil {
				out <- all
				return
			}
			d := drained{seq: batch.Seq, images: batch.Images, metas: batch.Metas, valid: batch.Valid}
			for i := 0; i < batch.Images; i++ {
				d.pixels = append(d.pixels, append([]byte(nil), batch.Image(i)...))
			}
			all = append(all, d)
			if err := b.RecycleBatch(batch); err != nil {
				t.Errorf("recycle: %v", err)
			}
		}
	}()
	return out
}

func newBooster(t *testing.T, cfg Config) *Booster {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func TestRunEpochFromDisk(t *testing.T) {
	spec := dataset.MNISTLike(25)
	disk := nvme.New(nvme.Config{})
	if _, err := spec.WriteToNVMe(disk); err != nil {
		t.Fatal(err)
	}
	b := newBooster(t, Config{
		BatchSize: 10, OutW: 28, OutH: 28, Channels: 1,
		PoolBatches: 4, Source: disk,
	})
	results := drainAll(t, b)
	col, err := LoadFromDisk(disk, func(name string, i int) int { return spec.Label(i) })
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RunEpoch(col); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	all := <-results
	// 25 images at batch 10 → batches of 10, 10 and 5 images. Batches
	// may publish out of completion order; identify them by content.
	if len(all) != 3 {
		t.Fatalf("batches = %d", len(all))
	}
	sizes := map[int]int{}
	seen := map[int]bool{}
	for _, d := range all {
		sizes[d.images]++
		for s := 0; s < d.images; s++ {
			if !d.valid[s] {
				t.Fatalf("slot %d invalid", s)
			}
			idx := d.metas[s].Seq
			if seen[idx] {
				t.Fatalf("image %d delivered twice", idx)
			}
			seen[idx] = true
			if d.metas[s].Label != spec.Label(idx) {
				t.Fatalf("image %d label = %d, want %d", idx, d.metas[s].Label, spec.Label(idx))
			}
		}
	}
	if sizes[10] != 2 || sizes[5] != 1 || len(seen) != 25 {
		t.Fatalf("batch sizes = %v, distinct images = %d", sizes, len(seen))
	}
	if b.Images() != 25 || b.DecodeErrors() != 0 {
		t.Fatalf("counters: %d images %d errors", b.Images(), b.DecodeErrors())
	}
	// Pixel content must equal reference decode+resize of the source.
	ref, err := jpeg.Decode(mustJPEG(t, spec, 0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := imageproc.Resize(ref, 28, 28, imageproc.Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	var img0 []byte
	for _, d := range all {
		for s := 0; s < d.images; s++ {
			if d.metas[s].Seq == 0 {
				img0 = d.pixels[s]
			}
		}
	}
	got, err := pix.View(28, 28, 1, img0)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := got.MaxAbsDiff(want); d != 0 {
		t.Fatalf("pipeline output differs from reference by %d", d)
	}
}

func mustJPEG(t *testing.T, s dataset.Spec, i int) []byte {
	t.Helper()
	data, err := s.JPEG(i)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRunEpochFromNet(t *testing.T) {
	spec := dataset.ILSVRCLike(8)
	fabric := nic.New(nic.Config{RxQueueCap: 16})
	payloads := make([][]byte, spec.Count)
	for i := range payloads {
		payloads[i] = mustJPEG(t, spec, i)
	}
	clients, err := nic.StartClients(fabric, 3, payloads)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		fabric.Close()
		clients.Stop()
	}()
	b := newBooster(t, Config{
		BatchSize: 4, OutW: 224, OutH: 224, Channels: 3, PoolBatches: 4,
	})
	results := drainAll(t, b)
	col, err := LoadFromNet(fabric, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RunEpoch(col); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	all := <-results
	if len(all) != 3 {
		t.Fatalf("batches = %d", len(all))
	}
	for _, d := range all {
		for s := 0; s < d.images; s++ {
			if !d.valid[s] {
				t.Fatal("network image failed decode")
			}
			if d.metas[s].ReceivedAt.IsZero() {
				t.Fatal("receive timestamp lost")
			}
		}
	}
}

func TestDecodeErrorsAreIsolated(t *testing.T) {
	spec := dataset.MNISTLike(6)
	items := make([]Item, 0, 6)
	for i := 0; i < 6; i++ {
		data := mustJPEG(t, spec, i)
		if i == 2 || i == 4 {
			data = data[:len(data)/2] // truncate: decode must fail
		}
		items = append(items, Item{Ref: fpga.DataRef{Inline: data}, Meta: ItemMeta{Label: i}})
	}
	b := newBooster(t, Config{BatchSize: 3, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 2})
	results := drainAll(t, b)
	if err := b.RunEpoch(CollectorFromItems(items)); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	all := <-results
	if len(all) != 2 {
		t.Fatalf("batches = %d", len(all))
	}
	if b.DecodeErrors() != 2 || b.Images() != 4 {
		t.Fatalf("errors=%d images=%d", b.DecodeErrors(), b.Images())
	}
	// Items 2 and 4 were truncated: their slots (and only theirs) must be
	// invalid, wherever their batch landed in the queue.
	for _, d := range all {
		for s := 0; s < d.images; s++ {
			wantValid := d.metas[s].Label != 2 && d.metas[s].Label != 4
			if d.valid[s] != wantValid {
				t.Fatalf("item %d valid = %v, want %v", d.metas[s].Label, d.valid[s], wantValid)
			}
		}
	}
}

func TestCacheReplay(t *testing.T) {
	spec := dataset.MNISTLike(12)
	items := make([]Item, spec.Count)
	for i := range items {
		items[i] = Item{Ref: fpga.DataRef{Inline: mustJPEG(t, spec, i)}, Meta: ItemMeta{Label: spec.Label(i)}}
	}
	b := newBooster(t, Config{
		BatchSize: 4, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
		Cache: CacheConfig{RAMBytes: 1 << 20},
	})
	results := drainAll(t, b)
	if err := b.RunEpoch(CollectorFromItems(items)); err != nil {
		t.Fatal(err)
	}
	if !b.CacheComplete() || b.CachedBatches() != 3 {
		t.Fatalf("cache: complete=%v batches=%d", b.CacheComplete(), b.CachedBatches())
	}
	// Epoch 2 from cache: no decoder work.
	_, huffBefore, _, _ := b.Device().Stats()
	if err := b.ReplayCache(); err != nil {
		t.Fatal(err)
	}
	_, huffAfter, _, _ := b.Device().Stats()
	if huffAfter.Jobs != huffBefore.Jobs {
		t.Fatal("cache replay touched the decoder")
	}
	b.CloseBatches()
	all := <-results
	if len(all) != 6 {
		t.Fatalf("total batches = %d (epoch1 3 + epoch2 3)", len(all))
	}
	// Replayed content equals first-epoch content.
	for i := 0; i < 3; i++ {
		for s := range all[i].pixels {
			a, c := all[i].pixels[s], all[i+3].pixels[s]
			for j := range a {
				if a[j] != c[j] {
					t.Fatalf("replayed batch %d slot %d differs", i, s)
				}
			}
			if all[i].metas[s].Label != all[i+3].metas[s].Label {
				t.Fatal("replayed labels differ")
			}
		}
	}
	if b.Images() != 24 {
		t.Fatalf("Images = %d (12 decoded + 12 replayed)", b.Images())
	}
}

func TestCacheOverflowDisablesReplay(t *testing.T) {
	spec := dataset.MNISTLike(8)
	items := make([]Item, spec.Count)
	for i := range items {
		items[i] = Item{Ref: fpga.DataRef{Inline: mustJPEG(t, spec, i)}}
	}
	b := newBooster(t, Config{
		BatchSize: 2, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
		Cache: CacheConfig{RAMBytes: 3 * 28 * 28}, // fits one 2-image batch, not the epoch
	})
	results := drainAll(t, b)
	if err := b.RunEpoch(CollectorFromItems(items)); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	<-results
	if b.CacheComplete() {
		t.Fatal("overflowing cache reported complete")
	}
	if err := b.ReplayCache(); !errors.Is(err, ErrCacheUnavailable) {
		t.Fatalf("ReplayCache = %v, want ErrCacheUnavailable", err)
	}
}

func TestReplayWithoutCacheFails(t *testing.T) {
	b := newBooster(t, Config{BatchSize: 2, OutW: 8, OutH: 8, Channels: 1, PoolBatches: 2})
	if err := b.ReplayCache(); !errors.Is(err, ErrCacheUnavailable) {
		t.Fatalf("ReplayCache = %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{BatchSize: 0, OutW: 8, OutH: 8, Channels: 1},
		{BatchSize: 1, OutW: 0, OutH: 8, Channels: 1},
		{BatchSize: 1, OutW: 8, OutH: 8, Channels: 2},
		{BatchSize: 1, OutW: 8, OutH: 8, Channels: 1, PoolBatches: 1},
		{BatchSize: 1, OutW: 8, OutH: 8, Channels: 1, Mirror: "nope"},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRunEpochNilCollector(t *testing.T) {
	b := newBooster(t, Config{BatchSize: 2, OutW: 8, OutH: 8, Channels: 1, PoolBatches: 2})
	if err := b.RunEpoch(nil); err == nil {
		t.Fatal("nil collector accepted")
	}
}

func TestBackpressurePausesReader(t *testing.T) {
	// With nobody draining, the reader must park on the pool once all
	// buffers are sealed/in flight — and resume when a consumer appears.
	spec := dataset.MNISTLike(20)
	items := make([]Item, spec.Count)
	for i := range items {
		items[i] = Item{Ref: fpga.DataRef{Inline: mustJPEG(t, spec, i)}}
	}
	b := newBooster(t, Config{BatchSize: 2, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 2})
	done := make(chan error, 1)
	go func() { done <- b.RunEpoch(CollectorFromItems(items)) }()
	select {
	case err := <-done:
		t.Fatalf("RunEpoch returned without a consumer: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	results := drainAll(t, b)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader did not resume after consumer started")
	}
	b.CloseBatches()
	all := <-results
	if len(all) != 10 {
		t.Fatalf("batches = %d", len(all))
	}
}

func TestCollectorsValidation(t *testing.T) {
	if _, err := LoadFromDisk(nil, nil); err == nil {
		t.Fatal("nil device accepted")
	}
	if _, err := LoadFromDisk(nvme.New(nvme.Config{}), nil); err == nil {
		t.Fatal("empty manifest accepted")
	}
	if _, err := LoadFromNet(nil, 0); err == nil {
		t.Fatal("nil fabric accepted")
	}
	if _, err := LoadFromNet(nic.New(nic.Config{}), -1); err == nil {
		t.Fatal("negative limit accepted")
	}
}

func TestQueueCollector(t *testing.T) {
	q := newItemQueue(4)
	go func() {
		for i := 0; i < 3; i++ {
			_ = q.Push(Item{Meta: ItemMeta{Seq: i}})
		}
		q.Close()
	}()
	col := CollectorFromQueue(q)
	var seqs []int
	for {
		it, ok := col.Next()
		if !ok {
			break
		}
		seqs = append(seqs, it.Meta.Seq)
	}
	if len(seqs) != 3 || seqs[0] != 0 || seqs[2] != 2 {
		t.Fatalf("seqs = %v", seqs)
	}
}

func TestConcurrentEpochAndDrainStress(t *testing.T) {
	spec := dataset.MNISTLike(40)
	var payloads [][]byte
	for i := 0; i < spec.Count; i++ {
		payloads = append(payloads, mustJPEG(t, spec, i))
	}
	b := newBooster(t, Config{BatchSize: 8, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 2})
	var wg sync.WaitGroup
	results := drainAll(t, b)
	for epoch := 0; epoch < 3; epoch++ {
		items := make([]Item, len(payloads))
		for i, p := range payloads {
			items[i] = Item{Ref: fpga.DataRef{Inline: p}, Meta: ItemMeta{Seq: epoch*1000 + i}}
		}
		wg.Add(1)
		func() { // epochs are sequential; drain is concurrent
			defer wg.Done()
			if err := b.RunEpoch(CollectorFromItems(items)); err != nil {
				t.Errorf("epoch %d: %v", epoch, err)
			}
		}()
	}
	wg.Wait()
	b.CloseBatches()
	all := <-results
	if len(all) != 15 {
		t.Fatalf("batches = %d, want 15", len(all))
	}
	if b.Images() != 120 {
		t.Fatalf("Images = %d", b.Images())
	}
}

func newItemQueue(n int) *queue.Queue[Item] { return queue.New[Item](n) }

func TestMultiFPGADevices(t *testing.T) {
	spec := dataset.MNISTLike(32)
	items := make([]Item, spec.Count)
	for i := range items {
		items[i] = Item{Ref: fpga.DataRef{Inline: mustJPEG(t, spec, i)}, Meta: ItemMeta{Seq: i}}
	}
	b := newBooster(t, Config{
		BatchSize: 4, OutW: 28, OutH: 28, Channels: 1,
		PoolBatches: 4, FPGADevices: 3,
	})
	if len(b.Devices()) != 3 {
		t.Fatalf("devices = %d", len(b.Devices()))
	}
	results := drainAll(t, b)
	if err := b.RunEpoch(CollectorFromItems(items)); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	all := <-results
	seen := map[int]bool{}
	for _, d := range all {
		for s := 0; s < d.images; s++ {
			if !d.valid[s] {
				t.Fatalf("item %d invalid", d.metas[s].Seq)
			}
			seen[d.metas[s].Seq] = true
		}
	}
	if len(seen) != 32 {
		t.Fatalf("delivered %d distinct images", len(seen))
	}
	// Round-robin must spread work across every board.
	for i, dev := range b.Devices() {
		parser, _, _, _ := dev.Stats()
		if parser.Jobs == 0 {
			t.Fatalf("device %d received no commands", i)
		}
	}
	if b.Images() != 32 {
		t.Fatalf("Images = %d", b.Images())
	}
}

func TestMultiFPGAConfigValidation(t *testing.T) {
	if _, err := New(Config{BatchSize: 2, OutW: 8, OutH: 8, Channels: 1, FPGADevices: -1}); err == nil {
		t.Fatal("negative device count accepted")
	}
}

// TestStreamingStallPublishesInFlightBatches: with a paused streaming
// collector, a sealed batch whose FINISH signals arrive after the last
// item must still publish — the reader keeps draining completions while
// waiting (the online-server case the closed-loop paper never hits).
func TestStreamingStallPublishesInFlightBatches(t *testing.T) {
	spec := dataset.MNISTLike(4)
	b := newBooster(t, Config{BatchSize: 4, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 2})
	items := queue.New[Item](8)
	epochDone := make(chan error, 1)
	go func() { epochDone <- b.RunEpoch(CollectorFromQueue(items)) }()
	for i := 0; i < 4; i++ {
		_ = items.Push(Item{Ref: fpga.DataRef{Inline: mustJPEG(t, spec, i)}, Meta: ItemMeta{Seq: i}})
	}
	// No further items arrive; the queue stays open (stream paused).
	// The sealed batch must still appear.
	batch, ok, err := b.Batches().PopTimeout(5 * time.Second)
	if err != nil || !ok {
		t.Fatalf("batch did not publish during stream pause: ok=%v err=%v", ok, err)
	}
	if batch.Images != 4 || batch.ValidCount() != 4 {
		t.Fatalf("batch = %d images, %d valid", batch.Images, batch.ValidCount())
	}
	if err := b.RecycleBatch(batch); err != nil {
		t.Fatal(err)
	}
	items.Close()
	if err := <-epochDone; err != nil {
		t.Fatal(err)
	}
}
