package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dlbooster/internal/dataset"
	"dlbooster/internal/fpga"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/pix"
)

// cpuDecodeStreams returns, per channel count, payloads whose stage
// buffers differ in every dimension a reused one could leak through:
// frame size, subsampling, component count and restart intervals.
func cpuDecodeStreams(t *testing.T) map[int][][]byte {
	t.Helper()
	enc := func(img *pix.Image, opt jpeg.EncodeOptions) []byte {
		opt.Quality = 88
		data, err := jpeg.Encode(img, opt)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	rgb := dataset.Spec{Name: "rgb", Count: 3, C: 3, Classes: 10, Seed: 7}
	gray := dataset.Spec{Name: "gray", Count: 2, C: 1, Classes: 10, Seed: 8}
	sized := func(s dataset.Spec, w, h, i int) *pix.Image {
		s.W, s.H = w, h
		return s.Image(i)
	}
	return map[int][][]byte{
		3: {
			enc(sized(rgb, 500, 375, 0), jpeg.EncodeOptions{Subsample420: true}),
			enc(sized(rgb, 40, 24, 1), jpeg.EncodeOptions{}),
			enc(sized(rgb, 256, 192, 2), jpeg.EncodeOptions{Subsample420: true, RestartInterval: 16}),
		},
		1: {
			enc(sized(gray, 320, 200, 0), jpeg.EncodeOptions{}),
			enc(sized(gray, 64, 48, 1), jpeg.EncodeOptions{}),
		},
	}
}

// laneView is a Booster-geometry view of out, for calling the lanes'
// decode function directly.
func laneView(t *testing.T, b *Booster, out []byte) *pix.Image {
	t.Helper()
	dst, err := pix.View(b.cfg.OutW, b.cfg.OutH, b.cfg.Channels, out)
	if err != nil {
		t.Fatal(err)
	}
	return &dst
}

// TestCPUDecodeReuseParity interleaves the streams in shuffled orders
// through one Booster's host lane decode: each output must equal a
// decode that reused nothing (jpeg.DecodeScaledInto with a new Scratch).
func TestCPUDecodeReuseParity(t *testing.T) {
	for c, streams := range cpuDecodeStreams(t) {
		b := newBooster(t, Config{BatchSize: 1, OutW: 96, OutH: 96, Channels: c})
		want := make([][]byte, len(streams))
		for i, data := range streams {
			dst := pix.New(96, 96, c)
			if _, err := jpeg.DecodeScaledInto(data, dst, new(jpeg.Scratch)); err != nil {
				t.Fatal(err)
			}
			want[i] = dst.Pix
		}
		rng := rand.New(rand.NewSource(int64(c)))
		out := make([]byte, 96*96*c)
		dst := laneView(t, b, out)
		for i := 0; i < 40; i++ {
			k := rng.Intn(len(streams))
			if err := b.lanes.decode(0, fpga.DataRef{Inline: streams[k]}, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, want[k]) {
				t.Fatalf("%d channels: decode %d (stream %d) differs from a fresh decode", c, i, k)
			}
		}
		// A stream of the other channel count fails and must leave the
		// path as clean as it found it.
		if err := b.lanes.decode(0, fpga.DataRef{Inline: cpuDecodeStreams(t)[4-c][0]}, dst); err == nil {
			t.Fatalf("%d channels: stream of %d channels decoded", c, 4-c)
		}
		if err := b.lanes.decode(0, fpga.DataRef{Inline: streams[0]}, dst); err != nil || !bytes.Equal(out, want[0]) {
			t.Fatalf("%d channels: decode after a channel mismatch: %v", c, err)
		}
	}
}

// TestCPUDecodeSteadyStateAllocs pins the host lanes' decode (rescue,
// degraded and offload) at the board's bound: at most 2 heap objects and 1 KiB per image once
// warm.
func TestCPUDecodeSteadyStateAllocs(t *testing.T) {
	data := cpuDecodeStreams(t)[3][0]
	for _, size := range []int{96, 224, 480} { // iDCT scale 3, 5 and 8
		b := newBooster(t, Config{BatchSize: 1, OutW: size, OutH: size, Channels: 3})
		dst := laneView(t, b, make([]byte, size*size*3))
		ref := fpga.DataRef{Inline: data}
		if err := b.lanes.decode(0, ref, dst); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 32
		for i := 0; i < runs; i++ {
			if err := b.lanes.decode(0, ref, dst); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		objects := float64(after.Mallocs-before.Mallocs) / runs
		size := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if objects > 2 || size > 1024 {
			t.Errorf("%dpx: %.2f objects and %.0f bytes per decode, want at most 2 and 1024", b.cfg.OutW, objects, size)
		}
	}
}

// TestRunEpochSteadyStateAllocs pins the FPGAReader's own per-image cost:
// with the decoders' buffers warm, what an epoch allocates is per batch
// (the building record, the Batch and its slices, each made at its
// final size) plus the first fill of the slot reuse list — well under
// one object an image, where a slot per command, a slice per poll or a
// slice grown by append would add one. It holds with every decode on the
// boards (share 0) and with every decode on the host lanes (share 1).
func TestRunEpochSteadyStateAllocs(t *testing.T) {
	for _, share := range []float64{0, 1} {
		t.Run(fmt.Sprintf("share=%g", share), func(t *testing.T) {
			b := newBooster(t, Config{BatchSize: 32, OutW: 96, OutH: 96, Channels: 3, PoolBatches: 4})
			b.SetCPUShare(share)
			data := cpuDecodeStreams(t)[3][0]
			items := make([]Item, 512)
			for i := range items {
				items[i] = Item{Ref: fpga.DataRef{Inline: data}, Meta: ItemMeta{Seq: i}}
			}
			// The recycler must be done before the cleanup closes the
			// pool under it, so the test waits for it once the stream
			// is closed.
			recycled := make(chan struct{})
			defer func() { b.CloseBatches(); <-recycled }()
			go func() {
				defer close(recycled)
				for {
					batch, err := b.Batches().Pop()
					if err != nil {
						return
					}
					if err := b.RecycleBatch(batch); err != nil {
						t.Error(err)
					}
				}
			}()
			epoch := func() {
				if err := b.RunEpoch(CollectorFromItems(items)); err != nil {
					t.Fatal(err)
				}
			}
			epoch() // warm every worker's and every lane's decoder
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			epoch()
			runtime.ReadMemStats(&after)
			objects := float64(after.Mallocs-before.Mallocs) / float64(len(items))
			size := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(items))
			t.Logf("%.3f objects, %.0f bytes per image", objects, size)
			if objects > 0.5 || size > 1024 {
				t.Errorf("%.2f objects and %.0f bytes per image, want at most 0.5 and 1024", objects, size)
			}
		})
	}
}
