package imageproc

import (
	"bytes"
	"math/rand"
	"testing"

	"dlbooster/internal/pix"
)

func noiseImage(rng *rand.Rand, w, h, c int) *pix.Image {
	img := pix.New(w, h, c)
	rng.Read(img.Pix)
	return img
}

// TestResizeFastScalarByteParity pins the fast bilinear kernel to the
// scalar reference byte-for-byte across layouts, up/downscales and odd
// geometries — the contract that lets DecodeScaledInto fuse it without
// changing output.
func TestResizeFastScalarByteParity(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	geoms := []struct{ sw, sh, dw, dh int }{
		{512, 384, 96, 96},   // classic downscale
		{64, 48, 224, 224},   // upscale
		{251, 187, 97, 33},   // odd everything
		{96, 96, 96, 96},     // identity geometry
		{1, 1, 16, 16},       // single-pixel source
		{33, 7, 1, 1},        // single-pixel destination
		{500, 3, 129, 250},   // extreme aspect ratios
		{128, 128, 1024, 64}, // widest in-scope destination
	}
	for _, c := range []int{1, 3} {
		for _, g := range geoms {
			src := noiseImage(rng, g.sw, g.sh, c)
			fast := pix.New(g.dw, g.dh, c)
			ref := pix.New(g.dw, g.dh, c)
			if !resizeBilinearFast(src, fast) {
				t.Fatalf("c=%d %dx%d->%dx%d: fast kernel declined in-scope geometry", c, g.sw, g.sh, g.dw, g.dh)
			}
			ResizeBilinearScalar(src, ref)
			if !bytes.Equal(fast.Pix, ref.Pix) {
				t.Fatalf("c=%d %dx%d->%dx%d: fast kernel not byte-identical to scalar", c, g.sw, g.sh, g.dw, g.dh)
			}
		}
	}
}

// TestResizeFastScopeFallback checks the fast kernel refuses geometries
// outside its stack-table bound and layouts it has no unrolled loop for,
// and that the dispatching resizeBilinear still produces scalar output
// for them.
func TestResizeFastScopeFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(98))

	wide := noiseImage(rng, 64, 64, 3)
	dstWide := pix.New(maxFastResizeWidth+1, 32, 3)
	if resizeBilinearFast(wide, dstWide) {
		t.Fatalf("fast kernel accepted dst width %d beyond its %d-column tables", dstWide.W, maxFastResizeWidth)
	}
	for _, b := range dstWide.Pix {
		if b != 0 {
			t.Fatal("declined fast kernel wrote into dst")
		}
	}
	ref := pix.New(maxFastResizeWidth+1, 32, 3)
	ResizeBilinearScalar(wide, ref)
	resizeBilinear(wide, dstWide)
	if !bytes.Equal(dstWide.Pix, ref.Pix) {
		t.Fatal("dispatcher output diverged from scalar on out-of-scope width")
	}

	// pix.New rejects c=2, so build the off-layout image directly.
	twoCh := &pix.Image{W: 40, H: 40, C: 2, Pix: make([]byte, 40*40*2)}
	rng.Read(twoCh.Pix)
	dst2 := &pix.Image{W: 20, H: 20, C: 2, Pix: make([]byte, 20*20*2)}
	if resizeBilinearFast(twoCh, dst2) {
		t.Fatal("fast kernel accepted a 2-channel layout")
	}
}

func BenchmarkResizeBilinear(b *testing.B) {
	rng := rand.New(rand.NewSource(100))
	src := noiseImage(rng, 512, 384, 3)
	dst := pix.New(224, 224, 3)
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(dst.Pix)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !resizeBilinearFast(src, dst) {
				b.Fatal("fast kernel declined")
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(len(dst.Pix)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ResizeBilinearScalar(src, dst)
		}
	})
}
