package jpeg

import (
	"bytes"
	"math"
	"testing"

	"dlbooster/internal/imageproc"
	"dlbooster/internal/pix"
)

// idct transforms dequantised coefficients into level-shifted 8-bit
// samples, clamping to [0, 255].
func idct(coef *block, out *[64]byte) {
	var tmp [64]float64
	// Columns: tmp[x][v] = Σ_u basis[u][x] · coef[u][v]
	for v := 0; v < 8; v++ {
		for x := 0; x < 8; x++ {
			var s float64
			for u := 0; u < 8; u++ {
				s += cosBasis[u][x] * float64(coef[u*8+v])
			}
			tmp[x*8+v] = s
		}
	}
	// Rows: sample[x][y] = Σ_v basis[v][y] · tmp[x][v]
	for x := 0; x < 8; x++ {
		row := tmp[x*8 : x*8+8 : x*8+8]
		for y := 0; y < 8; y++ {
			var s float64
			for v := 0; v < 8; v++ {
				s += cosBasis[v][y] * row[v]
			}
			out[x*8+y] = clamp8(int32(math.Round(s)) + 128)
		}
	}
}

// idctScaled dequantises the s² low-frequency coefficients of blk and
// inverse-transforms them into an s×s tile (row-major in out), for
// s = 1…7. Higher-frequency coefficients are dropped — they cannot
// survive the downsample the caller is about to perform anyway.
func idctScaled(blk *block, q *QuantTable, s int, out *[64]byte) {
	b := &scaledBasis[s]
	var tmp [64]float64
	// Columns: tmp[x*s+v] = Σ_u basis[u][x] · coef[u][v]
	for v := 0; v < s; v++ {
		for x := 0; x < s; x++ {
			var sum float64
			for u := 0; u < s; u++ {
				sum += b[u][x] * float64(blk[u*8+v]*int32(q[u*8+v]))
			}
			tmp[x*s+v] = sum
		}
	}
	// Rows: tile[x][y] = Σ_v basis[v][y] · tmp[x*s+v]
	for x := 0; x < s; x++ {
		for y := 0; y < s; y++ {
			var sum float64
			for v := 0; v < s; v++ {
				sum += b[v][y] * tmp[x*s+v]
			}
			out[x*s+y] = clamp8(int32(math.Round(sum)) + 128)
		}
	}
}

// referenceRender reconstructs co at scale s through the reference
// kernels only — idct (s == 8) or idctScaled, then ycbcrRowScalar — with
// plain per-image buffers. It is the oracle the decoder's fast kernels
// must match byte for byte.
func referenceRender(co *Coefficients, s int) *pix.Image {
	h := co.hdr
	planes := make([][]byte, len(h.Components))
	strides := make([]int, len(h.Components))
	for i, c := range h.Components {
		q := &h.quant[c.QuantID]
		stride := co.blocksX[i] * s
		plane := make([]byte, stride*co.blocksY[i]*s)
		for by := 0; by < co.blocksY[i]; by++ {
			for bx := 0; bx < co.blocksX[i]; bx++ {
				blk := &co.comp[i][by*co.blocksX[i]+bx]
				var tile [64]byte
				if s == 8 {
					var deq block
					dequantize(blk, q, &deq)
					idct(&deq, &tile)
				} else {
					idctScaled(blk, q, s, &tile)
				}
				for y := 0; y < s; y++ {
					copy(plane[(by*s+y)*stride+bx*s:], tile[y*s:y*s+s])
				}
			}
		}
		planes[i], strides[i] = plane, stride
	}
	sw, sh := ScaledSize(h.Width, h.Height, s)
	if len(h.Components) == 1 {
		img := pix.New(sw, sh, 1)
		for y := 0; y < sh; y++ {
			copy(img.Pix[y*sw:(y+1)*sw], planes[0][y*strides[0]:])
		}
		return img
	}
	var shx, shy [3]uint
	for i, c := range h.Components {
		if h.hMax/c.H == 2 {
			shx[i] = 1
		}
		if h.vMax/c.V == 2 {
			shy[i] = 1
		}
	}
	img := pix.New(sw, sh, 3)
	for y := 0; y < sh; y++ {
		row := func(i int) []byte { return planes[i][(y>>shy[i])*strides[i]:] }
		ycbcrRowScalar(img.Pix[y*sw*3:(y+1)*sw*3], row(0), row(1), row(2), sw, shx)
	}
	return img
}

// TestKernelGoldenCorpusByteParity pins whole decodes to the reference
// kernels: for every golden-corpus stream and DRI fixture, at each iDCT
// scale, ReconstructScaledInto must equal the reference render, and
// DecodeScaledInto must equal it after imageproc.ResizeBilinearScalar.
// Each scale is reached twice — at exactly the scaled size (no residual
// resize) and one pixel short of it in each dimension (a real resize).
func TestKernelGoldenCorpusByteParity(t *testing.T) {
	streams := goldenCorpus(t)
	for name, data := range driFixtures(t) {
		streams[name] = data
	}
	for name, data := range streams {
		h, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		co, err := h.EntropyDecode()
		if err != nil {
			t.Fatalf("%s: entropy decode: %v", name, err)
		}
		var sc Scratch
		for s := 1; s <= 8; s++ {
			want := referenceRender(co, s)
			var pl Planes
			got := new(pix.Image)
			gotScale, err := co.ReconstructScaledInto(&pl, got, want.W, want.H)
			if err != nil {
				t.Fatalf("%s scale %d: ReconstructScaledInto: %v", name, s, err)
			}
			if gotScale != s || !bytes.Equal(got.Pix, want.Pix) {
				t.Errorf("%s scale %d: ReconstructScaledInto (scale %d) differs from the reference kernels", name, s, gotScale)
			}
			for _, short := range []int{0, 1} {
				dw, dh := max(want.W-short, 1), max(want.H-short, 1)
				ref := want
				if short > 0 {
					ref = pix.New(dw, dh, want.C)
					imageproc.ResizeBilinearScalar(want, ref)
				}
				dst := pix.New(dw, dh, want.C)
				scale, err := DecodeScaledInto(data, dst, &sc)
				if err != nil {
					t.Fatalf("%s→%dx%d: DecodeScaledInto: %v", name, dw, dh, err)
				}
				if scale != s || !bytes.Equal(dst.Pix, ref.Pix) {
					t.Errorf("%s→%dx%d: DecodeScaledInto (scale %d) differs from the reference kernels at scale %d", name, dw, dh, scale, s)
				}
			}
		}
	}
}

// TestKernelKillSwitchFullPipeline runs the whole decode-then-resize
// pipeline — Decode at full size, then imageproc.ResizeInto with the
// bilinear filter — and checks it byte for byte against the reference
// kernels followed by imageproc.ResizeBilinearScalar. The source is an
// odd-sized encoded image, so partial MCUs and a real downscale are both
// exercised.
func TestKernelKillSwitchFullPipeline(t *testing.T) {
	img := smoothImage(333, 251, 3, 10)
	data, err := Encode(img, DefaultEncodeOptions())
	if err != nil {
		t.Fatal(err)
	}
	h, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	co, err := h.EntropyDecode()
	if err != nil {
		t.Fatal(err)
	}
	wantFull := referenceRender(co, 8)
	full, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Pix, wantFull.Pix) {
		t.Fatal("full decode differs from the reference kernels")
	}
	want := pix.New(96, 96, 3)
	imageproc.ResizeBilinearScalar(wantFull, want)
	got := pix.New(96, 96, 3)
	if err := imageproc.ResizeInto(full, got, imageproc.Bilinear); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Error("full pipeline output differs from the reference kernels")
	}
}
