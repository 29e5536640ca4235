package jpeg

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"dlbooster/internal/imageproc"
	"dlbooster/internal/pix"
)

// dequantize multiplies levels back into coefficient magnitudes.
func dequantize(levels *block, q *QuantTable, out *block) {
	for i := range levels {
		out[i] = levels[i] * int32(q[i])
	}
}

// roundHalfAway rounds a float transform's sum to the nearest integer,
// halves away from zero. A sum within 1e-9 of a half is taken as that
// half: at N = 1 and 2 every basis product is ±1/8, so a sum lands on an
// exact half for one sample in eight, and the float sums miss it by an
// ulp either way — math.Round alone split 865 of 5 059 such halves the
// wrong way on 10 000 IEEE 1180 blocks at N = 2.
func roundHalfAway(s float64) int32 {
	if t := math.Trunc(s); math.Abs(math.Abs(s-t)-0.5) < 1e-9 {
		return int32(t + math.Copysign(1, s))
	}
	return int32(math.Round(s))
}

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
			out[x*8+y] = clamp8(roundHalfAway(s) + 128)
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
			out[x*s+y] = clamp8(roundHalfAway(sum) + 128)
		}
	}
}

// tileFunc reconstructs one block at scale s into dst (row x at
// dst[x*stride:]): idctScaledFast's shape.
type tileFunc func(blk *block, q *QuantTable, s int, dst []byte, stride int)

// floatTile is the float reference transform as a tileFunc: idct at
// s = 8, idctScaled below.
func floatTile(blk *block, q *QuantTable, s int, dst []byte, stride int) {
	var tile [64]byte
	if s == 8 {
		var deq block
		dequantize(blk, q, &deq)
		idct(&deq, &tile)
	} else {
		idctScaled(blk, q, s, &tile)
	}
	for y := 0; y < s; y++ {
		copy(dst[y*stride:], tile[y*s:y*s+s])
	}
}

// referenceRender reconstructs co at scale s block by block through
// tile, then converts colour through ycbcrRowScalar, with plain
// per-image buffers. With idctScaledFast it is the oracle the decoder
// must match byte for byte; with floatTile it is the float render the
// integer iDCT is measured against.
func referenceRender(co *Coefficients, s int, tile tileFunc) *pix.Image {
	h := co.hdr
	planes := make([][]byte, len(h.Components))
	strides := make([]int, len(h.Components))
	for i, c := range h.Components {
		q := &h.quant[c.QuantID]
		stride := co.blocksX[i] * s
		plane := make([]byte, stride*co.blocksY[i]*s)
		for by := 0; by < co.blocksY[i]; by++ {
			for bx := 0; bx < co.blocksX[i]; bx++ {
				tile(&co.comp[i][by*co.blocksX[i]+bx], q, s, plane[by*s*stride+bx*s:], stride)
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

// minFloatPSNR bounds a whole decode through the integer iDCT against
// the same decode through the float one.
const minFloatPSNR = 55.0

// checkFloatPSNR fails the test when got is further than minFloatPSNR
// from the float render want.
func checkFloatPSNR(t *testing.T, label string, got, want *pix.Image) {
	t.Helper()
	p, err := got.PSNR(want)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if p < minFloatPSNR {
		t.Errorf("%s: PSNR %.1f dB against the float iDCT render, want ≥ %.0f", label, p, minFloatPSNR)
	}
}

// TestKernelGoldenCorpusByteParity pins whole decodes: for every
// golden-corpus stream and DRI fixture, at each iDCT scale,
// ReconstructScaledInto must equal referenceRender through the
// per-block kernel, and DecodeScaledInto must equal it after
// imageproc.ResizeBilinearScalar, byte for byte — so plane assembly,
// colour conversion and resize are checked exactly. Each scale is
// reached twice: at exactly the scaled size (no residual resize) and one
// pixel short of it in each dimension (a real resize). Both decodes must
// also stay within minFloatPSNR of the same render through the float
// iDCT.
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
			want := referenceRender(co, s, idctScaledFast)
			wantFloat := referenceRender(co, s, floatTile)
			var pl Planes
			got := new(pix.Image)
			gotScale, err := co.ReconstructScaledInto(&pl, got, want.W, want.H)
			if err != nil {
				t.Fatalf("%s scale %d: ReconstructScaledInto: %v", name, s, err)
			}
			if gotScale != s || !bytes.Equal(got.Pix, want.Pix) {
				t.Errorf("%s scale %d: ReconstructScaledInto (scale %d) differs from the reference render", name, s, gotScale)
			}
			for _, short := range []int{0, 1} {
				dw, dh := max(want.W-short, 1), max(want.H-short, 1)
				ref, refFloat := want, wantFloat
				if short > 0 {
					ref, refFloat = pix.New(dw, dh, want.C), pix.New(dw, dh, want.C)
					imageproc.ResizeBilinearScalar(want, ref)
					imageproc.ResizeBilinearScalar(wantFloat, refFloat)
				}
				dst := pix.New(dw, dh, want.C)
				scale, err := DecodeScaledInto(data, dst, &sc)
				if err != nil {
					t.Fatalf("%s→%dx%d: DecodeScaledInto: %v", name, dw, dh, err)
				}
				if scale != s || !bytes.Equal(dst.Pix, ref.Pix) {
					t.Errorf("%s→%dx%d: DecodeScaledInto (scale %d) differs from the reference render at scale %d", name, dw, dh, scale, s)
				}
				checkFloatPSNR(t, fmt.Sprintf("%s→%dx%d", name, dw, dh), dst, refFloat)
			}
		}
	}
}

// TestKernelKillSwitchFullPipeline runs the whole decode-then-resize
// pipeline — Decode at full size, then imageproc.ResizeInto with the
// bilinear filter — and checks it byte for byte against referenceRender
// through the per-block kernel followed by imageproc.ResizeBilinearScalar,
// and within minFloatPSNR of the same pipeline through the float iDCT.
// The source is an odd-sized encoded image, so partial MCUs and a real
// downscale are both exercised.
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
	wantFull := referenceRender(co, 8, idctScaledFast)
	floatFull := referenceRender(co, 8, floatTile)
	full, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Pix, wantFull.Pix) {
		t.Fatal("full decode differs from the reference render")
	}
	checkFloatPSNR(t, "full decode", full, floatFull)
	want, wantFloat := pix.New(96, 96, 3), pix.New(96, 96, 3)
	imageproc.ResizeBilinearScalar(wantFull, want)
	imageproc.ResizeBilinearScalar(floatFull, wantFloat)
	got := pix.New(96, 96, 3)
	if err := imageproc.ResizeInto(full, got, imageproc.Bilinear); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Error("full pipeline output differs from the reference render")
	}
	checkFloatPSNR(t, "full pipeline", got, wantFloat)
}
