package jpeg

import (
	"math"
	"math/rand"
	"testing"

	"dlbooster/internal/imageproc"
	"dlbooster/internal/pix"
)

// fullDecodeResize is the legacy reference path: full decode, then
// bilinear resize into a fresh target image.
func fullDecodeResize(t *testing.T, data []byte, dw, dh, c int) *pix.Image {
	t.Helper()
	img, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	dst := pix.New(dw, dh, c)
	if err := imageproc.ResizeInto(img, dst, imageproc.Bilinear); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestScaleFor(t *testing.T) {
	cases := []struct {
		w, h, dw, dh, want int
	}{
		{500, 375, 96, 96, 3},   // dlbench ILSVRC-like geometry: 188×141
		{500, 375, 224, 224, 5}, // the paper's geometry: 313×235
		{500, 375, 94, 94, 2},   // 2/8 of 375 covers 94 exactly
		{512, 512, 64, 64, 1},   // exact 1/8
		{512, 512, 65, 64, 2},   // one pixel over the 1/8 grid
		{448, 448, 224, 224, 4}, // the paper's training target
		{512, 512, 384, 384, 6}, // exact 6/8
		{100, 80, 64, 64, 7},    // 7/8 gives 88×70
		{100, 80, 90, 72, 8},    // taller than 7/8 of the source
		{28, 28, 28, 28, 8},     // same-size: full decode
		{16, 16, 200, 200, 8},   // upscale: full decode
		{500, 375, 0, 0, 8},     // no target known
	}
	for _, c := range cases {
		if got := ScaleFor(c.w, c.h, c.dw, c.dh); got != c.want {
			t.Errorf("ScaleFor(%d,%d → %d,%d) = %d, want %d", c.w, c.h, c.dw, c.dh, got, c.want)
		}
		// The chosen scale must actually cover the target, and the next
		// smaller one must not.
		if c.dw > 0 {
			sw, sh := ScaledSize(c.w, c.h, c.want)
			if c.want < 8 && (sw < c.dw || sh < c.dh) {
				t.Errorf("scale %d output %dx%d does not cover %dx%d", c.want, sw, sh, c.dw, c.dh)
			}
			if sw, sh := ScaledSize(c.w, c.h, c.want-1); c.want > 1 && sw >= c.dw && sh >= c.dh {
				t.Errorf("scale %d output %dx%d already covers %dx%d", c.want-1, sw, sh, c.dw, c.dh)
			}
		}
	}
}

// TestScaledDCOnlyExact: a flat (DC-only) image must reconstruct
// bit-identically at every scale — the scaled basis keeps the 8-point DC
// normalisation.
func TestScaledDCOnlyExact(t *testing.T) {
	img := pix.New(64, 64, 3)
	for i := range img.Pix {
		img.Pix[i] = 180
	}
	data, err := Encode(img, EncodeOptions{Quality: 90})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{8, 16, 32, 64} {
		want := fullDecodeResize(t, data, target, target, 3)
		got := pix.New(target, target, 3)
		if _, err := DecodeScaledInto(data, got, nil); err != nil {
			t.Fatal(err)
		}
		if d, _ := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("target %d: DC-only image differs by %d", target, d)
		}
	}
}

// TestScaledParityPSNR: the scaled path must stay within a tight PSNR of
// the full-decode-then-resize reference across chroma layouts. The two
// paths drop different information (frequency truncation vs bilinear
// averaging), so they are not bit-equal — but on natural-image content
// they must agree closely.
func TestScaledParityPSNR(t *testing.T) {
	cases := []struct {
		name string
		c    int
		opt  EncodeOptions
	}{
		{"444", 3, EncodeOptions{Quality: 90}},
		{"422", 3, EncodeOptions{Quality: 90, Subsample422: true}},
		{"420", 3, EncodeOptions{Quality: 90, Subsample420: true}},
		{"gray", 1, EncodeOptions{Quality: 90}},
	}
	sizes := []struct {
		w, h, dw, dh int
	}{
		{448, 448, 224, 224}, // s=4, the paper's training shape
		{500, 375, 96, 96},   // s=4, the dlbench shape
		{512, 512, 100, 100}, // s=2
		{512, 512, 60, 60},   // s=1 (DC-only)
		{300, 200, 150, 100}, // s=4 with non-square aspect
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			for _, g := range sizes {
				img := smoothImage(g.w, g.h, cse.c, int64(g.w*7919+g.h))
				data, err := Encode(img, cse.opt)
				if err != nil {
					t.Fatal(err)
				}
				want := fullDecodeResize(t, data, g.dw, g.dh, cse.c)
				got := pix.New(g.dw, g.dh, cse.c)
				scale, err := DecodeScaledInto(data, got, nil)
				if err != nil {
					t.Fatal(err)
				}
				if scale >= 8 {
					t.Fatalf("%dx%d→%dx%d: expected a scaled decode, got scale %d", g.w, g.h, g.dw, g.dh, scale)
				}
				p, err := got.PSNR(want)
				if err != nil {
					t.Fatal(err)
				}
				// s=1 keeps only block means; anything finer must be
				// much closer to the reference.
				min := 36.0
				if scale == 1 {
					min = 30.0
				}
				if p < min {
					t.Errorf("%dx%d→%dx%d scale %d: PSNR %.1f dB vs full path, want >= %.0f", g.w, g.h, g.dw, g.dh, scale, p, min)
				}
			}
		})
	}
}

// TestScaledFallbackExactParity: whenever the fast path does not engage
// (same-size targets, upscales, progressive streams), DecodeScaledInto
// must be byte-identical to the legacy Decode + ResizeInto path.
func TestScaledFallbackExactParity(t *testing.T) {
	t.Run("same-size", func(t *testing.T) {
		img := smoothImage(100, 80, 3, 42)
		data, err := Encode(img, EncodeOptions{Quality: 88, Subsample420: true})
		if err != nil {
			t.Fatal(err)
		}
		want := fullDecodeResize(t, data, 100, 80, 3)
		got := pix.New(100, 80, 3)
		scale, err := DecodeScaledInto(data, got, nil)
		if err != nil {
			t.Fatal(err)
		}
		if scale != 8 {
			t.Fatalf("scale = %d, want 8", scale)
		}
		if d, _ := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("same-size fallback differs by %d", d)
		}
	})
	t.Run("downscale-above-half", func(t *testing.T) {
		// 100×80 → 90×72 needs more than 7/8 of the source columns, so
		// the residual bilinear runs from the full-resolution image.
		img := smoothImage(100, 80, 3, 43)
		data, err := Encode(img, EncodeOptions{Quality: 88})
		if err != nil {
			t.Fatal(err)
		}
		want := fullDecodeResize(t, data, 90, 72, 3)
		got := pix.New(90, 72, 3)
		scale, err := DecodeScaledInto(data, got, nil)
		if err != nil {
			t.Fatal(err)
		}
		if scale != 8 {
			t.Fatalf("scale = %d, want 8", scale)
		}
		if d, _ := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("full-scale fallback differs by %d", d)
		}
	})
	t.Run("progressive", func(t *testing.T) {
		img := smoothImage(128, 96, 3, 44)
		data, err := EncodeProgressive(img, EncodeOptions{Quality: 88, Subsample420: true})
		if err != nil {
			t.Fatal(err)
		}
		want := fullDecodeResize(t, data, 32, 32, 3)
		got := pix.New(32, 32, 3)
		scale, err := DecodeScaledInto(data, got, nil)
		if err != nil {
			t.Fatal(err)
		}
		if scale != 8 {
			t.Fatalf("scale = %d, want 8", scale)
		}
		if d, _ := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("progressive fallback differs by %d", d)
		}
	})
	t.Run("channel-mismatch", func(t *testing.T) {
		img := smoothImage(64, 64, 1, 45)
		data, err := Encode(img, EncodeOptions{Quality: 88})
		if err != nil {
			t.Fatal(err)
		}
		dst := pix.New(16, 16, 3)
		if _, err := DecodeScaledInto(data, dst, nil); err != ErrChannelMismatch {
			t.Fatalf("err = %v, want ErrChannelMismatch", err)
		}
	})
}

// TestReconstructScaledMatchesDecodeScaledInto pins the staged form the
// FPGA mirror uses (EntropyDecode → ReconstructScaled → resize) to the
// fused single-call form, byte for byte.
func TestReconstructScaledMatchesDecodeScaledInto(t *testing.T) {
	img := smoothImage(500, 375, 3, 46)
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
	scaled, scale, err := co.ReconstructScaled(96, 96)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 3 {
		t.Fatalf("scale = %d, want 3", scale)
	}
	staged := pix.New(96, 96, 3)
	if err := imageproc.ResizeInto(scaled, staged, imageproc.Bilinear); err != nil {
		t.Fatal(err)
	}
	fused := pix.New(96, 96, 3)
	if _, err := DecodeScaledInto(data, fused, nil); err != nil {
		t.Fatal(err)
	}
	if d, _ := fused.MaxAbsDiff(staged); d != 0 {
		t.Errorf("staged and fused paths differ by %d", d)
	}
}

// TestReconstructScaledFullScaleMatchesToImage pins the s=8 branch of
// ReconstructScaled to the legacy Reconstruct + ToImage output.
func TestReconstructScaledFullScaleMatchesToImage(t *testing.T) {
	img := smoothImage(100, 80, 3, 47)
	data, err := Encode(img, EncodeOptions{Quality: 88, Subsample420: true})
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
	scaled, scale, err := co.ReconstructScaled(100, 80)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 8 {
		t.Fatalf("scale = %d, want 8", scale)
	}
	p, err := co.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	want := p.ToImage()
	if d, _ := scaled.MaxAbsDiff(want); d != 0 {
		t.Errorf("full-scale ReconstructScaled differs from ToImage by %d", d)
	}
}

// TestScratchReuseAcrossGeometries: one Scratch must serve decodes of
// different geometries, layouts and scales back to back.
func TestScratchReuseAcrossGeometries(t *testing.T) {
	var sc Scratch
	cases := []struct {
		w, h, c, dw, dh int
		opt             EncodeOptions
	}{
		{500, 375, 3, 96, 96, DefaultEncodeOptions()},
		{64, 64, 1, 16, 16, EncodeOptions{Quality: 90}},
		{100, 80, 3, 100, 80, EncodeOptions{Quality: 90, Subsample422: true}},
		{512, 512, 3, 60, 60, EncodeOptions{Quality: 90}},
		{500, 375, 3, 96, 96, DefaultEncodeOptions()},
	}
	for i, cse := range cases {
		img := smoothImage(cse.w, cse.h, cse.c, int64(100+i))
		data, err := Encode(img, cse.opt)
		if err != nil {
			t.Fatal(err)
		}
		want := fullDecodeResize(t, data, cse.dw, cse.dh, cse.c)
		got := pix.New(cse.dw, cse.dh, cse.c)
		if _, err := DecodeScaledInto(data, got, &sc); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		p, err := got.PSNR(want)
		if err != nil {
			t.Fatal(err)
		}
		if p < 30 {
			t.Errorf("case %d: PSNR %.1f dB after scratch reuse", i, p)
		}
	}
}

// TestDecodeScaledIntoZeroAllocs pins the steady-state allocation count
// of the scaled fast path at exactly zero per image, and bounds the
// legacy path — the GC-pressure half of the decode-to-scale change. It
// is wired into the CI flaky-guard under -race.
func TestDecodeScaledIntoZeroAllocs(t *testing.T) {
	img := smoothImage(500, 375, 3, 48)
	data, err := Encode(img, DefaultEncodeOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	dst := pix.New(96, 96, 3)
	// Warm the scratch buffers once.
	if _, err := DecodeScaledInto(data, dst, &sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeScaledInto(data, dst, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("scaled path: %.1f allocs per decode, want 0", allocs)
	}
	// The legacy path allocates per image (header, tables, grids, planes,
	// full-res image); pin a generous bound so a regression that starts
	// allocating per pixel or per block is still caught.
	legacy := testing.AllocsPerRun(5, func() {
		full, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := imageproc.ResizeInto(full, dst, imageproc.Bilinear); err != nil {
			t.Fatal(err)
		}
	})
	if legacy > 64 {
		t.Errorf("legacy path: %.1f allocs per decode, want <= 64", legacy)
	}
}

// TestScaledBasisDCNormalisation pins the scaled basis maths: at every
// scale N = 1…8 the DC basis product must be exactly 1/8, and each basis
// row must match the full 8-point basis sampled at tile centres.
func TestScaledBasisDCNormalisation(t *testing.T) {
	for s := 1; s <= 8; s++ {
		dc := scaledBasis[s][0][0] * scaledBasis[s][0][0]
		if math.Abs(dc-1.0/8.0) > 1e-12 {
			t.Errorf("scale %d: DC product %.15f, want 0.125", s, dc)
		}
		for u := 0; u < s; u++ {
			for x := 0; x < s; x++ {
				// Full basis at the tile-centre coordinate: 2X+1 = (2x+1)·8/s.
				alpha := 1.0
				if u == 0 {
					alpha = 1 / math.Sqrt2
				}
				want := alpha / 2 * math.Cos(float64(2*x+1)*8/float64(s)*float64(u)*math.Pi/16)
				if math.Abs(scaledBasis[s][u][x]-want) > 1e-12 {
					t.Errorf("scale %d basis[%d][%d] = %v, want %v", s, u, x, scaledBasis[s][u][x], want)
				}
			}
		}
	}
}

// ilsvrcLikeImage mirrors the dataset package's ILSVRC-like synthesis at
// 500×375: a low-frequency sinusoid, ±8 per-pixel noise shared by the
// channels, and a per-channel colour ripple — the bench corpus's content.
func ilsvrcLikeImage(seed int64) *pix.Image {
	const w, h = 500, 375
	rng := rand.New(rand.NewSource(seed))
	img := pix.New(w, h, 3)
	fx, fy, phase := 1+rng.Float64()*2, 1+rng.Float64()*2, rng.Float64()*2*math.Pi
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			wx, wy := float64(x)/w, float64(y)/h
			base := 128 + 90*math.Sin(fx*math.Pi*wx+phase)*math.Cos(fy*math.Pi*wy)
			noise := float64(rng.Intn(16) - 8)
			for ch := 0; ch < 3; ch++ {
				v := base + noise + 12*float64(ch)*math.Sin(3*math.Pi*wx+float64(ch))
				img.Set(x, y, ch, clamp8(int32(v)))
			}
		}
	}
	return img
}

// areaTap is one source index and its weight in a destination sample.
type areaTap struct {
	i int
	w float64
}

// areaTaps splits n source samples over m destination samples: each
// destination sample covers n/m source samples, and a partly covered
// source sample weighs by its overlap.
func areaTaps(n, m int) [][]areaTap {
	scale := float64(n) / float64(m)
	taps := make([][]areaTap, m)
	for j := range taps {
		lo, hi := float64(j)*scale, float64(j+1)*scale
		for i := int(lo); i < n && float64(i) < hi; i++ {
			if ov := math.Min(hi, float64(i+1)) - math.Max(lo, float64(i)); ov > 0 {
				taps[j] = append(taps[j], areaTap{i, ov / scale})
			}
		}
	}
	return taps
}

// areaDownscale is the exact area-average downscale: every destination
// pixel is the mean of the source area it covers. It is the alias-free
// reference the decode-to-scale paths are measured against.
func areaDownscale(src *pix.Image, dw, dh int) *pix.Image {
	tx, ty := areaTaps(src.W, dw), areaTaps(src.H, dh)
	dst := pix.New(dw, dh, src.C)
	for y := 0; y < dh; y++ {
		for x := 0; x < dw; x++ {
			for ch := 0; ch < src.C; ch++ {
				var s float64
				for _, ry := range ty[y] {
					for _, rx := range tx[x] {
						s += ry.w * rx.w * float64(src.At(rx.i, ry.i, ch))
					}
				}
				dst.Set(x, y, ch, clamp8(int32(math.Round(s))))
			}
		}
	}
	return dst
}

// decodeAtScaleBilinear is a decode pinned to iDCT scale s whatever the
// target, then the residual bilinear resize to dw×dh: the path ScaleFor
// took before it knew the scales 3, 5, 6 and 7.
func decodeAtScaleBilinear(t *testing.T, data []byte, s, dw, dh int) *pix.Image {
	t.Helper()
	h, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	co, err := h.EntropyDecode()
	if err != nil {
		t.Fatal(err)
	}
	var p Planes
	if err := co.reconstructInto(&p, s); err != nil {
		t.Fatal(err)
	}
	sw, sh := ScaledSize(h.Width, h.Height, s)
	img := pix.New(sw, sh, 3)
	p.renderInto(img)
	dst := pix.New(dw, dh, 3)
	if err := imageproc.ResizeInto(img, dst, imageproc.Bilinear); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestNearestScaleAliasesLess measures both training geometries of an
// ILSVRC-like 500×375 4:2:0 image against a full decode followed by an
// exact area-average downscale: the nearest N/8 scale (5/8 for 224, 3/8
// for 96) must come at least as close as the scale it replaced (8/8 and
// 4/8, each followed by the bilinear resize), and never below 30 dB.
func TestNearestScaleAliasesLess(t *testing.T) {
	data, err := Encode(ilsvrcLikeImage(2012), DefaultEncodeOptions())
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ dst, scale, oldScale int }{{224, 5, 8}, {96, 3, 4}} {
		ref := areaDownscale(full, c.dst, c.dst)
		got := pix.New(c.dst, c.dst, 3)
		scale, err := DecodeScaledInto(data, got, nil)
		if err != nil {
			t.Fatal(err)
		}
		if scale != c.scale {
			t.Fatalf("500×375→%d decoded at scale %d, want %d", c.dst, scale, c.scale)
		}
		pNew, err := got.PSNR(ref)
		if err != nil {
			t.Fatal(err)
		}
		pOld, err := decodeAtScaleBilinear(t, data, c.oldScale, c.dst, c.dst).PSNR(ref)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("500×375→%d: scale %d/8 %.2f dB, scale %d/8 + bilinear %.2f dB against the area average", c.dst, c.scale, pNew, c.oldScale, pOld)
		if pNew < pOld-0.5 || pNew < 30 {
			t.Errorf("500×375→%d: scale %d/8 reads %.2f dB, want ≥ 30 and ≥ %.2f (scale %d/8) − 0.5", c.dst, c.scale, pNew, pOld, c.oldScale)
		}
	}
}
