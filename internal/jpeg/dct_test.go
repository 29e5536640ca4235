package jpeg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIDCTConstantBlock(t *testing.T) {
	// A DC-only coefficient block reconstructs to a flat sample block:
	// DC = (v-128)*8 for sample value v.
	var coef block
	coef[0] = (200 - 128) * 8
	var out [64]byte
	idct(&coef, &out)
	for i, s := range out {
		if d := int(s) - 200; d < -1 || d > 1 {
			t.Fatalf("sample %d = %d, want ~200", i, s)
		}
	}
}

func TestFDCTConstantBlock(t *testing.T) {
	var samples [64]byte
	for i := range samples {
		samples[i] = 77
	}
	var coef block
	fdct(&samples, &coef)
	if d := coef[0] - (77-128)*8; d < -1 || d > 1 {
		t.Fatalf("DC = %d, want ~%d", coef[0], (77-128)*8)
	}
	for i := 1; i < 64; i++ {
		if coef[i] != 0 {
			t.Fatalf("AC[%d] = %d, want 0", i, coef[i])
		}
	}
}

// TestDCTRoundTrip: idct(fdct(x)) reproduces x within rounding error.
func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var samples [64]byte
		for i := range samples {
			samples[i] = byte(rng.Intn(256))
		}
		var coef block
		fdct(&samples, &coef)
		var back [64]byte
		idct(&coef, &back)
		for i := range samples {
			d := int(samples[i]) - int(back[i])
			if d < -1 || d > 1 {
				t.Fatalf("trial %d sample %d: %d -> %d", trial, i, samples[i], back[i])
			}
		}
	}
}

// TestDCTRoundTripProperty is the quick-check form of the round trip on
// smooth blocks (random low-frequency content, the realistic case).
func TestDCTRoundTripProperty(t *testing.T) {
	f := func(dc uint8, gx, gy int8) bool {
		var samples [64]byte
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				v := int(dc) + int(gx)*x/8 + int(gy)*y/8
				samples[y*8+x] = clamp8(int32(v))
			}
		}
		var coef block
		fdct(&samples, &coef)
		var back [64]byte
		idct(&coef, &back)
		for i := range samples {
			// fdct rounds each coefficient to an integer, so the
			// round-trip error bound is the accumulated coefficient
			// rounding, slightly above ±1 for adversarial clamped
			// gradients.
			d := int(samples[i]) - int(back[i])
			if d < -2 || d > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeDequantize(t *testing.T) {
	q := scaledQuant(&stdLumaQuant, 50)
	var coef block
	rng := rand.New(rand.NewSource(9))
	for i := range coef {
		coef[i] = int32(rng.Intn(2001) - 1000)
	}
	var levels, back block
	quantize(&coef, &q, &levels)
	dequantize(&levels, &q, &back)
	for i := range coef {
		// Quantisation error is at most half the quantiser step.
		d := coef[i] - back[i]
		if d < 0 {
			d = -d
		}
		if d > int32(q[i])/2+1 {
			t.Fatalf("coef %d: %d -> %d (q=%d)", i, coef[i], back[i], q[i])
		}
	}
}

func TestQuantizeRoundsToNearest(t *testing.T) {
	q := QuantTable{}
	for i := range q {
		q[i] = 10
	}
	var coef, levels block
	coef[0], coef[1], coef[2], coef[3] = 14, 15, -14, -15
	quantize(&coef, &q, &levels)
	want := []int32{1, 2, -1, -2}
	for i, w := range want {
		if levels[i] != w {
			t.Fatalf("level[%d] = %d, want %d", i, levels[i], w)
		}
	}
}

func TestScaledQuant(t *testing.T) {
	q50 := scaledQuant(&stdLumaQuant, 50)
	for i := range q50 {
		if q50[i] != stdLumaQuant[i] {
			t.Fatalf("quality 50 must be the standard table (index %d: %d vs %d)", i, q50[i], stdLumaQuant[i])
		}
	}
	q100 := scaledQuant(&stdLumaQuant, 100)
	for i := range q100 {
		if q100[i] != 1 {
			t.Fatalf("quality 100 entry %d = %d, want 1", i, q100[i])
		}
	}
	q10 := scaledQuant(&stdLumaQuant, 10)
	for i := range q10 {
		if q10[i] < q50[i] {
			t.Fatalf("quality 10 should quantise harder than 50 (index %d)", i)
		}
	}
	// Out-of-range quality clamps rather than failing.
	_ = scaledQuant(&stdLumaQuant, 0)
	_ = scaledQuant(&stdLumaQuant, 101)
}

func TestZigzagIsPermutation(t *testing.T) {
	var seen [64]bool
	for _, n := range zigzag {
		if n < 0 || n > 63 || seen[n] {
			t.Fatalf("zigzag is not a permutation (value %d)", n)
		}
		seen[n] = true
	}
	// Spot-check the canonical start of the scan.
	want := []int{0, 1, 8, 16, 9, 2}
	for i, w := range want {
		if zigzag[i] != w {
			t.Fatalf("zigzag[%d] = %d, want %d", i, zigzag[i], w)
		}
	}
}

func TestColorConversionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		r0, g0, b0 := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		y, cb, cr := rgbToYCbCr(r0, g0, b0)
		r1, g1, b1 := ycbcrToRGB(y, cb, cr)
		for _, d := range []int{int(r0) - int(r1), int(g0) - int(g1), int(b0) - int(b1)} {
			if d < -3 || d > 3 {
				t.Fatalf("rgb(%d,%d,%d) -> ycbcr(%d,%d,%d) -> rgb(%d,%d,%d)", r0, g0, b0, y, cb, cr, r1, g1, b1)
			}
		}
	}
}

func TestColorConversionKnownValues(t *testing.T) {
	cases := []struct{ r, g, b, y, cb, cr byte }{
		{0, 0, 0, 0, 128, 128},
		{255, 255, 255, 255, 128, 128},
		{255, 0, 0, 76, 85, 255},
		{0, 255, 0, 150, 44, 21},
		{0, 0, 255, 29, 255, 107},
	}
	for _, c := range cases {
		y, cb, cr := rgbToYCbCr(c.r, c.g, c.b)
		dy, dcb, dcr := int(y)-int(c.y), int(cb)-int(c.cb), int(cr)-int(c.cr)
		for _, d := range []int{dy, dcb, dcr} {
			if d < -1 || d > 1 {
				t.Fatalf("rgbToYCbCr(%d,%d,%d) = (%d,%d,%d), want (%d,%d,%d)", c.r, c.g, c.b, y, cb, cr, c.y, c.cb, c.cr)
			}
		}
	}
}
