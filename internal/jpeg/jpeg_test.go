package jpeg

import (
	"bytes"
	"errors"
	"image"
	"image/color"
	stdjpeg "image/jpeg"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dlbooster/internal/pix"
)

// smoothImage synthesises a natural-image-like raster: low-frequency
// gradients plus mild texture, so lossy round trips stay tight.
func smoothImage(w, h, c int, seed int64) *pix.Image {
	rng := rand.New(rand.NewSource(seed))
	img := pix.New(w, h, c)
	fx := 1 + rng.Float64()*2
	fy := 1 + rng.Float64()*2
	phase := rng.Float64() * math.Pi
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base := 128 + 90*math.Sin(fx*float64(x)/float64(w)*math.Pi+phase)*math.Cos(fy*float64(y)/float64(h)*math.Pi)
			for ch := 0; ch < c; ch++ {
				v := base + 15*float64(ch) + 4*rng.Float64()
				img.Set(x, y, ch, clamp8(int32(v)))
			}
		}
	}
	return img
}

func psnr(a, b *pix.Image, t *testing.T) float64 {
	mse, err := a.MeanSquaredError(b)
	if err != nil {
		t.Fatal(err)
	}
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func stdToPix(m image.Image, t *testing.T) *pix.Image {
	b := m.Bounds()
	out := pix.New(b.Dx(), b.Dy(), 3)
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, g, bb, _ := m.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.Set(x, y, 0, byte(r>>8))
			out.Set(x, y, 1, byte(g>>8))
			out.Set(x, y, 2, byte(bb>>8))
		}
	}
	return out
}

var geometries = []struct {
	name string
	w, h int
}{
	{"1x1", 1, 1},
	{"7x5", 7, 5},
	{"8x8", 8, 8},
	{"16x16", 16, 16},
	{"17x23", 17, 23},
	{"64x48", 64, 48},
	{"100x75", 100, 75},
	{"129x97", 129, 97},
}

func TestRoundTrip444(t *testing.T) {
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			img := smoothImage(g.w, g.h, 3, int64(g.w*1000+g.h))
			data, err := Encode(img, EncodeOptions{Quality: 92})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualGeometry(img) {
				t.Fatalf("geometry %dx%dx%d, want %dx%dx%d", got.W, got.H, got.C, img.W, img.H, img.C)
			}
			if p := psnr(img, got, t); p < 32 {
				t.Fatalf("PSNR = %.1f dB, want >= 32", p)
			}
		})
	}
}

func TestRoundTrip420(t *testing.T) {
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			img := smoothImage(g.w, g.h, 3, int64(g.w*2000+g.h))
			data, err := Encode(img, EncodeOptions{Quality: 92, Subsample420: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if p := psnr(img, got, t); p < 30 {
				t.Fatalf("PSNR = %.1f dB, want >= 30", p)
			}
		})
	}
}

func TestRoundTripGray(t *testing.T) {
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			img := smoothImage(g.w, g.h, 1, int64(g.w*3000+g.h))
			data, err := Encode(img, EncodeOptions{Quality: 92})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if got.C != 1 {
				t.Fatalf("channels = %d, want 1", got.C)
			}
			if p := psnr(img, got, t); p < 34 {
				t.Fatalf("PSNR = %.1f dB, want >= 34", p)
			}
		})
	}
}

func TestRoundTripWithRestartIntervals(t *testing.T) {
	img := smoothImage(100, 75, 3, 42)
	for _, ri := range []int{1, 2, 5, 100} {
		data, err := Encode(img, EncodeOptions{Quality: 90, Subsample420: true, RestartInterval: ri})
		if err != nil {
			t.Fatalf("ri=%d: %v", ri, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("ri=%d: %v", ri, err)
		}
		if p := psnr(img, got, t); p < 30 {
			t.Fatalf("ri=%d: PSNR = %.1f dB", ri, p)
		}
	}
}

func TestQualitySweep(t *testing.T) {
	img := smoothImage(64, 64, 3, 5)
	prevSize := 1 << 30
	var prevPSNR float64 = 1000
	for _, q := range []int{95, 75, 50, 25, 10} {
		data, err := Encode(img, EncodeOptions{Quality: q})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		p := psnr(img, got, t)
		// Lower quality must not produce larger files or better fidelity.
		if len(data) > prevSize {
			t.Fatalf("quality %d: size %d > previous %d", q, len(data), prevSize)
		}
		if p > prevPSNR+0.5 {
			t.Fatalf("quality %d: PSNR %.1f improved over higher quality %.1f", q, p, prevPSNR)
		}
		prevSize, prevPSNR = len(data), p
	}
}

// TestDecoderMatchesStdlib decodes our encoder's output with both our
// decoder and image/jpeg and requires near-identical pixels: the two
// implementations disagree only in iDCT/upsampling rounding.
func TestDecoderMatchesStdlib(t *testing.T) {
	for _, sub := range []bool{false, true} {
		for _, g := range geometries {
			img := smoothImage(g.w, g.h, 3, int64(g.w*7+g.h)+boolInt(sub))
			data, err := Encode(img, EncodeOptions{Quality: 90, Subsample420: sub})
			if err != nil {
				t.Fatal(err)
			}
			ours, err := Decode(data)
			if err != nil {
				t.Fatalf("%s sub=%v: %v", g.name, sub, err)
			}
			stdImg, err := stdjpeg.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s sub=%v stdlib: %v", g.name, sub, err)
			}
			ref := stdToPix(stdImg, t)
			maxd, err := ours.MaxAbsDiff(ref)
			if err != nil {
				t.Fatal(err)
			}
			// 4:2:0 allows slack for different upsampling filters.
			limit := 4
			if sub {
				limit = 24
			}
			if maxd > limit {
				t.Fatalf("%s sub=%v: max diff vs stdlib = %d", g.name, sub, maxd)
			}
			if mse, _ := ours.MeanSquaredError(ref); mse > 4 {
				t.Fatalf("%s sub=%v: mse vs stdlib = %.2f", g.name, sub, mse)
			}
		}
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestDecodeStdlibEncoded decodes image/jpeg output with our decoder.
func TestDecodeStdlibEncoded(t *testing.T) {
	img := smoothImage(90, 60, 3, 77)
	rgba := image.NewRGBA(image.Rect(0, 0, img.W, img.H))
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			rgba.Set(x, y, color.RGBA{img.At(x, y, 0), img.At(x, y, 1), img.At(x, y, 2), 255})
		}
	}
	var buf bytes.Buffer
	if err := stdjpeg.Encode(&buf, rgba, &stdjpeg.Options{Quality: 90}); err != nil {
		t.Fatal(err)
	}
	ours, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding stdlib-encoded stream: %v", err)
	}
	stdBack, err := stdjpeg.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ref := stdToPix(stdBack, t)
	maxd, err := ours.MaxAbsDiff(ref)
	if err != nil {
		t.Fatal(err)
	}
	if maxd > 24 {
		t.Fatalf("max diff vs stdlib decode = %d", maxd)
	}
	if mse, _ := ours.MeanSquaredError(ref); mse > 6 {
		t.Fatalf("mse vs stdlib decode = %.2f", mse)
	}
}

func TestDecodeConfig(t *testing.T) {
	img := smoothImage(123, 45, 3, 8)
	data, err := Encode(img, DefaultEncodeOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := DecodeConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Width != 123 || cfg.Height != 45 || cfg.Components != 3 {
		t.Fatalf("config = %+v", cfg)
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	if _, err := Encode(nil, DefaultEncodeOptions()); err == nil {
		t.Error("nil image accepted")
	}
	img := smoothImage(8, 8, 3, 1)
	if _, err := Encode(img, EncodeOptions{Quality: 0}); err == nil {
		t.Error("quality 0 accepted")
	}
	if _, err := Encode(img, EncodeOptions{Quality: 101}); err == nil {
		t.Error("quality 101 accepted")
	}
	bad := &pix.Image{W: 8, H: 8, C: 3, Pix: make([]byte, 10)}
	if _, err := Encode(bad, DefaultEncodeOptions()); err == nil {
		t.Error("short pixel buffer accepted")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	img := smoothImage(32, 32, 3, 2)
	good, err := Encode(img, EncodeOptions{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"no SOI", []byte{0x00, 0x01, 0x02}},
		{"SOI only", []byte{0xFF, 0xD8}},
		{"truncated header", good[:20]},
		{"truncated scan", good[:len(good)-len(good)/3]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.data); err == nil {
				t.Fatalf("malformed input accepted")
			}
		})
	}
}

func TestBaselineStreamForgedAsProgressiveFails(t *testing.T) {
	// Rewriting a baseline stream's SOF0 to SOF2 routes it to the
	// multi-scan decoder, where the baseline scan header (a full-band
	// DC+AC scan) is invalid — it must fail cleanly, not mis-decode.
	img := smoothImage(32, 32, 3, 3)
	data, err := Encode(img, EncodeOptions{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	patched := false
	for i := 0; i+1 < len(mut); i++ {
		if mut[i] == 0xFF && mut[i+1] == mSOF0 {
			mut[i+1] = mSOF2
			patched = true
			break
		}
	}
	if !patched {
		t.Fatal("SOF0 not found")
	}
	var ferr FormatError
	if _, err := Decode(mut); !errors.As(err, &ferr) {
		t.Fatalf("forged stream accepted or wrong error class: %v", err)
	}
}

// TestDecodeCorruptScanNoPanic flips bits in the entropy-coded data and
// requires decode to fail cleanly or produce an image, never panic. This
// is the error path the FPGA decoder's FINISH arbiter reports upstream.
func TestDecodeCorruptScanNoPanic(t *testing.T) {
	img := smoothImage(48, 48, 3, 4)
	data, err := Encode(img, EncodeOptions{Quality: 80, Subsample420: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), data...)
		for k := 0; k < 1+rng.Intn(6); k++ {
			pos := rng.Intn(len(mut)-2) + 2 // keep SOI intact
			mut[pos] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corrupt input (trial %d): %v", trial, r)
				}
			}()
			_, _ = Decode(mut)
		}()
	}
}

// TestDecodeRandomBytesNoPanic feeds arbitrary bytes to the decoder.
func TestDecodeRandomBytesNoPanic(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on random input: %v", r)
			}
		}()
		_, _ = Decode(data)
		// Also with a forged SOI so parsing gets further.
		_, _ = Decode(append([]byte{0xFF, 0xD8}, data...))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripProperty: random smooth images survive encode/decode with
// bounded error, across random geometry and quality.
func TestRoundTripProperty(t *testing.T) {
	f := func(wSeed, hSeed uint8, qSeed uint8, sub bool, seed int64) bool {
		w := int(wSeed)%120 + 1
		h := int(hSeed)%120 + 1
		q := int(qSeed)%41 + 60 // 60..100
		img := smoothImage(w, h, 3, seed)
		data, err := Encode(img, EncodeOptions{Quality: q, Subsample420: sub})
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		if !got.EqualGeometry(img) {
			return false
		}
		mse, err := img.MeanSquaredError(got)
		if err != nil {
			return false
		}
		// Tiny images at low quality with 4:2:0 legitimately lose a
		// lot; the property is bounded error, not high fidelity.
		return mse < 900
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStagedPipelineMatchesDecode(t *testing.T) {
	img := smoothImage(80, 60, 3, 12)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsample420: true})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if h.Width != 80 || h.Height != 60 {
		t.Fatalf("parsed %dx%d", h.Width, h.Height)
	}
	co, err := h.EntropyDecode()
	if err != nil {
		t.Fatal(err)
	}
	planes, err := co.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	staged := planes.ToImage()
	maxd, err := whole.MaxAbsDiff(staged)
	if err != nil {
		t.Fatal(err)
	}
	if maxd != 0 {
		t.Fatalf("staged pipeline differs from Decode by %d", maxd)
	}
}

func TestParseSkipsAppAndComment(t *testing.T) {
	img := smoothImage(16, 16, 3, 6)
	data, err := Encode(img, EncodeOptions{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	// Splice a COM (0xFE) and an APP5 segment after SOI.
	com := []byte{0xFF, 0xFE, 0x00, 0x07, 'h', 'e', 'l', 'l', 'o'}
	app := []byte{0xFF, 0xE5, 0x00, 0x04, 0xAA, 0xBB}
	spliced := append([]byte{0xFF, 0xD8}, com...)
	spliced = append(spliced, app...)
	spliced = append(spliced, data[2:]...)
	if _, err := Decode(spliced); err != nil {
		t.Fatalf("decode with COM/APP segments: %v", err)
	}
}

func TestLargePaperSizedImage(t *testing.T) {
	if testing.Short() {
		t.Skip("500x375 decode in -short mode")
	}
	// The paper's online-inference workload: 500×375 colour JPEG.
	img := smoothImage(500, 375, 3, 2019)
	data, err := Encode(img, DefaultEncodeOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if p := psnr(img, got, t); p < 30 {
		t.Fatalf("PSNR = %.1f dB", p)
	}
}

func TestRoundTrip422(t *testing.T) {
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			img := smoothImage(g.w, g.h, 3, int64(g.w*4000+g.h))
			data, err := Encode(img, EncodeOptions{Quality: 92, Subsample422: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if p := psnr(img, got, t); p < 30 {
				t.Fatalf("PSNR = %.1f dB, want >= 30", p)
			}
			// Cross-validate against the stdlib decoder.
			stdImg, err := stdjpeg.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("stdlib rejected 4:2:2 stream: %v", err)
			}
			ref := stdToPix(stdImg, t)
			if maxd, _ := got.MaxAbsDiff(ref); maxd > 24 {
				t.Fatalf("our 4:2:2 decode differs from stdlib by %d", maxd)
			}
		})
	}
	if _, err := Encode(smoothImage(8, 8, 3, 1), EncodeOptions{Quality: 80, Subsample420: true, Subsample422: true}); err == nil {
		t.Fatal("both subsampling modes accepted")
	}
}

func TestProgressive422MatchesBaseline(t *testing.T) {
	img := smoothImage(100, 75, 3, 99)
	opt := EncodeOptions{Quality: 88, Subsample422: true}
	base, err := Encode(img, opt)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := EncodeProgressive(img, opt)
	if err != nil {
		t.Fatal(err)
	}
	baseImg, err := Decode(base)
	if err != nil {
		t.Fatal(err)
	}
	progImg, err := Decode(prog)
	if err != nil {
		t.Fatalf("progressive 4:2:2 decode: %v", err)
	}
	if d, _ := baseImg.MaxAbsDiff(progImg); d != 0 {
		t.Fatalf("progressive 4:2:2 differs from baseline by %d", d)
	}
	if _, err := stdjpeg.Decode(bytes.NewReader(prog)); err != nil {
		t.Fatalf("stdlib rejected progressive 4:2:2: %v", err)
	}
}
