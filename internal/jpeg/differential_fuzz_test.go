package jpeg

import (
	"bytes"
	"image"
	stdjpeg "image/jpeg"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dlbooster/internal/pix"
)

// Differential and round-trip fuzzing: the safety net under the entropy
// decoder. FuzzDecodeDifferential holds this package to the standard
// library's decoder on arbitrary bytes; FuzzEncodeDecodeRoundTrip drives
// random images through every encoder mode and back.
//
//	go test -run '^$' -fuzz FuzzDecodeDifferential -fuzztime 15s ./internal/jpeg
//	go test -run '^$' -fuzz FuzzEncodeDecodeRoundTrip -fuzztime 15s ./internal/jpeg

// oraclePSNR is bench/'s pixel oracle: a reference decode must agree with
// image/jpeg to at least this many dB.
const oraclePSNR = 30

// testdataSeeds returns the checked-in streams: the DRI fixtures, whole,
// truncated and bit-flipped, and every crasher already recorded under
// testdata/fuzz (which is where the 4:2:0 / 4:2:2 / gray truncations and
// the out-of-sequence marker live).
func testdataSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, data := range driFixtures(f) {
		rng := rand.New(rand.NewSource(int64(len(data)))) // per stream: map order must not matter
		flipped := append([]byte(nil), data...)
		for i := 0; i < 3; i++ {
			flipped[len(flipped)/2+rng.Intn(len(flipped)/2)] ^= 1 << uint(rng.Intn(8))
		}
		seeds = append(seeds, data, data[:len(data)*2/3], flipped)
	}
	recorded, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	for _, name := range recorded {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n": keep single-[]byte entries.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			continue
		}
		if s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")); err == nil {
			seeds = append(seeds, []byte(s))
		}
	}
	return seeds
}

// stdPixels converts the standard library's result into this package's
// layout: grayscale or YCbCr→RGB. Any other colour model (image/jpeg
// reads component IDs 'R','G','B' and Adobe transform 0 as RGB, and four
// components as CMYK; this package does neither) returns nil.
func stdPixels(m image.Image) *pix.Image {
	b := m.Bounds()
	switch src := m.(type) {
	case *image.Gray:
		out := pix.New(b.Dx(), b.Dy(), 1)
		for y := 0; y < b.Dy(); y++ {
			copy(out.Pix[y*out.W:(y+1)*out.W], src.Pix[y*src.Stride:])
		}
		return out
	case *image.YCbCr:
		out := pix.New(b.Dx(), b.Dy(), 3)
		for y := 0; y < b.Dy(); y++ {
			for x := 0; x < b.Dx(); x++ {
				r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
				o := (y*out.W + x) * 3
				out.Pix[o], out.Pix[o+1], out.Pix[o+2] = byte(r>>8), byte(g>>8), byte(bl>>8)
			}
		}
		return out
	}
	return nil
}

// strictHere lists the entropy-level conditions this decoder refuses and
// image/jpeg decodes through: it stops a block at an over-long run
// without consuming the magnitude bits, reads a run/0 symbol in a
// baseline scan as a progressive EOBn, allows DC categories up to 16, and
// dequantises with an all-zero table when none was sent. Each desyncs or
// voids the rest of the scan, so what it then returns is no oracle.
var strictHere = []string{"AC run beyond block", "bad AC symbol", "DC category > 11", "missing quant table"}

// plausibleImage reports whether every block's samples provably stay
// within ±384 of mid-grey before clamping: a sample is at most
// |DC|/8 + Σ|AC|/4 away from it. An 8-bit image stays within ±128 plus
// quantisation error; corrupt but decodable entropy data goes anywhere,
// and there image/jpeg's fixed-point iDCT wraps (a true −547 came back as
// +477 in the input that set this bound) where this package's float one
// saturates, so their pixels legitimately differ.
func plausibleImage(h *Header, co *Coefficients) bool {
	for i, c := range h.Components {
		q := &h.quant[c.QuantID]
		for b := range co.comp[i] {
			reach := int64(0) // 8 × the bound on |sample − 128|
			for k, level := range co.comp[i][b] {
				v := int64(level) * int64(q[k])
				if v < 0 {
					v = -v
				}
				if k > 0 {
					v *= 2
				}
				reach += v
			}
			if reach > 8*384 {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeDifferential: on any input neither decoder may panic, and on
// a baseline stream whose header this package parses —
//
//   - accept/reject: if image/jpeg decodes it, so must this package,
//     unless it refused with one of the strictHere conditions. (The
//     converse is not asserted: this package stops at the end of the first
//     scan, so it accepts streams with a missing EOI or bytes image/jpeg
//     cannot parse after the scan; it resynchronises on garbage before a
//     restart marker and skips FF FF fill bytes inside a scan, which
//     image/jpeg refuses; and it takes 16-bit quantisation tables in a
//     baseline frame.)
//   - pixels: if both decode it to the same colour model, and the scan is
//     followed directly by EOI (image/jpeg goes on to decode further
//     scans; this package does not) and holds a plausible image, the two
//     results agree to the bench's PSNR ≥ 30 dB oracle.
func FuzzDecodeDifferential(f *testing.F) {
	for _, seed := range append(fuzzSeeds(f), testdataSeeds(f)...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		stdImg, stdErr := stdjpeg.Decode(bytes.NewReader(data))
		h, err := Parse(data)
		if err != nil {
			_, _ = Decode(data) // progressive, unsupported or malformed header: no-panic only
			return
		}
		co, err := h.EntropyDecode()
		if err != nil {
			for _, s := range strictHere {
				if strings.Contains(err.Error(), s) {
					return
				}
			}
			if stdErr == nil {
				t.Fatalf("image/jpeg decodes a baseline stream this package refuses: %v", err)
			}
			return
		}
		planes, err := co.Reconstruct()
		if err != nil {
			t.Fatalf("Reconstruct after a clean entropy decode: %v", err)
		}
		got := planes.ToImage()
		if stdErr != nil {
			return
		}
		want := stdPixels(stdImg)
		if want == nil {
			return
		}
		if !got.EqualGeometry(want) {
			t.Fatalf("decoded %dx%dx%d, image/jpeg %dx%dx%d", got.W, got.H, got.C, want.W, want.H, want.C)
		}
		end := entropyEnd(h.scan, 0)
		if !bytes.HasPrefix(h.scan[end:], []byte{0xFF, mEOI}) {
			return
		}
		if !plausibleImage(h, co) {
			return
		}
		if p := psnr(got, want, t); p < oraclePSNR {
			t.Fatalf("PSNR against image/jpeg %.1f dB < %d dB (%dx%dx%d)", p, oraclePSNR, got.W, got.H, got.C)
		}
	})
}

// FuzzEncodeDecodeRoundTrip: a random small image × quality × subsampling
// × restart interval, through Encode or — the optimal-Huffman path, whose
// per-scan tables are derived from the symbol counts — EncodeProgressive,
// must decode: to the source geometry, within the PSNR oracle of
// image/jpeg's decode of the same bytes, within bounded error of a clean
// source at a reasonable quality, byte-identically through a full-size
// DecodeScaledInto (when that runs at scale 8), and through the decode-to-scale path at a quarter of
// the size. noise blends the smooth source toward white noise, which is
// what reaches the long codes and large magnitudes the lookahead tables
// do not cover.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(16), uint8(90), uint8(0), uint8(0), false, uint8(0))
	f.Add(int64(2), uint8(24), uint8(16), uint8(60), uint8(1), uint8(2), false, uint8(40))
	f.Add(int64(3), uint8(33), uint8(17), uint8(100), uint8(2), uint8(1), false, uint8(255))
	f.Add(int64(4), uint8(64), uint8(48), uint8(88), uint8(1), uint8(16), false, uint8(10))
	f.Add(int64(5), uint8(40), uint8(40), uint8(75), uint8(3), uint8(5), false, uint8(0))
	f.Add(int64(6), uint8(31), uint8(29), uint8(80), uint8(1), uint8(3), true, uint8(20))
	f.Add(int64(7), uint8(0), uint8(0), uint8(0), uint8(2), uint8(0), true, uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, w8, h8, q8, mode, ri uint8, progressive bool, noise uint8) {
		w, h, q := int(w8)%96+1, int(h8)%96+1, int(q8)%100+1
		opt := EncodeOptions{Quality: q, RestartInterval: int(ri) % 20}
		c := 3
		switch mode % 4 {
		case 1:
			opt.Subsample420 = true
		case 2:
			opt.Subsample422 = true
		case 3:
			c = 1
		}
		src := smoothImage(w, h, c, seed)
		rng := rand.New(rand.NewSource(seed))
		for i, v := range src.Pix {
			src.Pix[i] = byte((int(v)*(255-int(noise)) + rng.Intn(256)*int(noise)) / 255)
		}
		encode := Encode
		if progressive {
			encode = EncodeProgressive
		}
		data, err := encode(src, opt)
		if err != nil {
			t.Fatalf("encode %dx%dx%d %+v: %v", w, h, c, opt, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("decode %dx%dx%d %+v progressive=%v: %v", w, h, c, opt, progressive, err)
		}
		if !got.EqualGeometry(src) {
			t.Fatalf("decoded %dx%dx%d from a %dx%dx%d source", got.W, got.H, got.C, w, h, c)
		}
		// image/jpeg referees, except where its restart counting differs:
		// in a non-interleaved progressive scan of a subsampled component
		// it counts its padded-grid walk, T.81 §G and libjpeg count data
		// units (see TestProgressiveWithRestartIntervals).
		if !(progressive && opt.RestartInterval > 0 && (opt.Subsample420 || opt.Subsample422)) {
			stdImg, err := stdjpeg.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("image/jpeg refuses the encoder's output (%+v progressive=%v): %v", opt, progressive, err)
			}
			if p := psnr(got, stdPixels(stdImg), t); p < oraclePSNR {
				t.Fatalf("PSNR against image/jpeg %.1f dB < %d dB (%dx%dx%d %+v progressive=%v)", p, oraclePSNR, w, h, c, opt, progressive)
			}
		}
		if noise == 0 && q >= 60 {
			// The bound of TestRoundTripProperty: tiny 4:2:0 images lose a
			// lot, so it is bounded error, not high fidelity.
			if mse, _ := src.MeanSquaredError(got); mse >= 900 {
				t.Fatalf("round-trip MSE %.0f (%dx%dx%d %+v progressive=%v)", mse, w, h, c, opt, progressive)
			}
		}
		var sc Scratch
		full := pix.New(w, h, c)
		scale, err := DecodeScaledInto(data, full, &sc)
		if err != nil {
			t.Fatalf("full-size DecodeScaledInto: %v", err)
		}
		// Sources of at most one block a side reach their own size at a
		// reduced scale; everything else must take the exact-parity path.
		if scale != 8 && (w > 8 || h > 8) {
			t.Fatalf("full-size DecodeScaledInto of %dx%d ran at scale %d", w, h, scale)
		}
		if scale == 8 && !bytes.Equal(full.Pix, got.Pix) {
			t.Fatalf("full-size DecodeScaledInto differs from Decode (%dx%dx%d %+v progressive=%v)", w, h, c, opt, progressive)
		}
		small := pix.New((w+3)/4, (h+3)/4, c)
		if _, err := DecodeScaledInto(data, small, &sc); err != nil {
			t.Fatalf("DecodeScaledInto to %dx%d: %v", small.W, small.H, err)
		}
	})
}
