package jpeg

import (
	"testing"

	"dlbooster/internal/pix"
)

// Native fuzz targets: the decoder must never panic on arbitrary bytes.
// Seeds cover baseline and progressive streams in all supported modes;
// `go test -fuzz=FuzzDecode ./internal/jpeg` explores further.

func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Decode(data)
		if err == nil && img != nil {
			if img.W <= 0 || img.H <= 0 || len(img.Pix) != img.W*img.H*img.C {
				t.Fatalf("decoded image with inconsistent geometry %dx%dx%d (%d bytes)", img.W, img.H, img.C, len(img.Pix))
			}
		}
	})
}

// FuzzDecodeScaledInto drives the decode-to-scale fast path on arbitrary
// bytes at several target geometries: it must never panic, and must
// never write outside the batch-slot view it was handed (the slot is
// embedded in a guarded buffer whose margins are checked after every
// call).
func FuzzDecodeScaledInto(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc Scratch
		for _, g := range [...]struct{ w, h, c int }{{8, 6, 3}, {16, 16, 1}, {1, 1, 3}} {
			const margin = 64
			n := g.w * g.h * g.c
			buf := make([]byte, n+2*margin)
			for i := range buf {
				buf[i] = 0xA5
			}
			dst, err := pix.View(g.w, g.h, g.c, buf[margin:margin+n])
			if err != nil {
				t.Fatal(err)
			}
			scale, err := DecodeScaledInto(data, &dst, &sc)
			if err == nil {
				// A baseline stream decodes at ScaleFor's choice, a
				// progressive one at full scale.
				want := 8
				if h, perr := Parse(data); perr == nil {
					want = ScaleFor(h.Width, h.Height, g.w, g.h)
				}
				if scale != want {
					t.Fatalf("successful decode reported scale %d, want %d", scale, want)
				}
			}
			for i := 0; i < margin; i++ {
				if buf[i] != 0xA5 || buf[margin+n+i] != 0xA5 {
					t.Fatalf("decode wrote outside the destination slot (geometry %dx%dx%d)", g.w, g.h, g.c)
				}
			}
		}
	})
}

func FuzzDecodeConfig(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeConfig(data)
	})
}

func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	img := smoothImage(24, 16, 3, 1)
	gray := smoothImage(24, 16, 1, 2)
	for _, opt := range []EncodeOptions{
		{Quality: 90},
		{Quality: 60, Subsample420: true},
		{Quality: 90, RestartInterval: 2},
	} {
		if b, err := Encode(img, opt); err == nil {
			seeds = append(seeds, b)
		}
		if b, err := EncodeProgressive(img, opt); err == nil {
			seeds = append(seeds, b)
		}
	}
	if b, err := Encode(gray, EncodeOptions{Quality: 85}); err == nil {
		seeds = append(seeds, b)
	}
	seeds = append(seeds, []byte{0xFF, 0xD8}, nil)
	return seeds
}
