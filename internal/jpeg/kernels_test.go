package jpeg

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"dlbooster/internal/pix"
)

// Every fast kernel must produce byte-identical output to its reference
// on every input. These tests check that per kernel, over exhaustive or
// randomised inputs; TestKernelGoldenCorpusByteParity and
// TestKernelKillSwitchFullPipeline (reference_test.go) check it over whole
// decodes.

func TestKernelClamp8BranchlessMatchesClamp8(t *testing.T) {
	for v := int32(-1 << 20); v <= 1<<20; v++ {
		if got, want := clamp8Branchless(v), clamp8(v); got != want {
			t.Fatalf("clamp8Branchless(%d) = %d, want %d", v, got, want)
		}
	}
	for _, v := range []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1, math.MaxInt32} {
		if got, want := clamp8Branchless(v), clamp8(v); got != want {
			t.Fatalf("clamp8Branchless(%d) = %d, want %d", v, got, want)
		}
	}
}

// randomSparseBlock fills a block with n nonzero coefficients at random
// natural-order positions, with realistic post-dequantise magnitudes.
func randomSparseBlock(rng *rand.Rand, n int) block {
	var blk block
	for k := 0; k < n; k++ {
		blk[rng.Intn(64)] = int32(rng.Intn(4001) - 2000)
	}
	return blk
}

// TestKernelIDCTExactParity pins the full-resolution transform — the
// generic kernel at N = 8 over a unit quant table, so the levels are the
// coefficients — to the float reference idct.
func TestKernelIDCTExactParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	var unit QuantTable
	for i := range unit {
		unit[i] = 1
	}
	densities := []int{0, 1, 2, 3, 5, 8, 16, 32, 64}
	for _, n := range densities {
		for trial := 0; trial < 200; trial++ {
			blk := randomSparseBlock(rng, n)
			if trial%4 == 1 && n > 0 {
				blk = block{} // DC-only shape
				blk[0] = int32(rng.Intn(4001) - 2000)
			}
			if trial%4 == 2 && n > 0 {
				// Single-column shape: exercises the column short-cuts.
				col := rng.Intn(8)
				keep := blk
				blk = block{}
				for u := 0; u < 8; u++ {
					blk[u*8+col] = keep[u*8+col]
				}
			}
			var want, got [64]byte
			idct(&blk, &want)
			idctScaledNFast(&blk, &unit, 8, &got)
			if want != got {
				t.Fatalf("idctScaledNFast(8) diverges from idct (density %d, trial %d)\nblk:  %v\nwant: %v\ngot:  %v", n, trial, blk, want, got)
			}
		}
	}
}

// TestKernelIDCTScaledExactParity pins idctScaledFast to the reference
// idctScaled at every scale N = 1…8: the 8-point row of the scaled basis
// is the full basis, so one reference covers every scale.
func TestKernelIDCTScaledExactParity(t *testing.T) {
	rng := rand.New(rand.NewSource(8072026))
	var q QuantTable
	for s := 1; s <= 8; s++ {
		for trial := 0; trial < 400; trial++ {
			for i := range q {
				q[i] = uint16(1 + rng.Intn(255))
			}
			var blk block
			switch trial % 5 {
			case 0: // dense
				blk = randomSparseBlock(rng, 64)
			case 1: // EOB after DC
				blk[0] = int32(rng.Intn(2001) - 1000)
			case 2: // sparse corner
				blk = randomSparseBlock(rng, 1+rng.Intn(4))
			case 4: // single column inside the N×N corner
				col := rng.Intn(s)
				for u := 0; u < s; u++ {
					blk[u*8+col] = int32(rng.Intn(2001) - 1000)
				}
			default: // empty
			}
			var want, got [64]byte
			idctScaled(&blk, &q, s, &want)
			idctScaledFast(&blk, &q, s, &got)
			if want != got {
				t.Fatalf("idctScaledFast diverges at scale %d (trial %d)\nblk:  %v\nwant: %v\ngot:  %v", s, trial, blk, want, got)
			}
		}
	}
}

func TestKernelYCbCrRowExactParity(t *testing.T) {
	rng := rand.New(rand.NewSource(91881))
	shapes := [][3]uint{{0, 1, 1}, {0, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for _, shx := range shapes {
		for _, w := range []int{1, 2, 3, 31, 32, 97, 500} {
			yRow := make([]byte, w)
			cbRow := make([]byte, w)
			crRow := make([]byte, w)
			for i := 0; i < w; i++ {
				yRow[i] = byte(rng.Intn(256))
				cbRow[i] = byte(rng.Intn(256))
				crRow[i] = byte(rng.Intn(256))
			}
			want := make([]byte, w*3)
			got := make([]byte, w*3)
			ycbcrRowScalar(want, yRow, cbRow, crRow, w, shx)
			ycbcrRowFast(got, yRow, cbRow, crRow, w, shx)
			if !bytes.Equal(want, got) {
				t.Fatalf("ycbcrRowFast diverges (shx %v, w %d)", shx, w)
			}
		}
	}
}

// goldenCorpus encodes a spread of layouts, qualities and restart
// intervals — the decode shapes the pipeline sees in production.
func goldenCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	corpus := map[string][]byte{}
	add := func(name string, img *pix.Image, opt EncodeOptions) {
		data, err := Encode(img, opt)
		if err != nil {
			t.Fatalf("encode %s: %v", name, err)
		}
		corpus[name] = data
	}
	add("420-q88", smoothImage(500, 375, 3, 1), DefaultEncodeOptions())
	add("422-q90", smoothImage(320, 240, 3, 2), EncodeOptions{Quality: 90, Subsample422: true})
	add("444-q95", smoothImage(160, 120, 3, 3), EncodeOptions{Quality: 95})
	add("gray-q85", smoothImage(256, 192, 1, 4), EncodeOptions{Quality: 85})
	add("420-q60-odd", smoothImage(251, 187, 3, 5), EncodeOptions{Quality: 60, Subsample420: true})
	add("420-dri", smoothImage(512, 384, 3, 6), EncodeOptions{Quality: 88, Subsample420: true, RestartInterval: 8})
	add("gray-dri", smoothImage(320, 320, 1, 7), EncodeOptions{Quality: 88, RestartInterval: 16})
	return corpus
}

// TestDecodeScaledIntoPerScaleZeroAllocs extends the steady-state pin to
// every iDCT scale, so a kernel swap cannot silently reintroduce
// allocations on any of the per-scale code paths.
func TestDecodeScaledIntoPerScaleZeroAllocs(t *testing.T) {
	for _, cse := range perScaleBenchCases() {
		t.Run(cse.name, func(t *testing.T) {
			img := smoothImage(cse.srcW, cse.srcH, 3, 50)
			data, err := Encode(img, DefaultEncodeOptions())
			if err != nil {
				t.Fatal(err)
			}
			var sc Scratch
			dst := pix.New(cse.dstW, cse.dstH, 3)
			scale, err := DecodeScaledInto(data, dst, &sc)
			if err != nil {
				t.Fatal(err)
			}
			if scale != cse.scale {
				t.Fatalf("geometry %dx%d→%dx%d decoded at scale %d, want %d", cse.srcW, cse.srcH, cse.dstW, cse.dstH, scale, cse.scale)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := DecodeScaledInto(data, dst, &sc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("scale %d: %.1f allocs per decode, want 0", cse.scale, allocs)
			}
		})
	}
}

type perScaleCase struct {
	name       string
	srcW, srcH int
	dstW, dstH int
	scale      int
}

// perScaleBenchCases pins one geometry per iDCT scale: a 512×512 source
// whose target lands each branch of ScaleFor (N×N covers 64N×64N), and a
// 448×448 target that no N < 8 covers.
func perScaleBenchCases() []perScaleCase {
	return []perScaleCase{
		{"1x1", 512, 512, 64, 64, 1},
		{"2x2", 512, 512, 128, 128, 2},
		{"3x3", 512, 512, 192, 192, 3},
		{"4x4", 512, 512, 256, 256, 4},
		{"5x5", 512, 512, 320, 320, 5},
		{"6x6", 512, 512, 384, 384, 6},
		{"7x7", 512, 512, 448, 448, 7},
		{"8x8", 512, 512, 480, 480, 8},
	}
}

// BenchmarkDecodeScaledInto measures the fused decode at each iDCT
// scale with a dedicated per-worker Scratch (the backends.CPU worker
// configuration). Run with -benchmem: allocs/op must be 0.
func BenchmarkDecodeScaledInto(b *testing.B) {
	for _, cse := range perScaleBenchCases() {
		b.Run(cse.name, func(b *testing.B) {
			img := smoothImage(cse.srcW, cse.srcH, 3, 51)
			data, err := Encode(img, DefaultEncodeOptions())
			if err != nil {
				b.Fatal(err)
			}
			var sc Scratch
			dst := pix.New(cse.dstW, cse.dstH, 3)
			if _, err := DecodeScaledInto(data, dst, &sc); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeScaledInto(data, dst, &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
