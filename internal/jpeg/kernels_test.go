package jpeg

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dlbooster/internal/pix"
)

// The colour and resize kernels must produce byte-identical output to
// their references on every input; the integer iDCT kernels must meet
// the IEEE 1180 accuracy bounds against the float ones. These tests
// check that per kernel; TestKernelGoldenCorpusByteParity and
// TestKernelKillSwitchFullPipeline (reference_test.go) check whole
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

// ieee1180Blocks builds the input of one IEEE 1180 run: count random
// 8×8 spatial blocks with samples in [−lo, hi], each multiplied by sign,
// through the float forward DCT, rounded and clamped to [−2048, 2047].
func ieee1180Blocks(rng *rand.Rand, lo, hi, sign, count int) []block {
	blocks := make([]block, count)
	for b := range blocks {
		var px [64]float64
		for i := range px {
			px[i] = float64(sign * (rng.Intn(lo+hi+1) - lo))
		}
		var tmp [64]float64 // tmp[u*8+y] = Σ_x basis[u][x]·px[x][y]
		for u := 0; u < 8; u++ {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					tmp[u*8+y] += cosBasis[u][x] * px[x*8+y]
				}
			}
		}
		for u := 0; u < 8; u++ {
			for v := 0; v < 8; v++ {
				var c float64
				for y := 0; y < 8; y++ {
					c += cosBasis[v][y] * tmp[u*8+y]
				}
				blocks[b][u*8+v] = min(max(int32(math.Round(c)), -2048), 2047)
			}
		}
	}
	return blocks
}

// ieee1180 runs the integer kernel at scale n and the float reference
// over every block and checks the IEEE 1180 accuracy bounds on the n×n
// output: peak error ≤ 1, mean-square error ≤ 0.06 at every position
// and ≤ 0.02 overall, |mean error| ≤ 0.015 at every position and
// ≤ 0.0015 overall.
func ieee1180(t *testing.T, label string, n int, blocks []block, ref func(*block, *[64]byte)) {
	t.Helper()
	var unit QuantTable
	for i := range unit {
		unit[i] = 1
	}
	var sum, sumSq [64]int
	peak := 0
	for b := range blocks {
		var want, got [64]byte
		ref(&blocks[b], &want)
		idctScaledFast(&blocks[b], &unit, n, got[:], n)
		for i := range n * n {
			d := int(got[i]) - int(want[i])
			sum[i] += d
			sumSq[i] += d * d
			peak = max(peak, d, -d)
		}
	}
	count := float64(len(blocks))
	var all, allSq int
	for i := range n * n {
		all += sum[i]
		allSq += sumSq[i]
		if mse := float64(sumSq[i]) / count; mse > 0.06 {
			t.Errorf("%s, N=%d: position %d mean-square error %.4f > 0.06", label, n, i, mse)
		}
		if me := float64(sum[i]) / count; math.Abs(me) > 0.015 {
			t.Errorf("%s, N=%d: position %d mean error %.4f, |·| > 0.015", label, n, i, me)
		}
	}
	total := count * float64(n*n)
	mse, me := float64(allSq)/total, float64(all)/total
	if peak > 1 || mse > 0.02 || math.Abs(me) > 0.0015 {
		t.Errorf("%s, N=%d: peak error %d, mean-square error %.4f, mean error %.5f; want ≤ 1, ≤ 0.02, |·| ≤ 0.0015", label, n, peak, mse, me)
	}
	t.Logf("%s, N=%d: peak %d, mean-square error %.4f, mean error %+.5f", label, n, peak, mse, me)
}

// ieee1180Runs are the standard's input ranges, each run with both signs.
var ieee1180Runs = []struct{ lo, hi int }{{256, 255}, {5, 5}, {300, 300}}

// TestKernelIDCTExactParity holds the full-resolution transform (N = 8)
// to the IEEE 1180 accuracy bounds against the float reference idct,
// with a unit quant table so the levels are the coefficients. An empty
// block must give mid-grey exactly, and dense blocks far beyond any
// real image (±2000 × q ≤ 255, which wrap in int32) must not panic at
// any N.
func TestKernelIDCTExactParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for _, r := range ieee1180Runs {
		for _, sign := range []int{1, -1} {
			label := fmt.Sprintf("[-%d, %d]×%+d", r.lo, r.hi, sign)
			ieee1180(t, label, 8, ieee1180Blocks(rng, r.lo, r.hi, sign, 10000), idct)
		}
	}
	var q QuantTable
	for n := 1; n <= 8; n++ {
		var empty block
		var got [64]byte
		idctScaledFast(&empty, &q, n, got[:], n)
		for i, v := range got[:n*n] {
			if v != 128 {
				t.Fatalf("N=%d: empty block sample %d = %d, want 128", n, i, v)
			}
		}
		for trial := 0; trial < 100; trial++ {
			var blk block
			for i := range blk {
				blk[i] = int32(rng.Intn(4001) - 2000)
				q[i] = uint16(1 + rng.Intn(255))
			}
			idctScaledFast(&blk, &q, n, got[:], n)
		}
	}
}

// TestKernelIDCTScaledExactParity holds every scaled kernel, N = 1…8, to
// the IEEE 1180 accuracy bounds against the float reference idctScaled,
// which reads the same N×N low-frequency corner of the same blocks.
func TestKernelIDCTScaledExactParity(t *testing.T) {
	rng := rand.New(rand.NewSource(8072026))
	var unit QuantTable
	for i := range unit {
		unit[i] = 1
	}
	for _, r := range ieee1180Runs {
		for _, sign := range []int{1, -1} {
			blocks := ieee1180Blocks(rng, r.lo, r.hi, sign, 10000)
			label := fmt.Sprintf("[-%d, %d]×%+d", r.lo, r.hi, sign)
			for n := 1; n <= 8; n++ {
				ieee1180(t, label, n, blocks, func(blk *block, out *[64]byte) { idctScaled(blk, &unit, n, out) })
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
func goldenCorpus(t testing.TB) map[string][]byte {
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

// BenchmarkIDCTScaled times the iDCT kernel alone at each scale N over
// every coefficient block of the golden corpus, in a fixed order, and
// reports ns per block.
func BenchmarkIDCTScaled(b *testing.B) {
	corpus := goldenCorpus(b)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	var blocks []*block
	var quants []*QuantTable
	for _, name := range names {
		h, err := Parse(corpus[name])
		if err != nil {
			b.Fatal(err)
		}
		co, err := h.EntropyDecode()
		if err != nil {
			b.Fatal(err)
		}
		for i, c := range h.Components {
			for j := range co.comp[i] {
				blocks = append(blocks, &co.comp[i][j])
				quants = append(quants, &h.quant[c.QuantID])
			}
		}
	}
	for n := 1; n <= 8; n++ {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var out [64]byte
			for i := 0; i < b.N; i++ {
				for j, blk := range blocks {
					idctScaledFast(blk, quants[j], n, out[:], n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)), "ns/block")
		})
	}
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
