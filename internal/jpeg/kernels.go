package jpeg

// The fast decode kernels: the iDCT (full and scaled) and YCbCr→RGB
// loops every decode runs. The bilinear resizer's counterpart lives in
// internal/imageproc (resize_fast.go).
//
// Each kernel is numerically EXACT against a reference — byte-for-byte
// on every input, not PSNR-close. The float iDCT references idct and
// idctScaled live in reference_test.go; ycbcrRowScalar stays here
// because ycbcrRowFast falls back to it for layouts it does not cover.
// Exactness rules out approximating the float64 iDCT with fixed point;
// instead the fast iDCT wins by restructuring the same float arithmetic
// (hoisting the int32 dequantise-and-convert out of the basis loops,
// unrolling the 1-, 2- and 4-point transforms, and skipping exactly-zero
// coefficients and columns — adding ±0.0 to a float sum is an identity,
// so sparsity short-cuts are bit-exact), while the YCbCr and resize
// kernels are genuine fixed-point/SWAR restructurings of loops that
// were already integer: hoisted per-chroma-sample products shared by
// the 2×-subsampled pixel pair, branchless sign-mask clamps, and
// precomputed resize weight tables. Parity is pinned per kernel and
// over whole decodes (kernels_test.go, reference_test.go).

import "math"

// KernelName names the decode kernels ("swar": pure-Go SWAR), for the
// bench fingerprint.
func KernelName() string { return "swar" }

// --- fast iDCT kernels -------------------------------------------------

// idctFast is the sparsity-specialised full 8×8 inverse transform. It
// computes exactly the sums idct computes, in the same order, but (a)
// converts each nonzero coefficient to float64 once instead of once per
// output column, (b) skips coefficients that are exactly zero (a ±0.0
// addend never changes a float sum), and (c) short-circuits the two
// overwhelmingly common shapes — a DC-only column (the 8-point DC basis
// row is constant) and a DC-only block (all 64 samples equal).
func idctFast(coef *block, out *[64]byte) {
	var tmp [64]float64
	var cols [8]int8
	ncols := 0
	dcCol := false
	for v := 0; v < 8; v++ {
		// Compact the column's nonzero coefficients, ascending u, so the
		// accumulation order matches the reference loop.
		var fv [8]float64
		var iu [8]int8
		n := 0
		for u := 0; u < 8; u++ {
			if c := coef[u*8+v]; c != 0 {
				fv[n] = float64(c)
				iu[n] = int8(u)
				n++
			}
		}
		if n == 0 {
			continue // tmp column stays exactly zero
		}
		cols[ncols] = int8(v)
		ncols++
		if n == 1 && iu[0] == 0 {
			// DC-only column: cosBasis[0][x] is the same constant for
			// every x, so the whole column is one multiply.
			if v == 0 {
				dcCol = true
			}
			t := cosBasis[0][0] * fv[0]
			for x := 0; x < 8; x++ {
				tmp[x*8+v] = t
			}
			continue
		}
		for x := 0; x < 8; x++ {
			var s float64
			for k := 0; k < n; k++ {
				s += cosBasis[iu[k]][x] * fv[k]
			}
			tmp[x*8+v] = s
		}
	}
	switch {
	case ncols == 0:
		// Empty block: every sample is clamp8(round(0)+128).
		for i := range out {
			out[i] = 128
		}
		return
	case ncols == 1 && cols[0] == 0 && dcCol:
		// DC-only block: one value fills all 64 samples.
		val := clamp8(int32(math.Round(cosBasis[0][0]*tmp[0])) + 128)
		for i := range out {
			out[i] = val
		}
		return
	}
	for x := 0; x < 8; x++ {
		row := tmp[x*8 : x*8+8 : x*8+8]
		for y := 0; y < 8; y++ {
			var s float64
			for k := 0; k < ncols; k++ {
				v := cols[k]
				s += cosBasis[v][y] * row[v]
			}
			out[x*8+y] = clamp8(int32(math.Round(s)) + 128)
		}
	}
}

// idctScaledFast writes the s×s tile row-major into out[:s*s]: unrolled
// kernels for s = 1, 2 and 4, the generic one for 3, 5, 6 and 7. Each is
// the reference idctScaled with the dequantise-and-convert hoisted out of
// the basis loops — the same float operations in the same order, so the
// output is bit-identical.
func idctScaledFast(blk *block, q *QuantTable, s int, out *[64]byte) {
	switch s {
	case 1:
		idctScaled1Fast(blk, q, out)
	case 2:
		idctScaled2Fast(blk, q, out)
	case 4:
		idctScaled4Fast(blk, q, out)
	default:
		idctScaledNFast(blk, q, s, out)
	}
}

// idctScaledNFast is the n-point transform over the n×n low-frequency
// corner, for any n < 8. Each nonzero coefficient is dequantised and
// converted once and its basis row added into its column; all-zero
// columns are skipped, empty and DC-only blocks fill the tile with one
// value, and every sum still adds its terms in the reference's order.
func idctScaledNFast(blk *block, q *QuantTable, n int, out *[64]byte) {
	b := &scaledBasis[n]
	var tmp [8][8]float64 // tmp[v][x] = Σ_u b[u][x]·d(u,v)
	var cols [8]int
	ncols, nnz := 0, 0
	for v := 0; v < n; v++ {
		col := &tmp[v]
		k := 0
		for u := 0; u < n; u++ {
			if c := blk[u*8+v] * int32(q[u*8+v]); c != 0 {
				d := float64(c)
				for x, bx := range b[u][:n] {
					col[x] += bx * d
				}
				k++
			}
		}
		if k > 0 {
			cols[ncols] = v
			ncols++
			nnz += k
		}
	}
	if d00 := blk[0] * int32(q[0]); nnz <= 1 && (nnz == 0 || d00 != 0) {
		// Empty or DC-only block: every sample is the DC basis product
		// (b[0][x] is one constant), exactly as the two passes compute it.
		val := clamp8(int32(math.Round(b[0][0]*(b[0][0]*float64(d00)))) + 128)
		for i := range out[:n*n] {
			out[i] = val
		}
		return
	}
	for x := 0; x < n; x++ {
		var acc [8]float64 // acc[y] = Σ_v b[v][y]·tmp[v][x], ascending v
		for _, v := range cols[:ncols] {
			t := tmp[v][x]
			for y, by := range b[v][:n] {
				acc[y] += by * t
			}
		}
		for y, s := range acc[:n] {
			out[x*n+y] = clamp8(int32(math.Round(s)) + 128)
		}
	}
}

// idctScaled1Fast: the 1-point transform touches only the DC
// coefficient; two multiplies reproduce the reference's two passes.
func idctScaled1Fast(blk *block, q *QuantTable, out *[64]byte) {
	b0 := scaledBasis[1][0][0]
	out[0] = clamp8(int32(math.Round(b0*(b0*float64(blk[0]*int32(q[0]))))) + 128)
}

// idctScaled2Fast: the 2-point transform over the 2×2 low-frequency
// corner, unrolled, with a DC-only short-cut for EOB-after-DC blocks.
func idctScaled2Fast(blk *block, q *QuantTable, out *[64]byte) {
	b := &scaledBasis[2]
	d00 := float64(blk[0] * int32(q[0])) // (u=0, v=0)
	if blk[1]|blk[8]|blk[9] == 0 {
		val := clamp8(int32(math.Round(b[0][0]*(b[0][0]*d00))) + 128)
		out[0], out[1], out[2], out[3] = val, val, val, val
		return
	}
	d01 := float64(blk[1] * int32(q[1])) // (u=0, v=1)
	d10 := float64(blk[8] * int32(q[8])) // (u=1, v=0)
	d11 := float64(blk[9] * int32(q[9])) // (u=1, v=1)
	// Columns: tmp[x*2+v] = Σ_u b[u][x]·d(u,v), ascending u.
	t00 := b[0][0]*d00 + b[1][0]*d10
	t01 := b[0][0]*d01 + b[1][0]*d11
	t10 := b[0][1]*d00 + b[1][1]*d10
	t11 := b[0][1]*d01 + b[1][1]*d11
	// Rows: out[x*2+y] = Σ_v b[v][y]·tmp[x*2+v], ascending v.
	out[0] = clamp8(int32(math.Round(b[0][0]*t00+b[1][0]*t01)) + 128)
	out[1] = clamp8(int32(math.Round(b[0][1]*t00+b[1][1]*t01)) + 128)
	out[2] = clamp8(int32(math.Round(b[0][0]*t10+b[1][0]*t11)) + 128)
	out[3] = clamp8(int32(math.Round(b[0][1]*t10+b[1][1]*t11)) + 128)
}

// idctScaled4Fast: the 4-point transform over the 4×4 low-frequency
// corner. Coefficients are dequantised and converted once (the
// reference redoes both per output column), all-zero columns are
// skipped exactly, and the basis products are unrolled.
func idctScaled4Fast(blk *block, q *QuantTable, out *[64]byte) {
	b := &scaledBasis[4]
	if blk[1]|blk[2]|blk[3]|blk[8]|blk[9]|blk[10]|blk[11]|
		blk[16]|blk[17]|blk[18]|blk[19]|blk[24]|blk[25]|blk[26]|blk[27] == 0 {
		// EOB after DC: sixteen identical samples.
		val := clamp8(int32(math.Round(b[0][0]*(b[0][0]*float64(blk[0]*int32(q[0]))))) + 128)
		for i := range out[:16] {
			out[i] = val
		}
		return
	}
	var tmp [16]float64
	var zero [4]bool
	for v := 0; v < 4; v++ {
		c0 := blk[v] * int32(q[v])
		c1 := blk[8+v] * int32(q[8+v])
		c2 := blk[16+v] * int32(q[16+v])
		c3 := blk[24+v] * int32(q[24+v])
		if c0|c1|c2|c3 == 0 {
			zero[v] = true // tmp column stays exactly zero
			continue
		}
		d0, d1, d2, d3 := float64(c0), float64(c1), float64(c2), float64(c3)
		tmp[v] = b[0][0]*d0 + b[1][0]*d1 + b[2][0]*d2 + b[3][0]*d3
		tmp[4+v] = b[0][1]*d0 + b[1][1]*d1 + b[2][1]*d2 + b[3][1]*d3
		tmp[8+v] = b[0][2]*d0 + b[1][2]*d1 + b[2][2]*d2 + b[3][2]*d3
		tmp[12+v] = b[0][3]*d0 + b[1][3]*d1 + b[2][3]*d2 + b[3][3]*d3
	}
	for x := 0; x < 4; x++ {
		t0, t1, t2, t3 := tmp[x*4], tmp[x*4+1], tmp[x*4+2], tmp[x*4+3]
		for y := 0; y < 4; y++ {
			var s float64
			if !zero[0] {
				s += b[0][y] * t0
			}
			if !zero[1] {
				s += b[1][y] * t1
			}
			if !zero[2] {
				s += b[2][y] * t2
			}
			if !zero[3] {
				s += b[3][y] * t3
			}
			out[x*4+y] = clamp8(int32(math.Round(s)) + 128)
		}
	}
}
