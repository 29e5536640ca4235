package jpeg

// The decode kernels: the integer iDCT at every scale N/8 (N = 8 is the
// full-resolution transform). The YCbCr→RGB row kernels are in color.go
// and the bilinear resizer's in internal/imageproc (resize_fast.go); both
// are byte-exact against their scalar references.
//
// The iDCT is fixed point, as the paper's iDCT unit is. idctConst holds
// the point-sampled basis scaledBasis[N] normalised to a DC gain of 1
// (libjpeg's convention), scaled by 2^13 and rounded; every product and
// sum is int32:
//
//   - pass 1 transforms the columns of the dequantised N×N corner and
//     descales with a rounding shift by 13 − 4, keeping 4 fractional
//     bits. libjpeg's islow keeps 2; with 2 the overall mean-square error
//     on IEEE 1180 blocks reads up to 0.019, at that standard's 0.02
//     limit, and with 4 it reads 0.002–0.005;
//   - pass 2 transforms the rows and descales by 13 + 4 + 3 (the 3 takes
//     back the 1/8 the unit DC gains left out) in toSample, which rounds
//     halves away from zero, adds the +128 level shift and clamps.
//
// The DC term is exact, so a DC-only block — and every block at N = 1
// and 2, whose basis products are all ±1/8 — reconstructs exactly to the
// float transform's sample. A sample wraps in int32 only beyond about
// ±2 000 before clamping; a plausible image stays within ±384. Against
// the float references idct and idctScaled (reference_test.go) every
// kernel meets the IEEE 1180 accuracy bounds — peak error 1, overall
// mean-square error 0.02, overall mean error 0.0015 — on that
// standard's random blocks (TestKernelIDCTScaledExactParity).
//
// Each N has its own kernel: a column loop and a row loop, each body the
// N-point 1-D transform written out in full with the symmetry of the
// basis, out[x] = E[x] + O[x] and out[N−1−x] = E[x] − O[x], where E sums
// the even-frequency terms and O the odd. There are no data-dependent
// branches — no DC-only or zero-column short cuts, which mispredict on
// real coefficients. Generic integer loops over N measured at most
// 1.13× (5/8) and 1.36× (3/8) faster than the float kernels these
// replaced, the straight-line bodies about 3× (EXPERIMENTS.md, "One
// integer N-point iDCT").

// KernelName names the decode kernels ("int13": 13-bit fixed-point
// iDCT), for the bench fingerprint.
func KernelName() string { return "int13" }

// Fixed-point layout of the two iDCT passes (see the file comment).
const (
	idctConstBits = 13
	pass1Bits     = 4
	pass1Shift    = idctConstBits - pass1Bits
	pass1Round    = 1 << (pass1Shift - 1)
	pass2Shift    = idctConstBits + pass1Bits + 3 // + 3: the 1/8 of the two unit DC gains
	pass2Bias     = 128<<pass2Shift + 1<<(pass2Shift-1)
)

// toSample descales a pass-2 sum to a sample: rounded to nearest with
// halves away from zero, as math.Round rounds the float transform's exact
// halves, then level-shifted and clamped.
func toSample(x int32) byte {
	return clamp8Branchless((x + x>>31 + pass2Bias) >> pass2Shift)
}

// idctScaledFast writes the s×s tile of blk, dequantised by q, into dst
// (row x at dst[x*stride:]), for s = 1…8.
func idctScaledFast(blk *block, q *QuantTable, s int, dst []byte, stride int) {
	switch s {
	case 1:
		idct1(blk, q, dst, stride)
	case 2:
		idct2(blk, q, dst, stride)
	case 3:
		idct3(blk, q, dst, stride)
	case 4:
		idct4(blk, q, dst, stride)
	case 5:
		idct5(blk, q, dst, stride)
	case 6:
		idct6(blk, q, dst, stride)
	case 7:
		idct7(blk, q, dst, stride)
	default:
		idct8(blk, q, dst, stride)
	}
}

// idctN is the N-point kernel: blk's N×N low-frequency corner,
// dequantised, to an N×N tile of dst. idct1 is the DC term alone, d/8,
// which both passes carry exactly.
func idct1(blk *block, q *QuantTable, dst []byte, _ int) {
	dst[0] = toSample(blk[0] * int32(q[0]) << (pass2Shift - 3))
}

func idct2(blk *block, q *QuantTable, dst []byte, stride int) {
	k := idctConst[2][1][0]
	var ws [2][2]int32 // ws[x][v]: column v after pass 1, row x before pass 2
	for v := range 2 {
		dc, odd := blk[v]*int32(q[v])<<idctConstBits+pass1Round, k*(blk[8+v]*int32(q[8+v]))
		ws[0][v], ws[1][v] = (dc+odd)>>pass1Shift, (dc-odd)>>pass1Shift
	}
	for x := range 2 {
		t, o := &ws[x], (*[2]byte)(dst[x*stride:])
		dc, odd := t[0]<<idctConstBits, k*t[1]
		o[0], o[1] = toSample(dc+odd), toSample(dc-odd)
	}
}

func idct3(blk *block, q *QuantTable, dst []byte, stride int) {
	k := &idctConst[3]
	var ws [3][3]int32 // ws[x][v]: column v after pass 1, row x before pass 2
	for v := range 3 {
		d0, d1, d2 := blk[v]*int32(q[v]), blk[8+v]*int32(q[8+v]), blk[16+v]*int32(q[16+v])
		dc := d0<<idctConstBits + pass1Round
		e0, o0 := dc+k[2][0]*d2, k[1][0]*d1
		ws[0][v], ws[2][v] = (e0+o0)>>pass1Shift, (e0-o0)>>pass1Shift
		ws[1][v] = (dc + k[2][1]*d2) >> pass1Shift
	}
	for x := range 3 {
		t, o := &ws[x], (*[3]byte)(dst[x*stride:])
		dc := t[0] << idctConstBits
		e0, o0 := dc+k[2][0]*t[2], k[1][0]*t[1]
		o[0], o[2] = toSample(e0+o0), toSample(e0-o0)
		o[1] = toSample(dc + k[2][1]*t[2])
	}
}

func idct4(blk *block, q *QuantTable, dst []byte, stride int) {
	k := &idctConst[4]
	var ws [4][4]int32 // ws[x][v]: column v after pass 1, row x before pass 2
	for v := range 4 {
		d0, d1, d2 := blk[v]*int32(q[v]), blk[8+v]*int32(q[8+v]), blk[16+v]*int32(q[16+v])
		d3 := blk[24+v] * int32(q[24+v])
		dc := d0<<idctConstBits + pass1Round
		e0, o0 := dc+k[2][0]*d2, k[1][0]*d1+k[3][0]*d3
		e1, o1 := dc+k[2][1]*d2, k[1][1]*d1+k[3][1]*d3
		ws[0][v], ws[3][v] = (e0+o0)>>pass1Shift, (e0-o0)>>pass1Shift
		ws[1][v], ws[2][v] = (e1+o1)>>pass1Shift, (e1-o1)>>pass1Shift
	}
	for x := range 4 {
		t, o := &ws[x], (*[4]byte)(dst[x*stride:])
		dc := t[0] << idctConstBits
		e0, o0 := dc+k[2][0]*t[2], k[1][0]*t[1]+k[3][0]*t[3]
		e1, o1 := dc+k[2][1]*t[2], k[1][1]*t[1]+k[3][1]*t[3]
		o[0], o[3] = toSample(e0+o0), toSample(e0-o0)
		o[1], o[2] = toSample(e1+o1), toSample(e1-o1)
	}
}

func idct5(blk *block, q *QuantTable, dst []byte, stride int) {
	k := &idctConst[5]
	var ws [5][5]int32 // ws[x][v]: column v after pass 1, row x before pass 2
	for v := range 5 {
		d0, d1, d2 := blk[v]*int32(q[v]), blk[8+v]*int32(q[8+v]), blk[16+v]*int32(q[16+v])
		d3, d4 := blk[24+v]*int32(q[24+v]), blk[32+v]*int32(q[32+v])
		dc := d0<<idctConstBits + pass1Round
		e0, o0 := dc+k[2][0]*d2+k[4][0]*d4, k[1][0]*d1+k[3][0]*d3
		e1, o1 := dc+k[2][1]*d2+k[4][1]*d4, k[1][1]*d1+k[3][1]*d3
		ws[0][v], ws[4][v] = (e0+o0)>>pass1Shift, (e0-o0)>>pass1Shift
		ws[1][v], ws[3][v] = (e1+o1)>>pass1Shift, (e1-o1)>>pass1Shift
		ws[2][v] = (dc + k[2][2]*d2 + k[4][2]*d4) >> pass1Shift
	}
	for x := range 5 {
		t, o := &ws[x], (*[5]byte)(dst[x*stride:])
		dc := t[0] << idctConstBits
		e0, o0 := dc+k[2][0]*t[2]+k[4][0]*t[4], k[1][0]*t[1]+k[3][0]*t[3]
		e1, o1 := dc+k[2][1]*t[2]+k[4][1]*t[4], k[1][1]*t[1]+k[3][1]*t[3]
		o[0], o[4] = toSample(e0+o0), toSample(e0-o0)
		o[1], o[3] = toSample(e1+o1), toSample(e1-o1)
		o[2] = toSample(dc + k[2][2]*t[2] + k[4][2]*t[4])
	}
}

func idct6(blk *block, q *QuantTable, dst []byte, stride int) {
	k := &idctConst[6]
	var ws [6][6]int32 // ws[x][v]: column v after pass 1, row x before pass 2
	for v := range 6 {
		d0, d1, d2 := blk[v]*int32(q[v]), blk[8+v]*int32(q[8+v]), blk[16+v]*int32(q[16+v])
		d3, d4, d5 := blk[24+v]*int32(q[24+v]), blk[32+v]*int32(q[32+v]), blk[40+v]*int32(q[40+v])
		dc := d0<<idctConstBits + pass1Round
		e0 := dc + k[2][0]*d2 + k[4][0]*d4
		o0 := k[1][0]*d1 + k[3][0]*d3 + k[5][0]*d5
		e1 := dc + k[2][1]*d2 + k[4][1]*d4
		o1 := k[1][1]*d1 + k[3][1]*d3 + k[5][1]*d5
		e2 := dc + k[2][2]*d2 + k[4][2]*d4
		o2 := k[1][2]*d1 + k[3][2]*d3 + k[5][2]*d5
		ws[0][v], ws[5][v] = (e0+o0)>>pass1Shift, (e0-o0)>>pass1Shift
		ws[1][v], ws[4][v] = (e1+o1)>>pass1Shift, (e1-o1)>>pass1Shift
		ws[2][v], ws[3][v] = (e2+o2)>>pass1Shift, (e2-o2)>>pass1Shift
	}
	for x := range 6 {
		t, o := &ws[x], (*[6]byte)(dst[x*stride:])
		dc := t[0] << idctConstBits
		e0 := dc + k[2][0]*t[2] + k[4][0]*t[4]
		o0 := k[1][0]*t[1] + k[3][0]*t[3] + k[5][0]*t[5]
		e1 := dc + k[2][1]*t[2] + k[4][1]*t[4]
		o1 := k[1][1]*t[1] + k[3][1]*t[3] + k[5][1]*t[5]
		e2 := dc + k[2][2]*t[2] + k[4][2]*t[4]
		o2 := k[1][2]*t[1] + k[3][2]*t[3] + k[5][2]*t[5]
		o[0], o[5] = toSample(e0+o0), toSample(e0-o0)
		o[1], o[4] = toSample(e1+o1), toSample(e1-o1)
		o[2], o[3] = toSample(e2+o2), toSample(e2-o2)
	}
}

func idct7(blk *block, q *QuantTable, dst []byte, stride int) {
	k := &idctConst[7]
	var ws [7][7]int32 // ws[x][v]: column v after pass 1, row x before pass 2
	for v := range 7 {
		d0, d1, d2 := blk[v]*int32(q[v]), blk[8+v]*int32(q[8+v]), blk[16+v]*int32(q[16+v])
		d3, d4, d5 := blk[24+v]*int32(q[24+v]), blk[32+v]*int32(q[32+v]), blk[40+v]*int32(q[40+v])
		d6 := blk[48+v] * int32(q[48+v])
		dc := d0<<idctConstBits + pass1Round
		e0 := dc + k[2][0]*d2 + k[4][0]*d4 + k[6][0]*d6
		o0 := k[1][0]*d1 + k[3][0]*d3 + k[5][0]*d5
		e1 := dc + k[2][1]*d2 + k[4][1]*d4 + k[6][1]*d6
		o1 := k[1][1]*d1 + k[3][1]*d3 + k[5][1]*d5
		e2 := dc + k[2][2]*d2 + k[4][2]*d4 + k[6][2]*d6
		o2 := k[1][2]*d1 + k[3][2]*d3 + k[5][2]*d5
		ws[0][v], ws[6][v] = (e0+o0)>>pass1Shift, (e0-o0)>>pass1Shift
		ws[1][v], ws[5][v] = (e1+o1)>>pass1Shift, (e1-o1)>>pass1Shift
		ws[2][v], ws[4][v] = (e2+o2)>>pass1Shift, (e2-o2)>>pass1Shift
		ws[3][v] = (dc + k[2][3]*d2 + k[4][3]*d4 + k[6][3]*d6) >> pass1Shift
	}
	for x := range 7 {
		t, o := &ws[x], (*[7]byte)(dst[x*stride:])
		dc := t[0] << idctConstBits
		e0 := dc + k[2][0]*t[2] + k[4][0]*t[4] + k[6][0]*t[6]
		o0 := k[1][0]*t[1] + k[3][0]*t[3] + k[5][0]*t[5]
		e1 := dc + k[2][1]*t[2] + k[4][1]*t[4] + k[6][1]*t[6]
		o1 := k[1][1]*t[1] + k[3][1]*t[3] + k[5][1]*t[5]
		e2 := dc + k[2][2]*t[2] + k[4][2]*t[4] + k[6][2]*t[6]
		o2 := k[1][2]*t[1] + k[3][2]*t[3] + k[5][2]*t[5]
		o[0], o[6] = toSample(e0+o0), toSample(e0-o0)
		o[1], o[5] = toSample(e1+o1), toSample(e1-o1)
		o[2], o[4] = toSample(e2+o2), toSample(e2-o2)
		o[3] = toSample(dc + k[2][3]*t[2] + k[4][3]*t[4] + k[6][3]*t[6])
	}
}

func idct8(blk *block, q *QuantTable, dst []byte, stride int) {
	k := &idctConst[8]
	var ws [8][8]int32 // ws[x][v]: column v after pass 1, row x before pass 2
	for v := range 8 {
		d0, d1, d2 := blk[v]*int32(q[v]), blk[8+v]*int32(q[8+v]), blk[16+v]*int32(q[16+v])
		d3, d4, d5 := blk[24+v]*int32(q[24+v]), blk[32+v]*int32(q[32+v]), blk[40+v]*int32(q[40+v])
		d6, d7 := blk[48+v]*int32(q[48+v]), blk[56+v]*int32(q[56+v])
		dc := d0<<idctConstBits + pass1Round
		e0 := dc + k[2][0]*d2 + k[4][0]*d4 + k[6][0]*d6
		o0 := k[1][0]*d1 + k[3][0]*d3 + k[5][0]*d5 + k[7][0]*d7
		e1 := dc + k[2][1]*d2 + k[4][1]*d4 + k[6][1]*d6
		o1 := k[1][1]*d1 + k[3][1]*d3 + k[5][1]*d5 + k[7][1]*d7
		e2 := dc + k[2][2]*d2 + k[4][2]*d4 + k[6][2]*d6
		o2 := k[1][2]*d1 + k[3][2]*d3 + k[5][2]*d5 + k[7][2]*d7
		e3 := dc + k[2][3]*d2 + k[4][3]*d4 + k[6][3]*d6
		o3 := k[1][3]*d1 + k[3][3]*d3 + k[5][3]*d5 + k[7][3]*d7
		ws[0][v], ws[7][v] = (e0+o0)>>pass1Shift, (e0-o0)>>pass1Shift
		ws[1][v], ws[6][v] = (e1+o1)>>pass1Shift, (e1-o1)>>pass1Shift
		ws[2][v], ws[5][v] = (e2+o2)>>pass1Shift, (e2-o2)>>pass1Shift
		ws[3][v], ws[4][v] = (e3+o3)>>pass1Shift, (e3-o3)>>pass1Shift
	}
	for x := range 8 {
		t, o := &ws[x], (*[8]byte)(dst[x*stride:])
		dc := t[0] << idctConstBits
		e0 := dc + k[2][0]*t[2] + k[4][0]*t[4] + k[6][0]*t[6]
		o0 := k[1][0]*t[1] + k[3][0]*t[3] + k[5][0]*t[5] + k[7][0]*t[7]
		e1 := dc + k[2][1]*t[2] + k[4][1]*t[4] + k[6][1]*t[6]
		o1 := k[1][1]*t[1] + k[3][1]*t[3] + k[5][1]*t[5] + k[7][1]*t[7]
		e2 := dc + k[2][2]*t[2] + k[4][2]*t[4] + k[6][2]*t[6]
		o2 := k[1][2]*t[1] + k[3][2]*t[3] + k[5][2]*t[5] + k[7][2]*t[7]
		e3 := dc + k[2][3]*t[2] + k[4][3]*t[4] + k[6][3]*t[6]
		o3 := k[1][3]*t[1] + k[3][3]*t[3] + k[5][3]*t[5] + k[7][3]*t[7]
		o[0], o[7] = toSample(e0+o0), toSample(e0-o0)
		o[1], o[6] = toSample(e1+o1), toSample(e1-o1)
		o[2], o[5] = toSample(e2+o2), toSample(e2-o2)
		o[3], o[4] = toSample(e3+o3), toSample(e3-o3)
	}
}
