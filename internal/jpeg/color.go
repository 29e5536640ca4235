package jpeg

// JFIF YCbCr ↔ RGB conversion in 16.16 fixed point. This is the "RGB"
// half of the paper's iDCT & RGB pipeline unit.

// ycbcrToRGB converts one pixel.
func ycbcrToRGB(y, cb, cr byte) (r, g, b byte) {
	yy := int32(y) << 16
	cb1 := int32(cb) - 128
	cr1 := int32(cr) - 128
	r = clamp8((yy + 91881*cr1 + 1<<15) >> 16)
	g = clamp8((yy - 22554*cb1 - 46802*cr1 + 1<<15) >> 16)
	b = clamp8((yy + 116130*cb1 + 1<<15) >> 16)
	return r, g, b
}

// rgbToYCbCr converts one pixel.
func rgbToYCbCr(r, g, b byte) (y, cb, cr byte) {
	r1, g1, b1 := int32(r), int32(g), int32(b)
	y = clamp8((19595*r1 + 38470*g1 + 7471*b1 + 1<<15) >> 16)
	cb = clamp8(((-11056*r1 - 21712*g1 + 32768*b1 + 1<<15) >> 16) + 128)
	cr = clamp8(((32768*r1 - 27440*g1 - 5328*b1 + 1<<15) >> 16) + 128)
	return y, cb, cr
}

// --- row conversion kernels ---

// ycbcrRowScalar converts one output row through the reference per-pixel
// converter: ycbcrRowFast's fallback for the subsampling shapes it does
// not specialise, and the reference it is byte-exact against. shx holds
// the per-component x subsampling shifts.
func ycbcrRowScalar(out, yRow, cbRow, crRow []byte, w int, shx [3]uint) {
	o := 0
	for x := 0; x < w; x++ {
		r, g, b := ycbcrToRGB(yRow[x>>shx[0]], cbRow[x>>shx[1]], crRow[x>>shx[2]])
		out[o] = r
		out[o+1] = g
		out[o+2] = b
		o += 3
	}
}

// ycbcrRowFast dispatches to a fixed-point specialisation of the row
// shape. Integer addition is associative, so hoisting the per-chroma
// products out of the pixel loop yields bit-identical sums; the clamp is
// the branchless sign-mask form, equal to clamp8 on every reachable
// input (cross-checked exhaustively in kernels_test.go).
func ycbcrRowFast(out, yRow, cbRow, crRow []byte, w int, shx [3]uint) {
	switch shx {
	case [3]uint{0, 1, 1}:
		ycbcrRowPaired(out, yRow, cbRow, crRow, w)
	case [3]uint{0, 0, 0}:
		ycbcrRowDirect(out, yRow, cbRow, crRow, w)
	default:
		ycbcrRowScalar(out, yRow, cbRow, crRow, w, shx)
	}
}

// ycbcrRowPaired handles x-subsampled chroma (4:2:0 and 4:2:2 rows): the
// three chroma contributions are computed once per chroma sample and
// shared by the two luma pixels that reference it, halving the multiply
// count of the reference converter.
func ycbcrRowPaired(out, yRow, cbRow, crRow []byte, w int) {
	o := 0
	x := 0
	for ; x+2 <= w; x += 2 {
		cb1 := int32(cbRow[x>>1]) - 128
		cr1 := int32(crRow[x>>1]) - 128
		rc := 91881*cr1 + 1<<15
		gc := -22554*cb1 - 46802*cr1 + 1<<15
		bc := 116130*cb1 + 1<<15
		yy := int32(yRow[x]) << 16
		out[o] = clamp8Branchless((yy + rc) >> 16)
		out[o+1] = clamp8Branchless((yy + gc) >> 16)
		out[o+2] = clamp8Branchless((yy + bc) >> 16)
		yy = int32(yRow[x+1]) << 16
		out[o+3] = clamp8Branchless((yy + rc) >> 16)
		out[o+4] = clamp8Branchless((yy + gc) >> 16)
		out[o+5] = clamp8Branchless((yy + bc) >> 16)
		o += 6
	}
	if x < w { // odd final pixel
		cb1 := int32(cbRow[x>>1]) - 128
		cr1 := int32(crRow[x>>1]) - 128
		yy := int32(yRow[x]) << 16
		out[o] = clamp8Branchless((yy + 91881*cr1 + 1<<15) >> 16)
		out[o+1] = clamp8Branchless((yy - 22554*cb1 - 46802*cr1 + 1<<15) >> 16)
		out[o+2] = clamp8Branchless((yy + 116130*cb1 + 1<<15) >> 16)
	}
}

// ycbcrRowDirect handles unsubsampled rows (4:4:4, and the y-only
// subsampled rows of 4:4:0): no sharing to exploit, but the branchless
// clamp and slice re-bounding still pay.
func ycbcrRowDirect(out, yRow, cbRow, crRow []byte, w int) {
	yRow, cbRow, crRow = yRow[:w], cbRow[:w], crRow[:w]
	o := 0
	for x := 0; x < w; x++ {
		cb1 := int32(cbRow[x]) - 128
		cr1 := int32(crRow[x]) - 128
		yy := int32(yRow[x]) << 16
		out[o] = clamp8Branchless((yy + 91881*cr1 + 1<<15) >> 16)
		out[o+1] = clamp8Branchless((yy - 22554*cb1 - 46802*cr1 + 1<<15) >> 16)
		out[o+2] = clamp8Branchless((yy + 116130*cb1 + 1<<15) >> 16)
		o += 3
	}
}

// clamp8Branchless is clamp8 without branches: v>>31 is all-ones exactly
// when v is negative, so the first mask clears negatives; (255-v)>>31 is
// all-ones exactly when the (now non-negative) v exceeds 255, and OR-ing
// all-ones in makes byte(v) == 255. Equal to clamp8 for every int32
// (kernels_test.go cross-checks a wide range plus the extremes).
func clamp8Branchless(v int32) byte {
	v &^= v >> 31
	v |= (255 - v) >> 31
	return byte(v)
}
