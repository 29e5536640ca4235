package imageproc

import "dlbooster/internal/pix"

// The fast bilinear kernel. The reference ResizeBilinearScalar recomputes
// the horizontal source offsets and weights for every row even though
// they depend only on x; this kernel hoists them into stack tables built
// once per image and unrolls the channel loop for the two layouts the
// pipeline produces (RGB and grayscale). The per-sample arithmetic is
// exactly the reference's — same fixed-point weights, same rounding —
// so the output is byte-identical (pinned in resize_fast_test.go and by
// jpeg's whole-decode reference parity test, since DecodeScaledInto
// fuses this resizer into its last stage).

// maxFastResizeWidth bounds the stack-allocated horizontal tables. Wider
// outputs fall back to the scalar kernel: preprocessing targets are
// small (224/299/96-class), so the bound is never hit in practice, and
// a heap-allocated table would break the decode path's zero-allocation
// pin.
const maxFastResizeWidth = 1024

// resizeBilinearFast resizes src into dst and reports true, or reports
// false (touching nothing) when the geometry or layout is out of scope.
func resizeBilinearFast(src, dst *pix.Image) bool {
	c := src.C
	if dst.W > maxFastResizeWidth || (c != 1 && c != 3) {
		return false
	}
	const fbits = 8
	const fone = 1 << fbits
	dw := dst.W
	// Horizontal tables: byte offsets of the two taps and the blend
	// weight, per destination column.
	var a0s, a1s, wxs [maxFastResizeWidth]int32
	for x := 0; x < dw; x++ {
		sxf := (2*x+1)*src.W*fone/(2*dw) - fone/2
		if sxf < 0 {
			sxf = 0
		}
		sx0 := sxf >> fbits
		wx1 := sxf & (fone - 1)
		sx1 := sx0 + 1
		if sx1 >= src.W {
			sx1 = src.W - 1
		}
		a0s[x] = int32(sx0 * c)
		a1s[x] = int32(sx1 * c)
		wxs[x] = int32(wx1)
	}
	for y := 0; y < dst.H; y++ {
		syf := (2*y+1)*src.H*fone/(2*dst.H) - fone/2
		if syf < 0 {
			syf = 0
		}
		sy0 := syf >> fbits
		wy1 := syf & (fone - 1)
		sy1 := sy0 + 1
		if sy1 >= src.H {
			sy1 = src.H - 1
		}
		wy0 := fone - wy1
		row0 := src.Pix[sy0*src.W*c:]
		row1 := src.Pix[sy1*src.W*c:]
		drow := dst.Pix[y*dw*c : (y+1)*dw*c]
		if c == 1 {
			for x := 0; x < dw; x++ {
				a0, a1 := a0s[x], a1s[x]
				wx1 := int(wxs[x])
				wx0 := fone - wx1
				top := int(row0[a0])*wx0 + int(row0[a1])*wx1
				bot := int(row1[a0])*wx0 + int(row1[a1])*wx1
				drow[x] = byte((top*wy0 + bot*wy1 + 1<<(2*fbits-1)) >> (2 * fbits))
			}
			continue
		}
		o := 0
		for x := 0; x < dw; x++ {
			a0, a1 := int(a0s[x]), int(a1s[x])
			wx1 := int(wxs[x])
			wx0 := fone - wx1
			top := int(row0[a0])*wx0 + int(row0[a1])*wx1
			bot := int(row1[a0])*wx0 + int(row1[a1])*wx1
			drow[o] = byte((top*wy0 + bot*wy1 + 1<<(2*fbits-1)) >> (2 * fbits))
			top = int(row0[a0+1])*wx0 + int(row0[a1+1])*wx1
			bot = int(row1[a0+1])*wx0 + int(row1[a1+1])*wx1
			drow[o+1] = byte((top*wy0 + bot*wy1 + 1<<(2*fbits-1)) >> (2 * fbits))
			top = int(row0[a0+2])*wx0 + int(row0[a1+2])*wx1
			bot = int(row1[a0+2])*wx0 + int(row1[a1+2])*wx1
			drow[o+2] = byte((top*wy0 + bot*wy1 + 1<<(2*fbits-1)) >> (2 * fbits))
			o += 3
		}
	}
	return true
}
