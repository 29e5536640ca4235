// Package imageproc implements the pixel-domain kernel of the
// preprocessing pipeline: resizing, the FPGA decoder's resizer unit.
// The augmentations the paper leaves on the GPU side (crop, flip,
// normalisation) are not part of this reproduction.
package imageproc

import (
	"fmt"

	"dlbooster/internal/pix"
)

// Interpolation selects the resize filter.
type Interpolation int

const (
	// Nearest replicates the closest source sample — what a minimal
	// hardware resizer does.
	Nearest Interpolation = iota
	// Bilinear blends the four closest samples; the decoder mirror used
	// for the paper experiments implements this filter.
	Bilinear
)

// String implements fmt.Stringer for benchmark labels.
func (ip Interpolation) String() string {
	switch ip {
	case Nearest:
		return "nearest"
	case Bilinear:
		return "bilinear"
	default:
		return fmt.Sprintf("Interpolation(%d)", int(ip))
	}
}

// Resize scales src to dw×dh. It allocates the destination; ResizeInto
// reuses one.
func Resize(src *pix.Image, dw, dh int, ip Interpolation) (*pix.Image, error) {
	dst := pix.New(dw, dh, src.C)
	if err := ResizeInto(src, dst, ip); err != nil {
		return nil, err
	}
	return dst, nil
}

// ResizeInto scales src into dst, which fixes the output geometry. dst
// must have the same channel count as src. This is the allocation-free
// form the pipeline uses when writing directly into HugePage batch
// buffers.
func ResizeInto(src, dst *pix.Image, ip Interpolation) error {
	if src.C != dst.C {
		return fmt.Errorf("imageproc: channel mismatch %d vs %d", src.C, dst.C)
	}
	if src.W == dst.W && src.H == dst.H {
		// Identity geometry: both filters degenerate to a copy (the
		// bilinear half-pixel-centre weights are exactly zero), so skip
		// the per-pixel arithmetic. The decode-to-scale path hits this
		// whenever the scaled reconstruction lands on the target size.
		copy(dst.Pix, src.Pix)
		return nil
	}
	switch ip {
	case Nearest:
		resizeNearest(src, dst)
	case Bilinear:
		resizeBilinear(src, dst)
	default:
		return fmt.Errorf("imageproc: unknown interpolation %d", ip)
	}
	return nil
}

func resizeNearest(src, dst *pix.Image) {
	c := src.C
	for y := 0; y < dst.H; y++ {
		sy := y * src.H / dst.H
		srow := src.Pix[sy*src.W*c:]
		drow := dst.Pix[y*dst.W*c:]
		for x := 0; x < dst.W; x++ {
			sx := x * src.W / dst.W
			copy(drow[x*c:x*c+c], srow[sx*c:sx*c+c])
		}
	}
}

// resizeBilinear runs the fast kernel (resize_fast.go), or
// ResizeBilinearScalar for the geometries and layouts it does not cover.
func resizeBilinear(src, dst *pix.Image) {
	if !resizeBilinearFast(src, dst) {
		ResizeBilinearScalar(src, dst)
	}
}

// ResizeBilinearScalar resizes src into dst with 8-bit fixed-point
// weights and half-pixel centre alignment, the conventional definition.
// It is the reference the fast kernel is byte-exact against, exported so
// the decoder's whole-decode parity test can render through it too.
func ResizeBilinearScalar(src, dst *pix.Image) {
	c := src.C
	const fbits = 8
	const fone = 1 << fbits
	for y := 0; y < dst.H; y++ {
		// Source coordinate of the destination pixel centre.
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
		row0 := src.Pix[sy0*src.W*c:]
		row1 := src.Pix[sy1*src.W*c:]
		drow := dst.Pix[y*dst.W*c:]
		for x := 0; x < dst.W; x++ {
			sxf := (2*x+1)*src.W*fone/(2*dst.W) - fone/2
			if sxf < 0 {
				sxf = 0
			}
			sx0 := sxf >> fbits
			wx1 := sxf & (fone - 1)
			sx1 := sx0 + 1
			if sx1 >= src.W {
				sx1 = src.W - 1
			}
			for ch := 0; ch < c; ch++ {
				p00 := int(row0[sx0*c+ch])
				p01 := int(row0[sx1*c+ch])
				p10 := int(row1[sx0*c+ch])
				p11 := int(row1[sx1*c+ch])
				top := p00*(fone-wx1) + p01*wx1
				bot := p10*(fone-wx1) + p11*wx1
				v := (top*(fone-wy1) + bot*wy1 + 1<<(2*fbits-1)) >> (2 * fbits)
				drow[x*c+ch] = byte(v)
			}
		}
	}
}
