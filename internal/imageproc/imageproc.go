// Package imageproc implements the pixel-domain kernels of the
// preprocessing pipeline: resizing (the FPGA decoder's 2-way resizer
// unit), plus the augmentation operations the paper deliberately leaves
// on the GPU side (crop, flip, normalisation) and the layout conversion
// DL engines expect (HWC → planar CHW).
package imageproc

import (
	"fmt"
	"math/rand"

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

// Crop extracts the w×h window with top-left corner (x0, y0).
func Crop(src *pix.Image, x0, y0, w, h int) (*pix.Image, error) {
	if x0 < 0 || y0 < 0 || w <= 0 || h <= 0 || x0+w > src.W || y0+h > src.H {
		return nil, fmt.Errorf("imageproc: crop %d,%d %dx%d outside %dx%d", x0, y0, w, h, src.W, src.H)
	}
	dst := pix.New(w, h, src.C)
	c := src.C
	for y := 0; y < h; y++ {
		srow := src.Pix[((y0+y)*src.W+x0)*c:]
		copy(dst.Pix[y*w*c:(y+1)*w*c], srow[:w*c])
	}
	return dst, nil
}

// CenterCrop extracts a centred w×h window.
func CenterCrop(src *pix.Image, w, h int) (*pix.Image, error) {
	return Crop(src, (src.W-w)/2, (src.H-h)/2, w, h)
}

// RandomCrop extracts a uniformly random w×h window using rng.
func RandomCrop(src *pix.Image, w, h int, rng *rand.Rand) (*pix.Image, error) {
	if w > src.W || h > src.H {
		return nil, fmt.Errorf("imageproc: crop %dx%d larger than %dx%d", w, h, src.W, src.H)
	}
	x0, y0 := 0, 0
	if src.W > w {
		x0 = rng.Intn(src.W - w + 1)
	}
	if src.H > h {
		y0 = rng.Intn(src.H - h + 1)
	}
	return Crop(src, x0, y0, w, h)
}

// FlipHorizontal mirrors the image in place around the vertical axis.
func FlipHorizontal(m *pix.Image) {
	c := m.C
	for y := 0; y < m.H; y++ {
		row := m.Pix[y*m.W*c : (y+1)*m.W*c]
		for x := 0; x < m.W/2; x++ {
			xr := m.W - 1 - x
			for ch := 0; ch < c; ch++ {
				row[x*c+ch], row[xr*c+ch] = row[xr*c+ch], row[x*c+ch]
			}
		}
	}
}

// FlipVertical mirrors the image in place around the horizontal axis.
func FlipVertical(m *pix.Image) {
	c := m.C
	rowLen := m.W * c
	tmp := make([]byte, rowLen)
	for y := 0; y < m.H/2; y++ {
		top := m.Pix[y*rowLen : (y+1)*rowLen]
		bot := m.Pix[(m.H-1-y)*rowLen : (m.H-y)*rowLen]
		copy(tmp, top)
		copy(top, bot)
		copy(bot, tmp)
	}
}

// Normalize converts 8-bit HWC samples to float32 CHW with per-channel
// mean/std — the tensor layout and scaling DL engines consume. mean and
// std are in 0..255 sample units; std entries must be non-zero.
func Normalize(m *pix.Image, mean, std []float32) ([]float32, error) {
	if len(mean) != m.C || len(std) != m.C {
		return nil, fmt.Errorf("imageproc: mean/std length %d/%d, want %d", len(mean), len(std), m.C)
	}
	for _, s := range std {
		if s == 0 {
			return nil, fmt.Errorf("imageproc: zero std")
		}
	}
	out := make([]float32, m.C*m.H*m.W)
	plane := m.H * m.W
	for i := 0; i < plane; i++ {
		base := i * m.C
		for ch := 0; ch < m.C; ch++ {
			out[ch*plane+i] = (float32(m.Pix[base+ch]) - mean[ch]) / std[ch]
		}
	}
	return out, nil
}

// ToCHW converts interleaved HWC bytes to planar CHW bytes.
func ToCHW(m *pix.Image) []byte {
	out := make([]byte, len(m.Pix))
	plane := m.H * m.W
	for i := 0; i < plane; i++ {
		base := i * m.C
		for ch := 0; ch < m.C; ch++ {
			out[ch*plane+i] = m.Pix[base+ch]
		}
	}
	return out
}
