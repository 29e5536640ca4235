package jpeg

// Decode-to-scale fast path: the libjpeg scale_denom trick. A JPEG whose
// decoded pixels are only ever downsampled to a small training/serving
// resolution does not need a full 8×8 inverse transform per block — an
// s-point iDCT of the s² lowest-frequency coefficients (s ∈ {1, 2, 4})
// reconstructs each block directly at s×s, cutting iDCT and colour
// conversion work by up to 64× before the residual bilinear pass. The
// paper's decoder feeds a resizer for exactly this reason (§3.3): the
// target resolution is known before reconstruction starts, so work that
// cannot survive the resize is never done.

import (
	"math"
	"sync"

	"dlbooster/internal/imageproc"
	"dlbooster/internal/pix"
)

// scaledBasis[si][u][x] = alpha(u)/2 · cos((2x+1)uπ/(2s)) for s = 1<<si.
// Keeping the 8-point amplitude alpha(u)/2 (rather than the orthonormal
// s-point √(2/s)) makes the s×s output equal the full DCT interpolation
// point-sampled at the s×s tile centres, and keeps a DC-only block
// bit-identical to the full path (c00/8 + 128).
var scaledBasis = func() (b [3][4][4]float64) {
	for si, s := range [3]int{1, 2, 4} {
		for u := 0; u < s; u++ {
			alpha := 1.0
			if u == 0 {
				alpha = 1 / math.Sqrt2
			}
			for x := 0; x < s; x++ {
				b[si][u][x] = alpha / 2 * math.Cos(float64(2*x+1)*float64(u)*math.Pi/float64(2*s))
			}
		}
	}
	return b
}()

// ScaleFor returns the smallest supported iDCT scale s ∈ {1, 2, 4, 8}
// whose scaled output (see ScaledSize) still covers dstW×dstH, so the
// residual bilinear pass only ever downsamples. 8 means full decode:
// either the target is at least the source resolution, or no target is
// known (dstW/dstH ≤ 0).
func ScaleFor(w, h, dstW, dstH int) int {
	if dstW <= 0 || dstH <= 0 {
		return 8
	}
	for _, s := range [3]int{1, 2, 4} {
		if ceilDiv(w*s, 8) >= dstW && ceilDiv(h*s, 8) >= dstH {
			return s
		}
	}
	return 8
}

// ScaledSize returns the output geometry of a w×h image reconstructed at
// scale s.
func ScaledSize(w, h, s int) (int, int) {
	return ceilDiv(w*s, 8), ceilDiv(h*s, 8)
}

// Scratch holds every buffer a decode needs — parsed header (tables
// inline), coefficient grids, sample planes and the scaled-RGB
// intermediate — so a worker that reuses one performs zero steady-state
// heap allocations per image. A Scratch is not safe for concurrent use;
// give each worker its own, or pass nil to borrow one from an internal
// pool.
type Scratch struct {
	hdr Header
	co  Coefficients
	pl  Planes
	rgb pix.Image // scaled-dims intermediate when a residual resize is needed
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// ErrChannelMismatch reports a stream whose component count does not
// match the destination image's channel count.
var ErrChannelMismatch = UnsupportedError("decoded channels do not match destination")

// DecodeScaledInto decodes data at the smallest iDCT scale covering
// dst's geometry, runs the residual bilinear resize, and writes the
// result directly into dst (typically a batch-slot view) with no
// intermediate full-resolution image. It returns the scale used: 8 is
// the exact-parity full decode (byte-identical to Decode + ResizeInto),
// taken when the target is not strictly smaller than the source or the
// stream is progressive; 1, 2 or 4 is the fast path.
//
// sc may be nil (a pooled Scratch is borrowed) but a dedicated
// per-worker Scratch makes steady-state decoding allocation-free.
func DecodeScaledInto(data []byte, dst *pix.Image, sc *Scratch) (scale int, err error) {
	if dst == nil || len(dst.Pix) != dst.W*dst.H*dst.C {
		return 0, FormatError("destination image geometry does not match its buffer")
	}
	if sc == nil {
		sc = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(sc)
	}
	h := &sc.hdr
	if err := h.ParseInto(data); err != nil {
		if err == ErrProgressive {
			// Multi-scan streams cannot run the staged pipeline; decode
			// them fully in software and resize.
			img, perr := decodeProgressive(data)
			if perr != nil {
				return 0, perr
			}
			if img.C != dst.C {
				return 0, ErrChannelMismatch
			}
			return 8, imageproc.ResizeInto(img, dst, imageproc.Bilinear)
		}
		return 0, err
	}
	channels := 3
	if len(h.Components) == 1 {
		channels = 1
	}
	if channels != dst.C {
		return 0, ErrChannelMismatch
	}
	scale = ScaleFor(h.Width, h.Height, dst.W, dst.H)
	if err := h.EntropyDecodeInto(&sc.co); err != nil {
		return 0, err
	}
	if err := sc.co.reconstructInto(&sc.pl, scale); err != nil {
		return 0, err
	}
	sw, sh := ScaledSize(h.Width, h.Height, scale)
	if sw == dst.W && sh == dst.H {
		// The scaled output already has the target geometry (a bilinear
		// pass at identical dims is an exact copy), so render straight
		// into the destination.
		sc.pl.renderInto(dst)
		return scale, nil
	}
	sc.rgb.Reset(sw, sh, channels)
	sc.pl.renderInto(&sc.rgb)
	return scale, imageproc.ResizeInto(&sc.rgb, dst, imageproc.Bilinear)
}

// ReconstructScaled runs the iDCT unit at the smallest scale covering
// dstW×dstH and renders the scaled image with fused upsample + colour
// conversion. At scale 8 the result is byte-identical to
// Reconstruct + ToImage.
func (co *Coefficients) ReconstructScaled(dstW, dstH int) (*pix.Image, int, error) {
	var p Planes
	img := new(pix.Image)
	s, err := co.ReconstructScaledInto(&p, img, dstW, dstH)
	if err != nil {
		return nil, 0, err
	}
	return img, s, nil
}

// ReconstructScaledInto is the reusable form of ReconstructScaled: the
// sample planes go through p and the rendered image into img, both grown
// on demand and overwritten in full, so a caller that keeps them decodes
// without allocating.
func (co *Coefficients) ReconstructScaledInto(p *Planes, img *pix.Image, dstW, dstH int) (int, error) {
	h := co.hdr
	s := ScaleFor(h.Width, h.Height, dstW, dstH)
	if err := co.reconstructInto(p, s); err != nil {
		return 0, err
	}
	sw, sh := ScaledSize(h.Width, h.Height, s)
	c := 3
	if len(h.Components) == 1 {
		c = 1
	}
	img.Reset(sw, sh, c)
	p.renderInto(img)
	return s, nil
}
