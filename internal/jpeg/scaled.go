package jpeg

// Decode-to-scale fast path: libjpeg's scale_num/scale_denom trick. A
// JPEG whose decoded pixels are only ever downsampled to a small
// training/serving resolution does not need a full 8×8 inverse transform
// per block — an N-point iDCT of the N² lowest-frequency coefficients
// (N = 1…7) reconstructs each block directly at N×N, cutting iDCT and
// colour conversion work by up to 64× before the residual bilinear pass.
// The paper's decoder feeds a resizer for exactly this reason (§3.3): the
// target resolution is known before reconstruction starts, so work that
// cannot survive the resize is never done.

import (
	"math"
	"sync"

	"dlbooster/internal/imageproc"
	"dlbooster/internal/pix"
)

// scaledBasis[n][u][x] = alpha(u)/2 · cos((2x+1)uπ/(2n)) is the n-point
// basis for n = 1…8 (index 0 is unused; scaledBasis[8] is the full
// 8-point basis). Keeping the 8-point amplitude alpha(u)/2 (rather than
// the orthonormal n-point √(2/n)) makes the n×n output equal the full DCT
// interpolation point-sampled at the n×n tile centres, and keeps a
// DC-only block bit-identical to the full path (c00/8 + 128).
var scaledBasis = func() (b [9][8][8]float64) {
	for n := 1; n <= 8; n++ {
		for u := 0; u < n; u++ {
			alpha := 1.0
			if u == 0 {
				alpha = 1 / math.Sqrt2
			}
			for x := 0; x < n; x++ {
				b[n][u][x] = alpha / 2 * math.Cos(float64(2*x+1)*float64(u)*math.Pi/float64(2*n))
			}
		}
	}
	return b
}()

// idctConst[n][u][x] is scaledBasis[n][u][x]·2√2·2^13, rounded: the
// constants of the integer iDCT kernels (kernels.go). The 2√2 makes the
// DC gain of each pass exactly 1 (libjpeg's convention), so the DC term
// is exact and a DC-only block reconstructs to the float transform's
// sample at every scale; the final descale takes the 1/8 back.
var idctConst = func() (k [9][8][8]int32) {
	for n := 1; n <= 8; n++ {
		for u := 0; u < n; u++ {
			for x := 0; x < n; x++ {
				k[n][u][x] = int32(math.Round(scaledBasis[n][u][x] * 2 * math.Sqrt2 * (1 << idctConstBits)))
			}
		}
	}
	return k
}()

// ScaleFor returns the smallest iDCT scale N = 1…7 whose scaled output
// (see ScaledSize) still covers dstW×dstH, so the residual bilinear pass
// only ever downsamples. 8 means full decode: no N < 8 covers the target
// (it is an upscale, the same size or only just below it), or no target
// is known (dstW/dstH ≤ 0).
func ScaleFor(w, h, dstW, dstH int) int {
	if dstW <= 0 || dstH <= 0 {
		return 8
	}
	for n := 1; n < 8; n++ {
		if sw, sh := ScaledSize(w, h, n); sw >= dstW && sh >= dstH {
			return n
		}
	}
	return 8
}

// ScaledSize returns the output geometry of a w×h image reconstructed at
// scale s (s/8 of each dimension, rounded up).
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
// taken when no N < 8 covers the target (see ScaleFor) or the stream is
// progressive; 1…7 is the fast path.
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
