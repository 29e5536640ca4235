// Package pix defines the interleaved pixel buffer shared by the JPEG
// codec, the image-processing kernels, the FPGA decoder model and the
// dataset generators.
//
// Everything in the pipeline moves images as flat channels-last byte
// slices (HWC, 8 bits per sample) because that is what flows over the
// paper's DMA path: the FPGA decoder writes resized RGB pixel matrices
// into HugePage batch buffers, and the dispatcher copies those bytes to
// device memory untouched.
package pix

import (
	"fmt"
	"math"
)

// Image is a W×H raster with C interleaved 8-bit channels. C is 1 for
// grayscale and 3 for RGB.
type Image struct {
	W, H, C int
	Pix     []byte // len = W*H*C, row-major, channels interleaved
}

// New allocates a zeroed image. It panics on non-positive dimensions or a
// channel count other than 1 or 3; image geometry always comes from
// validated headers or generator code, so a bad value is a programming
// error, not an input error.
func New(w, h, c int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("pix: dimensions %dx%d must be positive", w, h))
	}
	if c != 1 && c != 3 {
		panic(fmt.Sprintf("pix: channel count %d must be 1 or 3", c))
	}
	return &Image{W: w, H: h, C: c, Pix: make([]byte, w*h*c)}
}

// View wraps an existing buffer as an image without copying; the buffer
// length must be exactly w*h*c. It returns the Image by value so the
// per-image paths (a board's DMA window, a batch slot) wrap their
// destination on the stack instead of paying a heap object per image.
func View(w, h, c int, buf []byte) (Image, error) {
	if w <= 0 || h <= 0 || (c != 1 && c != 3) {
		return Image{}, fmt.Errorf("pix: bad geometry %dx%dx%d", w, h, c)
	}
	if len(buf) != w*h*c {
		return Image{}, fmt.Errorf("pix: buffer length %d, want %d", len(buf), w*h*c)
	}
	return Image{W: w, H: h, C: c, Pix: buf}, nil
}

// Reset gives a reused image the geometry w×h×c, keeping Pix's capacity
// when it suffices. The samples are whatever the previous occupant left:
// the caller overwrites every one.
func (m *Image) Reset(w, h, c int) {
	n := w * h * c
	if cap(m.Pix) >= n {
		m.Pix = m.Pix[:n]
	} else {
		m.Pix = make([]byte, n)
	}
	m.W, m.H, m.C = w, h, c
}

// Size returns the byte size of the raster.
func (m *Image) Size() int { return m.W * m.H * m.C }

// At returns the sample for channel c at (x, y). Out-of-range access
// panics via the underlying slice.
func (m *Image) At(x, y, c int) byte {
	return m.Pix[(y*m.W+x)*m.C+c]
}

// Set writes the sample for channel c at (x, y).
func (m *Image) Set(x, y, c int, v byte) {
	m.Pix[(y*m.W+x)*m.C+c] = v
}

// Clone returns a deep copy.
func (m *Image) Clone() *Image {
	out := &Image{W: m.W, H: m.H, C: m.C, Pix: make([]byte, len(m.Pix))}
	copy(out.Pix, m.Pix)
	return out
}

// EqualGeometry reports whether two images have identical dimensions and
// channel count.
func (m *Image) EqualGeometry(o *Image) bool {
	return m.W == o.W && m.H == o.H && m.C == o.C
}

// MaxAbsDiff returns the largest absolute per-sample difference between
// two images of equal geometry. It is the comparison used by the lossy
// round-trip tests (JPEG is not bit-exact, but it is bounded-error).
func (m *Image) MaxAbsDiff(o *Image) (int, error) {
	if !m.EqualGeometry(o) {
		return 0, fmt.Errorf("pix: geometry mismatch %dx%dx%d vs %dx%dx%d", m.W, m.H, m.C, o.W, o.H, o.C)
	}
	max := 0
	for i := range m.Pix {
		d := int(m.Pix[i]) - int(o.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max, nil
}

// PSNR returns the peak signal-to-noise ratio between two images of
// equal geometry in dB (math.Inf(1) for identical pixels) — the
// comparison the lossy decode-to-scale tests use.
func (m *Image) PSNR(o *Image) (float64, error) {
	mse, err := m.MeanSquaredError(o)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// MeanSquaredError returns the mean squared per-sample error between two
// images of equal geometry.
func (m *Image) MeanSquaredError(o *Image) (float64, error) {
	if !m.EqualGeometry(o) {
		return 0, fmt.Errorf("pix: geometry mismatch")
	}
	if len(m.Pix) == 0 {
		return 0, nil
	}
	var sum float64
	for i := range m.Pix {
		d := float64(int(m.Pix[i]) - int(o.Pix[i]))
		sum += d * d
	}
	return sum / float64(len(m.Pix)), nil
}
