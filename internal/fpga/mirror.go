package fpga

import (
	"fmt"
	"sort"
	"sync"

	"dlbooster/internal/jpeg"
	"dlbooster/internal/pix"
)

// The mirror registry models the paper's pluggable decoder images:
// "users [can] download relevant preprocessing mirrors to FPGA devices
// for different applications" (§3.1). Mirrors register by name; a device
// is created with one, and callers pick by workload.

var (
	mirrorMu  sync.RWMutex
	mirrorReg = make(map[string]Mirror)
)

// RegisterMirror adds a decoder image to the registry. Registering a
// duplicate name panics: mirror names are deployment identifiers.
func RegisterMirror(m Mirror) {
	if m == nil {
		panic("fpga: registering nil mirror")
	}
	mirrorMu.Lock()
	defer mirrorMu.Unlock()
	if _, dup := mirrorReg[m.Name()]; dup {
		panic(fmt.Sprintf("fpga: duplicate mirror %q", m.Name()))
	}
	mirrorReg[m.Name()] = m
}

// LoadMirror fetches a registered decoder image by name.
func LoadMirror(name string) (Mirror, error) {
	mirrorMu.RLock()
	defer mirrorMu.RUnlock()
	m, ok := mirrorReg[name]
	if !ok {
		return nil, fmt.Errorf("fpga: no mirror %q (have %v)", name, mirrorNamesLocked())
	}
	return m, nil
}

func mirrorNamesLocked() []string {
	names := make([]string, 0, len(mirrorReg))
	for n := range mirrorReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// JPEGMirror is the image-workload decoder of the paper: baseline JPEG
// split across the hardware stages.
type JPEGMirror struct{}

// Name implements Mirror.
func (JPEGMirror) Name() string { return "jpeg" }

// NewDecoder implements Mirror.
func (JPEGMirror) NewDecoder() Decoder { return new(jpegDecoder) }

// Parse, EntropyDecode and ReconstructScaled are the one-shot forms of
// the three units, each allocating its result, for callers that time or
// test one unit in isolation. A board goes through NewDecoder instead.
func (JPEGMirror) Parse(data []byte) (*jpeg.Header, error) { return jpeg.Parse(data) }

// EntropyDecode is the one-shot Huffman decoding unit.
func (JPEGMirror) EntropyDecode(h *jpeg.Header) (*jpeg.Coefficients, error) { return h.EntropyDecode() }

// ReconstructScaled is the one-shot iDCT & RGB unit (see Decoder.Reconstruct).
func (JPEGMirror) ReconstructScaled(co *jpeg.Coefficients, outW, outH int) (*pix.Image, int, error) {
	return co.ReconstructScaled(outW, outH)
}

// jpegDecoder is one worker's stage buffers, each overwritten by the
// next command: the header (its scan aliases the payload), the
// coefficient store that points at it, the sample planes and the scaled
// image.
type jpegDecoder struct {
	hdr    jpeg.Header
	co     jpeg.Coefficients
	planes jpeg.Planes
	img    pix.Image
}

// Parse implements Decoder: marker parsing, quant/Huffman table setup.
func (d *jpegDecoder) Parse(data []byte) error { return d.hdr.ParseInto(data) }

// EntropyDecode implements Decoder: the Huffman decoding unit.
func (d *jpegDecoder) EntropyDecode() error { return d.hdr.EntropyDecodeInto(&d.co) }

// Reconstruct implements Decoder: the iDCT & RGB unit, at the smallest
// scale that still covers outW×outH.
func (d *jpegDecoder) Reconstruct(outW, outH int) (*pix.Image, int, error) {
	scale, err := d.co.ReconstructScaledInto(&d.planes, &d.img, outW, outH)
	return &d.img, scale, err
}

// RawMirror decodes the trivial framing used by tests and non-JPEG
// workloads: a 9-byte header (width, height, channels as big-endian
// uint24) followed by raw HWC samples. It stands in for the "different
// DL workloads" mirrors (§3.3) whose decode step is not Huffman-based.
type RawMirror struct{}

// Name implements Mirror.
func (RawMirror) Name() string { return "raw" }

// NewDecoder implements Mirror.
func (RawMirror) NewDecoder() Decoder { return new(rawDecoder) }

// rawDecoder is one worker's frame header and image.
type rawDecoder struct {
	w, h, c int
	data    []byte
	img     pix.Image
}

func be24(b []byte) int { return int(b[0])<<16 | int(b[1])<<8 | int(b[2]) }

// EncodeRaw frames an image in RawMirror's format.
func EncodeRaw(img *pix.Image) []byte {
	out := make([]byte, 9+len(img.Pix))
	put := func(off, v int) {
		out[off] = byte(v >> 16)
		out[off+1] = byte(v >> 8)
		out[off+2] = byte(v)
	}
	put(0, img.W)
	put(3, img.H)
	put(6, img.C)
	copy(out[9:], img.Pix)
	return out
}

// Parse implements Decoder.
func (d *rawDecoder) Parse(data []byte) error {
	if len(data) < 9 {
		return fmt.Errorf("fpga: raw frame too short (%d bytes)", len(data))
	}
	d.w, d.h, d.c, d.data = be24(data), be24(data[3:]), be24(data[6:]), data[9:]
	if d.w <= 0 || d.h <= 0 || (d.c != 1 && d.c != 3) {
		return fmt.Errorf("fpga: raw frame geometry %dx%dx%d invalid", d.w, d.h, d.c)
	}
	if len(d.data) != d.w*d.h*d.c {
		return fmt.Errorf("fpga: raw frame payload %d, want %d", len(d.data), d.w*d.h*d.c)
	}
	return nil
}

// EntropyDecode implements Decoder (raw frames have no entropy coding).
func (d *rawDecoder) EntropyDecode() error { return nil }

// Reconstruct implements Decoder: the samples are copied, never aliased,
// so the decoder's image stays the decoder's.
func (d *rawDecoder) Reconstruct(_, _ int) (*pix.Image, int, error) {
	d.img.Reset(d.w, d.h, d.c)
	copy(d.img.Pix, d.data)
	return &d.img, 8, nil
}

func init() {
	RegisterMirror(JPEGMirror{})
	RegisterMirror(RawMirror{})
}
