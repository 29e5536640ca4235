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

// freeList is one board's stock of a reusable stage buffer: get hands out
// the most recently parked one (the warmest) or makes one when none is
// parked, so the stock stops growing at the most that were ever live at
// once: on a board, one per worker. live counts what is handed out right
// now.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
	live int
}

func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.live++
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		l.free = l.free[:n-1]
		return v
	}
	return new(T)
}

func (l *freeList[T]) put(v *T) {
	l.mu.Lock()
	l.live--
	l.free = append(l.free, v)
	l.mu.Unlock()
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

// ReconstructScaled is the one-shot iDCT & RGB unit (see Job.Reconstruct).
func (JPEGMirror) ReconstructScaled(co *jpeg.Coefficients, outW, outH int) (*pix.Image, int, error) {
	return co.ReconstructScaled(outW, outH)
}

// jpegDecoder holds each stage buffer for exactly the hops that use it:
// the header from the parser to the end of the iDCT unit (the store
// points at it, its scan aliases the payload), the coefficient store
// from the Huffman unit to there, the sample planes inside the iDCT unit.
type jpegDecoder struct {
	jobs   freeList[jpegJob]
	stores freeList[jpeg.Coefficients]
	planes freeList[jpeg.Planes]
}

type jpegJob struct {
	dec *jpegDecoder
	hdr jpeg.Header
	co  *jpeg.Coefficients // held between EntropyDecode and Release
}

// Parse implements Decoder: marker parsing, quant/Huffman table setup.
func (d *jpegDecoder) Parse(data []byte) (Job, error) {
	j := d.jobs.get()
	j.dec = d
	if err := j.hdr.ParseInto(data); err != nil {
		d.jobs.put(j)
		return nil, err
	}
	return j, nil
}

// EntropyDecode implements Job: the Huffman decoding unit.
func (j *jpegJob) EntropyDecode() error {
	j.co = j.dec.stores.get()
	return j.hdr.EntropyDecodeInto(j.co)
}

// Reconstruct implements Job: the iDCT & RGB unit, at the smallest scale
// that still covers outW×outH.
func (j *jpegJob) Reconstruct(img *pix.Image, outW, outH int) (int, error) {
	p := j.dec.planes.get()
	defer j.dec.planes.put(p)
	return j.co.ReconstructScaledInto(p, img, outW, outH)
}

// Release implements Job.
func (j *jpegJob) Release() {
	if j.co != nil {
		j.dec.stores.put(j.co)
		j.co = nil
	}
	j.dec.jobs.put(j)
}

// RawMirror decodes the trivial framing used by tests and non-JPEG
// workloads: a 9-byte header (width, height, channels as big-endian
// uint24) followed by raw HWC samples. It stands in for the "different
// DL workloads" mirrors (§3.3) whose decode step is not Huffman-based.
type RawMirror struct{}

// Name implements Mirror.
func (RawMirror) Name() string { return "raw" }

// NewDecoder implements Mirror: a raw job is its frame header, so there
// is no buffer to keep and the mirror is its own Decoder.
func (m RawMirror) NewDecoder() Decoder { return m }

type rawJob struct {
	w, h, c int
	data    []byte
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
func (RawMirror) Parse(data []byte) (Job, error) {
	if len(data) < 9 {
		return nil, fmt.Errorf("fpga: raw frame too short (%d bytes)", len(data))
	}
	j := &rawJob{w: be24(data), h: be24(data[3:]), c: be24(data[6:]), data: data[9:]}
	if j.w <= 0 || j.h <= 0 || (j.c != 1 && j.c != 3) {
		return nil, fmt.Errorf("fpga: raw frame geometry %dx%dx%d invalid", j.w, j.h, j.c)
	}
	if len(j.data) != j.w*j.h*j.c {
		return nil, fmt.Errorf("fpga: raw frame payload %d, want %d", len(j.data), j.w*j.h*j.c)
	}
	return j, nil
}

// EntropyDecode implements Job (raw frames have no entropy coding).
func (j *rawJob) EntropyDecode() error { return nil }

// Reconstruct implements Job: the samples are copied, never aliased, so
// the board's image buffer stays the board's.
func (j *rawJob) Reconstruct(img *pix.Image, _, _ int) (int, error) {
	img.Reset(j.w, j.h, j.c)
	copy(img.Pix, j.data)
	return 8, nil
}

// Release implements Job.
func (j *rawJob) Release() {}

func init() {
	RegisterMirror(JPEGMirror{})
	RegisterMirror(RawMirror{})
}
