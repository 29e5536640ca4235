package jpeg

import (
	"fmt"

	"dlbooster/internal/pix"
)

// Marker codes (the 0xXX of 0xFF 0xXX).
const (
	mSOI  = 0xD8
	mEOI  = 0xD9
	mSOF0 = 0xC0 // baseline sequential
	mSOF1 = 0xC1 // extended sequential, Huffman
	mSOF2 = 0xC2 // progressive (multi-scan software decoder)
	mDHT  = 0xC4
	mDAC  = 0xCC // arithmetic conditioning (unsupported, rejected)
	mDQT  = 0xDB
	mDRI  = 0xDD
	mSOS  = 0xDA
	mAPP0 = 0xE0
	mAPP1 = 0xE1
	mRST0 = 0xD0
	mRST7 = 0xD7
)

// Component describes one colour component from the frame header.
type Component struct {
	ID      byte
	H, V    int // sampling factors, 1..2 supported
	QuantID byte
	// Entropy-coding table selectors, filled in by the scan header.
	dcSel, acSel byte
}

// Header is the parsed stream state up to and including the scan header:
// everything DLBooster's FPGA parser extracts from a file before kicking
// off the Huffman unit.
type Header struct {
	Width, Height   int
	Components      []Component
	RestartInterval int

	// Progressive reports an SOF2 frame. The single-pass pipeline
	// (EntropyDecode and the FPGA mirror) handles only baseline;
	// Decode dispatches progressive streams to the multi-scan decoder.
	Progressive bool

	// Orientation is the EXIF orientation tag (1–8) when an APP1
	// segment carries one, else 0. The decoder does not rotate pixels;
	// callers that want upright pixels rotate them themselves.
	Orientation int

	// Tables are stored by value with presence flags so a reused Header
	// (see Scratch) rebuilds them in place without allocating.
	quant   [4]QuantTable
	quantOK [4]bool
	dcHuff  [4]huffDecoder
	acHuff  [4]huffDecoder
	dcOK    [4]bool
	acOK    [4]bool

	hMax, vMax   int
	mcusX, mcusY int
	scan         []byte // entropy-coded data following the SOS header
}

// reset clears the header for reuse while keeping the Components
// allocation, so repeated parses into the same Header reach steady-state
// zero allocations.
func (h *Header) reset() {
	comps := h.Components[:0]
	*h = Header{}
	h.Components = comps
}

// Coefficients holds the entropy-decoded, still-quantised DCT levels —
// the output of the Huffman decoding unit.
type Coefficients struct {
	hdr *Header
	// comp[i] holds blocksX×blocksY blocks in raster order.
	comp    [][]block
	blocksX []int
	blocksY []int
}

// Planes holds reconstructed component sample planes — the output of the
// iDCT unit, before upsampling and colour conversion.
type Planes struct {
	hdr    *Header
	data   [][]byte // per component, stride×rows samples
	stride []int
	rows   []int
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func u16(b []byte) int { return int(b[0])<<8 | int(b[1]) }

// Parse reads all marker segments through SOS and captures the
// entropy-coded scan data. It validates against the supported feature set
// (see the package comment).
func Parse(data []byte) (*Header, error) {
	h := &Header{}
	err := h.ParseInto(data)
	if err != nil && err != ErrProgressive {
		return nil, err
	}
	return h, err
}

// ParseInto is the reusable form of Parse: it resets and refills h, keeping
// h's allocations. On ErrProgressive the header is still valid (geometry
// only); on any other error it must not be used.
func (h *Header) ParseInto(data []byte) error {
	h.reset()
	if len(data) < 2 || data[0] != 0xFF || data[1] != mSOI {
		return FormatError("missing SOI marker")
	}
	var sawSOF bool
	pos := 2
	for {
		// Find the next marker, tolerating fill bytes.
		if pos >= len(data) {
			return FormatError("truncated stream before SOS")
		}
		if data[pos] != 0xFF {
			return FormatError("expected marker")
		}
		for pos < len(data) && data[pos] == 0xFF {
			pos++
		}
		if pos >= len(data) {
			return FormatError("truncated marker")
		}
		marker := data[pos]
		pos++
		switch {
		case marker == mEOI:
			return FormatError("EOI before SOS")
		case marker >= mRST0 && marker <= mRST7:
			return FormatError("restart marker outside scan")
		case marker == mDAC:
			return UnsupportedError("arithmetic coding")
		case marker >= 0xC3 && marker <= 0xCF && marker != mDHT && marker != mSOF2:
			return UnsupportedError("non-baseline SOF")
		}
		// All remaining segments carry a two-byte length.
		if pos+2 > len(data) {
			return FormatError("truncated segment length")
		}
		segLen := u16(data[pos:])
		if segLen < 2 || pos+segLen > len(data) {
			return FormatError("bad segment length")
		}
		seg := data[pos+2 : pos+segLen]
		pos += segLen
		switch marker {
		case mSOF0, mSOF1, mSOF2:
			if sawSOF {
				return FormatError("multiple SOF segments")
			}
			sawSOF = true
			h.Progressive = marker == mSOF2
			if err := h.parseSOF(seg); err != nil {
				return err
			}
		case mDQT:
			if err := h.parseDQT(seg); err != nil {
				return err
			}
		case mDHT:
			if err := h.parseDHT(seg); err != nil {
				return err
			}
		case mDRI:
			if len(seg) < 2 {
				return FormatError("short DRI")
			}
			h.RestartInterval = u16(seg)
		case mAPP1:
			if o := parseEXIFOrientation(seg); o != 0 {
				h.Orientation = o
			}
		case mSOS:
			if !sawSOF {
				return FormatError("SOS before SOF")
			}
			if h.Progressive {
				// The caller must use the multi-scan decoder; the
				// header is still returned for DecodeConfig.
				return ErrProgressive
			}
			if err := h.parseSOS(seg); err != nil {
				return err
			}
			h.scan = data[pos:]
			return nil
		default:
			// APPn, COM and other informational segments are skipped.
		}
	}
}

func (h *Header) parseSOF(seg []byte) error {
	if len(seg) < 6 {
		return FormatError("short SOF")
	}
	if seg[0] != 8 {
		return UnsupportedError("sample precision != 8")
	}
	h.Height = u16(seg[1:])
	h.Width = u16(seg[3:])
	if h.Height == 0 {
		return UnsupportedError("DNL-deferred height")
	}
	if h.Width == 0 {
		return FormatError("zero width")
	}
	n := int(seg[5])
	if err := checkComponents(n); err != nil {
		return err
	}
	if len(seg) < 6+3*n {
		return FormatError("short SOF component list")
	}
	if cap(h.Components) >= n {
		h.Components = h.Components[:n]
	} else {
		h.Components = make([]Component, n)
	}
	h.hMax, h.vMax = 1, 1
	for i := 0; i < n; i++ {
		c := seg[6+3*i : 9+3*i]
		comp := Component{ID: c[0], H: int(c[1] >> 4), V: int(c[1] & 0x0F), QuantID: c[2]}
		if comp.H < 1 || comp.H > 2 || comp.V < 1 || comp.V > 2 {
			return UnsupportedError("sampling factor outside 1..2")
		}
		if comp.QuantID > 3 {
			return FormatError("quant table selector > 3")
		}
		for j := 0; j < i; j++ {
			if h.Components[j].ID == comp.ID {
				return FormatError("duplicate component ID")
			}
		}
		if comp.H > h.hMax {
			h.hMax = comp.H
		}
		if comp.V > h.vMax {
			h.vMax = comp.V
		}
		h.Components[i] = comp
	}
	if n == 1 {
		// A single-component frame is decoded non-interleaved; sampling
		// factors are irrelevant and normalising them simplifies layout.
		h.Components[0].H, h.Components[0].V = 1, 1
		h.hMax, h.vMax = 1, 1
	}
	h.mcusX = ceilDiv(h.Width, 8*h.hMax)
	h.mcusY = ceilDiv(h.Height, 8*h.vMax)
	return nil
}

func (h *Header) parseDQT(seg []byte) error {
	for len(seg) > 0 {
		pq := seg[0] >> 4
		tq := seg[0] & 0x0F
		if tq > 3 {
			return FormatError("quant table id > 3")
		}
		var q QuantTable
		switch pq {
		case 0:
			if len(seg) < 1+64 {
				return FormatError("short 8-bit DQT")
			}
			for z := 0; z < 64; z++ {
				q[zigzag[z]] = uint16(seg[1+z])
			}
			seg = seg[65:]
		case 1:
			if len(seg) < 1+128 {
				return FormatError("short 16-bit DQT")
			}
			for z := 0; z < 64; z++ {
				q[zigzag[z]] = uint16(u16(seg[1+2*z:]))
			}
			seg = seg[129:]
		default:
			return FormatError("bad quant precision")
		}
		for _, v := range q {
			if v == 0 {
				return FormatError("zero quantiser")
			}
		}
		h.quant[tq] = q
		h.quantOK[tq] = true
	}
	return nil
}

func (h *Header) parseDHT(seg []byte) error {
	for len(seg) > 0 {
		if len(seg) < 17 {
			return FormatError("short DHT")
		}
		class := seg[0] >> 4
		id := seg[0] & 0x0F
		if class > 1 || id > 3 {
			return FormatError("bad DHT class/id")
		}
		spec := HuffmanSpec{}
		copy(spec.Counts[:], seg[1:17])
		n := spec.totalCodes()
		if len(seg) < 17+n {
			return FormatError("short DHT values")
		}
		// The decoder copies the values into its inline table, so the
		// spec can alias the segment bytes without a defensive copy.
		spec.Values = seg[17 : 17+n]
		var err error
		if class == 0 {
			err = h.dcHuff[id].init(&spec)
			h.dcOK[id] = err == nil
		} else {
			err = h.acHuff[id].init(&spec)
			h.acOK[id] = err == nil
		}
		if err != nil {
			return err
		}
		seg = seg[17+n:]
	}
	return nil
}

func (h *Header) parseSOS(seg []byte) error {
	if len(seg) < 1 {
		return FormatError("short SOS")
	}
	ns := int(seg[0])
	if ns != len(h.Components) {
		return UnsupportedError("scan does not cover all frame components in one pass")
	}
	if len(seg) < 1+2*ns+3 {
		return FormatError("short SOS parameters")
	}
	for i := 0; i < ns; i++ {
		id := seg[1+2*i]
		sel := seg[2+2*i]
		found := false
		for j := range h.Components {
			if h.Components[j].ID == id {
				h.Components[j].dcSel = sel >> 4
				h.Components[j].acSel = sel & 0x0F
				if h.Components[j].dcSel > 3 || h.Components[j].acSel > 3 {
					return FormatError("huffman selector > 3")
				}
				found = true
				break
			}
		}
		if !found {
			return FormatError("scan references unknown component")
		}
	}
	// Spectral selection / successive approximation must be the baseline
	// constants (0, 63, 0, 0).
	ss, se, ahAl := seg[1+2*ns], seg[2+2*ns], seg[3+2*ns]
	if ss != 0 || se != 63 || ahAl != 0 {
		return UnsupportedError("non-baseline spectral selection")
	}
	return nil
}

// EntropyDecode runs the Huffman decoding unit over the captured scan,
// producing quantised coefficient blocks per component. This is stage 1
// of the FPGA pipeline.
func (h *Header) EntropyDecode() (*Coefficients, error) {
	co := &Coefficients{}
	if err := h.EntropyDecodeInto(co); err != nil {
		return nil, err
	}
	return co, nil
}

// EntropyDecodeInto is the reusable form of EntropyDecode: co's grids are
// grown on demand and reused across calls, so steady-state decoding does
// not allocate.
func (h *Header) EntropyDecodeInto(co *Coefficients) error {
	blocks := 0
	for _, c := range h.Components {
		if !h.quantOK[c.QuantID] {
			return FormatError("missing quant table")
		}
		if !h.dcOK[c.dcSel] || !h.acOK[c.acSel] {
			return FormatError("missing huffman table")
		}
		blocks += h.mcusX * h.mcusY * c.H * c.V
	}
	// The header alone sizes the coefficient store (65 535² is ≈17 GB a
	// component) and it comes off a socket, so the scan bounds it first:
	// a block costs at least two bits (1-bit DC category, 1-bit EOB).
	if blocks > 4*len(h.scan) {
		return errShortData
	}
	co.init(h)
	return h.entropyDecodeSequential(co, newBitReader(h.scan))
}

// entropyDecodeSequential decodes the scan over r into co's freshly
// initialised (all-zero) grids.
func (h *Header) entropyDecodeSequential(co *Coefficients, r *bitReader) error {
	var st scanTables
	st.init(h)
	var dcPredArr [3]int32 // checkComponents caps components at 3
	dcPred := dcPredArr[:len(h.Components)]
	mcus := h.mcusX * h.mcusY
	sinceRestart := 0
	interval := 0 // index of the restart interval being decoded
	nextRST := byte(mRST0)
	for m := 0; m < mcus; m++ {
		if h.RestartInterval > 0 && sinceRestart == h.RestartInterval {
			if err := h.expectRestart(r, nextRST, interval); err != nil {
				return err
			}
			interval++
			nextRST = mRST0 + (nextRST-mRST0+1)%8
			for i := range dcPred {
				dcPred[i] = 0
			}
			sinceRestart = 0
		}
		// The MCU's blocks, component by component.
		my, mx := m/h.mcusX, m%h.mcusX
		for i := range h.Components {
			c := &h.Components[i]
			for v := 0; v < c.V; v++ {
				for hh := 0; hh < c.H; hh++ {
					blk := &co.comp[i][(my*c.V+v)*co.blocksX[i]+mx*c.H+hh]
					if err := st.decodeBlock(r, i, blk, &dcPred[i]); err != nil {
						return restartIntervalError(h, interval, err)
					}
				}
			}
		}
		sinceRestart++
	}
	return nil
}

// init sizes the padded per-component coefficient grids for h, reusing
// existing capacity and zeroing reused blocks (the progressive decoder
// accumulates into them across scans).
func (co *Coefficients) init(h *Header) {
	co.hdr = h
	nc := len(h.Components)
	if cap(co.comp) >= nc {
		co.comp = co.comp[:nc]
		co.blocksX = co.blocksX[:nc]
		co.blocksY = co.blocksY[:nc]
	} else {
		co.comp = make([][]block, nc)
		co.blocksX = make([]int, nc)
		co.blocksY = make([]int, nc)
	}
	for i, c := range h.Components {
		co.blocksX[i] = h.mcusX * c.H
		co.blocksY[i] = h.mcusY * c.V
		n := co.blocksX[i] * co.blocksY[i]
		if cap(co.comp[i]) >= n {
			co.comp[i] = co.comp[i][:n]
			for j := range co.comp[i] {
				co.comp[i][j] = block{}
			}
		} else {
			co.comp[i] = make([]block, n)
		}
	}
}

// expectRestart consumes the next restart marker, resynchronising the bit
// reader. interval is the index of the restart interval just decoded, so
// a corrupt or missing marker is attributed to the segment that broke,
// which a plain "marker out of sequence" loses.
func (h *Header) expectRestart(r *bitReader, want byte, interval int) error {
	m, err := r.nextMarker()
	if err != nil {
		return FormatError(fmt.Sprintf("restart interval %d: missing marker RST%d", interval, want-mRST0))
	}
	if m != want {
		return FormatError(fmt.Sprintf("restart interval %d: marker out of sequence (got 0x%02X, want RST%d)", interval, m, want-mRST0))
	}
	return nil
}

// restartIntervalError attributes an entropy-decode error inside a scan
// with restart intervals to the interval it occurred in. Scans without
// restart intervals pass errors through untouched, keeping the historic
// error surface for the common case.
func restartIntervalError(h *Header, interval int, err error) error {
	if h.RestartInterval <= 0 {
		return err
	}
	msg := err.Error()
	if fe, ok := err.(FormatError); ok {
		msg = string(fe)
	}
	return FormatError(fmt.Sprintf("restart interval %d: %s", interval, msg))
}

// scanTables is the entropy-table working set of one baseline scan
// decode: per component its DC and AC huffDecoders and the AC table's
// acValueTable. It lives on the decoder's stack, at no cost to the
// Header.
type scanTables struct {
	dc, ac [3]*huffDecoder // checkComponents caps components at 3
	val    [3]acValueTable
}

// init resolves h's scan-header selectors and derives the value tables.
func (st *scanTables) init(h *Header) {
	for i, c := range h.Components {
		st.dc[i], st.ac[i] = &h.dcHuff[c.dcSel], &h.acHuff[c.acSel]
		st.val[i].init(st.ac[i])
	}
}

// decodeBlock decodes one 8×8 block of quantised levels into blk, in
// natural order. blk must arrive zeroed (Coefficients.init or a fresh make
// did that): only nonzero coefficients are stored.
//
// The accumulator lives in locals and is topped up to refillBits, which
// covers the longest symbol, before each one. At the end of a segment the
// refill comes back short and the same code runs on the real bits
// followed by zeros: the n comparisons, never true before that, then turn
// the first symbol needing bits past the end into the short-data error.
func (st *scanTables) decodeBlock(r *bitReader, comp int, blk *block, dcPred *int32) error {
	dcTab, acTab, val := st.dc[comp], st.ac[comp], &st.val[comp]
	if r.n < refillBits {
		r.refill()
	}
	acc, n := r.acc, r.n
	// DC coefficient: category then difference bits.
	e := dcTab.lookup(acc)
	t, l := byte(e>>8), int(e&0xFF)
	if err := codeError(l, n); err != nil {
		return err
	}
	if t > 11 {
		return FormatError("DC category > 11")
	}
	acc <<= uint(l)
	n -= l
	size := uint(t) // category 0: every step below is a no-op
	if int(size) > n {
		return errShortData
	}
	*dcPred += extend(int32(acc>>(64-size)), int(size))
	acc <<= size
	n -= int(size)
	blk[0] = *dcPred
	// AC coefficients: run-length / size pairs in zig-zag order.
	for z := 1; z < 64; {
		if n < refillBits {
			r.acc, r.n = acc, n
			r.refill()
			acc, n = r.acc, r.n
		}
		if e := val[acc>>(64-acValueBits)]; e != 0 && int(e&15) <= n {
			// Run, coefficient and bit count in one index.
			z += int(e>>4) & 15
			if z > 63 {
				return FormatError("AC run beyond block")
			}
			blk[zigzag[z&63]&63] = int32(e >> 8)
			z++
			acc <<= uint(e & 15)
			n -= int(e & 15)
			continue
		}
		e := acTab.lookup(acc)
		sym, l := byte(e>>8), int(e&0xFF)
		if err := codeError(l, n); err != nil {
			return err
		}
		acc <<= uint(l)
		n -= l
		run, size := int(sym>>4), int(sym&0x0F)
		switch {
		case size == 0 && run == 0: // EOB
			r.acc, r.n = acc, n
			return nil
		case size == 0 && run == 15: // ZRL: sixteen zeros
			z += 16
		case size == 0:
			return FormatError("bad AC symbol")
		default:
			z += run
			if z > 63 {
				return FormatError("AC run beyond block")
			}
			if size > n {
				return errShortData
			}
			blk[zigzag[z&63]&63] = extend(int32(acc>>(64-uint(size))), size)
			z++
			acc <<= uint(size)
			n -= size
		}
	}
	r.acc, r.n = acc, n
	return nil
}

// Reconstruct dequantises and inverse-transforms every block, producing
// padded sample planes. This is stage 2 of the FPGA pipeline (the iDCT
// unit).
func (co *Coefficients) Reconstruct() (*Planes, error) {
	p := &Planes{}
	if err := co.reconstructInto(p, 8); err != nil {
		return nil, err
	}
	return p, nil
}

// reconstructInto runs the iDCT unit at scale s = 1…8: every 8×8
// coefficient block reconstructs to an s×s pixel tile (s == 8 is the
// full-resolution transform, identical to Reconstruct). p's buffers are
// grown on demand and reused across calls.
func (co *Coefficients) reconstructInto(p *Planes, s int) error {
	h := co.hdr
	p.init(h)
	for i := range h.Components {
		if !h.quantOK[h.Components[i].QuantID] {
			return FormatError("missing quant table")
		}
		q := &h.quant[h.Components[i].QuantID]
		stride := co.blocksX[i] * s
		rows := co.blocksY[i] * s
		plane := p.setPlane(i, stride, rows)
		var samples [64]byte // an s×s tile, row-major
		for by := 0; by < co.blocksY[i]; by++ {
			for bx := 0; bx < co.blocksX[i]; bx++ {
				blk := &co.comp[i][by*co.blocksX[i]+bx]
				idctScaledFast(blk, q, s, &samples)
				for y := 0; y < s; y++ {
					copy(plane[(by*s+y)*stride+bx*s:], samples[y*s:y*s+s])
				}
			}
		}
	}
	return nil
}

// init sizes the per-component bookkeeping slices, reusing capacity.
func (p *Planes) init(h *Header) {
	p.hdr = h
	nc := len(h.Components)
	if cap(p.data) >= nc {
		p.data = p.data[:nc]
		p.stride = p.stride[:nc]
		p.rows = p.rows[:nc]
	} else {
		p.data = make([][]byte, nc)
		p.stride = make([]int, nc)
		p.rows = make([]int, nc)
	}
}

// setPlane sizes component i's sample plane, reusing capacity, and
// returns it. Every byte is overwritten by reconstruction, so reused
// memory needs no zeroing.
func (p *Planes) setPlane(i, stride, rows int) []byte {
	n := stride * rows
	if cap(p.data[i]) >= n {
		p.data[i] = p.data[i][:n]
	} else {
		p.data[i] = make([]byte, n)
	}
	p.stride[i] = stride
	p.rows[i] = rows
	return p.data[i]
}

// ToImage upsamples the component planes to full resolution and converts
// to interleaved RGB (or grayscale) — stage 3, feeding the resizer.
func (p *Planes) ToImage() *pix.Image {
	c := 3
	if len(p.hdr.Components) == 1 {
		c = 1
	}
	img := pix.New(p.hdr.Width, p.hdr.Height, c)
	p.renderInto(img)
	return img
}

// renderInto fuses upsampling and YCbCr→RGB conversion (or a grayscale
// row copy) directly into dst, with no intermediate image. dst fixes the
// output geometry: Width×Height for a full-scale reconstruction (where
// this is exactly ToImage), or the scaled geometry for a scaled one. dst
// must not exceed the reconstructed plane extent.
func (p *Planes) renderInto(dst *pix.Image) {
	h := p.hdr
	if len(h.Components) == 1 {
		for y := 0; y < dst.H; y++ {
			copy(dst.Pix[y*dst.W:(y+1)*dst.W], p.data[0][y*p.stride[0]:y*p.stride[0]+dst.W])
		}
		return
	}
	// Per-component subsampling shifts: components with H (V) of 1 under
	// hMax (vMax) of 2 halve the x (y) index. The relative factors are
	// scale-invariant, so the same shifts serve scaled planes.
	var shx, shy [3]uint
	for i, c := range h.Components {
		if h.hMax/c.H == 2 {
			shx[i] = 1
		}
		if h.vMax/c.V == 2 {
			shy[i] = 1
		}
	}
	out := dst.Pix
	for y := 0; y < dst.H; y++ {
		yRow := p.data[0][(y>>shy[0])*p.stride[0]:]
		cbRow := p.data[1][(y>>shy[1])*p.stride[1]:]
		crRow := p.data[2][(y>>shy[2])*p.stride[2]:]
		o := y * dst.W * 3
		ycbcrRowFast(out[o:o+dst.W*3], yRow, cbRow, crRow, dst.W, shx)
	}
}

// ErrProgressive is returned by Parse for SOF2 streams: the staged
// single-scan pipeline (and the FPGA decoder mirroring it — hardware
// JPEG decoders are baseline-only, including the paper's) cannot run a
// multi-scan frame. Decode handles such streams in software via the
// multi-scan decoder in progressive.go.
var ErrProgressive = UnsupportedError("progressive JPEG requires the multi-scan decoder")

// Decode runs the full three-stage pipeline on a JPEG stream, or the
// multi-scan software decoder for progressive streams.
func Decode(data []byte) (*pix.Image, error) {
	h, err := Parse(data)
	if err == ErrProgressive {
		return decodeProgressive(data)
	}
	if err != nil {
		return nil, err
	}
	co, err := h.EntropyDecode()
	if err != nil {
		return nil, err
	}
	p, err := co.Reconstruct()
	if err != nil {
		return nil, err
	}
	return p.ToImage(), nil
}

// Config reports image geometry without decoding pixel data.
type Config struct {
	Width, Height, Components int
	// Orientation is the EXIF orientation (1–8), 0 when absent.
	Orientation int
}

// DecodeConfig parses only as far as needed to learn the geometry
// (progressive streams included).
func DecodeConfig(data []byte) (Config, error) {
	h, err := Parse(data)
	if err != nil && err != ErrProgressive {
		return Config{}, err
	}
	return Config{Width: h.Width, Height: h.Height, Components: len(h.Components), Orientation: h.Orientation}, nil
}
