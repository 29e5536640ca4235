package jpeg

// Huffman coding per ITU-T T.81 Annex C/F. A table is specified exactly
// as it travels in a DHT segment: counts[i] codes of length i+1 bits, and
// the symbol values in code order. Decoder and encoder both derive their
// working form from that canonical spec, so a table can round-trip
// through a bitstream unchanged.

// HuffmanSpec is the canonical (DHT-segment) form of a Huffman table.
type HuffmanSpec struct {
	Counts [16]byte // Counts[i]: number of codes of length i+1 bits
	Values []byte   // symbols in increasing code order
}

// totalCodes returns the number of codes the spec defines.
func (s *HuffmanSpec) totalCodes() int {
	n := 0
	for _, c := range s.Counts {
		n += int(c)
	}
	return n
}

// validate checks the structural constraints of T.81 §C.2.
func (s *HuffmanSpec) validate() error {
	n := s.totalCodes()
	if n == 0 || n > 256 {
		return FormatError("huffman table with bad code count")
	}
	if n != len(s.Values) {
		return FormatError("huffman counts do not match value count")
	}
	// The code space must not be over-subscribed: assigning codes in
	// canonical order may never exceed 2^length.
	code := 0
	for i, c := range s.Counts {
		code += int(c)
		if code > 1<<(i+1) {
			return FormatError("huffman table over-subscribed")
		}
		code <<= 1
	}
	return nil
}

// lutBits is the width of the fast decoder lookup: codes at most this
// long decode in a single table index, mirroring the parallel lookup a
// hardware Huffman unit performs per cycle.
const lutBits = 8

// huffDecoder is the decoding form: a fast 8-bit lookahead table plus the
// canonical min/max-code arrays for longer codes (AC tables in a baseline
// scan are fronted by an acValueTable as well). The struct holds its
// tables inline (no pointers) so a reused Header rebuilds them in place
// without allocating.
type huffDecoder struct {
	// lut[peek] = (symbol << 8) | codeLength, or 0 when the prefix is
	// longer than lutBits.
	lut [1 << lutBits]uint16
	// For code length l (1-based): minCode[l] and maxCode[l] bound the
	// canonical codes of that length; valPtr[l] indexes Values at the
	// first code of that length. maxCode[l] == -1 when no codes.
	minCode [17]int32
	maxCode [17]int32
	valPtr  [17]int32
	values  [256]byte // a spec never defines more than 256 symbols
}

// init derives the decoding tables in place, overwriting any previous
// table so a pooled decoder can be rebuilt without allocation.
func (d *huffDecoder) init(spec *HuffmanSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	d.lut = [1 << lutBits]uint16{}
	copy(d.values[:], spec.Values)
	code := int32(0)
	k := int32(0)
	for l := 1; l <= 16; l++ {
		n := int32(spec.Counts[l-1])
		if n == 0 {
			d.minCode[l] = 0
			d.maxCode[l] = -1
			d.valPtr[l] = 0
		} else {
			d.minCode[l] = code
			d.maxCode[l] = code + n - 1
			d.valPtr[l] = k
			if l <= lutBits {
				for c := int32(0); c < n; c++ {
					base := (code + c) << (lutBits - l)
					entry := uint16(spec.Values[k+c])<<8 | uint16(l)
					for p := int32(0); p < 1<<(lutBits-l); p++ {
						d.lut[base+p] = entry
					}
				}
			}
			k += n
			code += n
		}
		code <<= 1
	}
	return nil
}

// lookup resolves the Huffman code at the top of acc (bitReader's
// layout) without consuming it, in lut's form: symbol<<8 | code length,
// or 0 when no code is a prefix of the top 16 bits. Codes up to lutBits
// long take one index; longer ones walk the canonical arrays.
func (d *huffDecoder) lookup(acc uint64) uint16 {
	if e := d.lut[acc>>(64-lutBits)]; e != 0 {
		return e
	}
	return d.lookupLong(acc)
}

// lookupLong is the canonical walk over a 16-bit peek, kept out of line
// so that lookup itself inlines into the block decoder.
//
//go:noinline
func (d *huffDecoder) lookupLong(acc uint64) uint16 {
	peek := int32(acc >> 48)
	for l := 1; l <= 16; l++ {
		code := peek >> (16 - l)
		if code <= d.maxCode[l] && code >= d.minCode[l] {
			return uint16(d.values[d.valPtr[l]+code-d.minCode[l]])<<8 | uint16(l)
		}
	}
	return 0
}

// decode reads one Huffman-coded symbol from r: the symbol-at-a-time form
// of what decodeBlock does on locals, used by the progressive scans.
func (d *huffDecoder) decode(r *bitReader) (byte, error) {
	if r.n < 16 {
		r.refill()
	}
	e := d.lookup(r.acc)
	l := int(e & 0xFF)
	if err := codeError(l, r.n); err != nil {
		return 0, err
	}
	r.acc <<= uint(l)
	r.n -= l
	return byte(e >> 8), nil
}

// codeError classifies a lookup that found a code of length l (0: none)
// with n real bits in the accumulator. The zeros padding it can complete
// a code or spoil one, but the real bits decide: a code ending within
// them is good; one needing more, or no match with under 16 to go on, is
// short data; no match in 16 real bits is a code the table lacks.
func codeError(l, n int) error {
	switch {
	case l != 0 && l <= n:
		return nil
	case l != 0 || n < 16:
		return errShortData
	}
	return FormatError("invalid huffman code")
}

// acValueBits is the window of the AC lookahead+value table: a symbol
// whose code and magnitude bits fit in it (most do) decodes in one index.
const acValueBits = 10

// acValueTable maps the next acValueBits stream bits to a whole AC symbol:
// coefficient<<8 | run<<4 | total bits, the coefficient already EXTENDed,
// or 0 when the window holds no complete run/size symbol with a
// coefficient of at most 7 bits (EOB and ZRL stay on the symbol path). The scan
// decoders build the tables they need on their stack (scanTables), so the
// per-image Header with its eight inline huffDecoders does not grow.
type acValueTable [1 << acValueBits]int16

// init derives the table from an initialised AC decoder.
func (t *acValueTable) init(d *huffDecoder) {
	*t = acValueTable{}
	for l := 1; l < acValueBits; l++ {
		for code := d.minCode[l]; code <= d.maxCode[l]; code++ {
			rs := d.values[d.valPtr[l]+code-d.minCode[l]]
			run, size := int(rs>>4), int(rs&0x0F)
			total := l + size
			if size == 0 || size > 7 || total > acValueBits {
				continue // no coefficient, or one outside int8
			}
			for m := int32(0); m < 1<<size; m++ {
				entry := int16(extend(m, size)<<8) | int16(run<<4|total)
				base := (code<<size | m) << (acValueBits - total)
				for p := int32(0); p < 1<<(acValueBits-total); p++ {
					t[base+p] = entry
				}
			}
		}
	}
}

// huffEncoder is the encoding form: code and length per symbol.
type huffEncoder struct {
	code [256]uint32
	size [256]uint8
}

// newHuffEncoder derives the encoding tables from a validated spec.
func newHuffEncoder(spec *HuffmanSpec) (*huffEncoder, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	e := &huffEncoder{}
	code := uint32(0)
	k := 0
	for l := 1; l <= 16; l++ {
		for i := 0; i < int(spec.Counts[l-1]); i++ {
			v := spec.Values[k]
			e.code[v] = code
			e.size[v] = uint8(l)
			code++
			k++
		}
		code <<= 1
	}
	return e, nil
}

// emit writes the code for symbol v.
func (e *huffEncoder) emit(w *bitWriter, v byte) error {
	if e.size[v] == 0 {
		return FormatError("symbol absent from huffman table")
	}
	w.writeBits(e.code[v], int(e.size[v]))
	return nil
}

// bitLength returns the number of magnitude bits (SSSS) needed for v.
func bitLength(v int32) int {
	if v < 0 {
		v = -v
	}
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}
