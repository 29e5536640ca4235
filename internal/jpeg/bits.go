// Package jpeg implements a baseline JPEG (ITU-T T.81) encoder and
// decoder from scratch, with the decoder additionally exposed as explicit
// pipeline stages (entropy decode → dequantise+iDCT → upsample+colour).
//
// DLBooster's FPGA decoder (paper §3.3) is exactly that staged pipeline:
// a parser feeds a 4-way Huffman decoding unit, which feeds an iDCT & RGB
// unit, which feeds a 2-way resizer. Building the codec ourselves — rather
// than calling image/jpeg — gives the FPGA model real stages to schedule
// and lets the CPU-based baseline burn cores on the same computation the
// paper's baseline burned them on. The stdlib codec is used only in tests,
// as an independent reference implementation.
//
// Supported: baseline sequential DCT and progressive (SOF2, spectral
// selection + successive approximation — decode in progressive.go,
// encode in progencode.go), 8-bit samples, 1 or 3 components, sampling
// factors 1–2 in each axis (4:4:4, 4:2:2, 4:4:0, 4:2:0, grayscale),
// restart intervals, 8- and 16-bit quantisation tables, optimal Huffman
// table generation. Progressive streams decode in software only: the
// staged pipeline the FPGA mirror drives is baseline, like hardware
// decoders. Not supported (rejected with a clear error): arithmetic
// coding, hierarchical, 12-bit precision, CMYK.
//
// The baseline entropy decoder is the hot path of every decode: a 64-bit
// bit reader with a bulk refill (bitReader, below), a lookahead+value
// table in front of each AC Huffman table (huffman.go) and a block
// decoder that holds ≥ 32 bits before every symbol (decodeBlock);
// DESIGN.md §5.9 has the invariants.
package jpeg

import (
	"encoding/binary"
	"fmt"
)

// FormatError reports malformed JPEG input.
type FormatError string

// Error implements error, prefixing the detail with "jpeg: invalid format".
func (e FormatError) Error() string { return "jpeg: invalid format: " + string(e) }

// UnsupportedError reports valid-but-unsupported JPEG features.
type UnsupportedError string

// Error implements error, prefixing the detail with "jpeg: unsupported
// feature".
func (e UnsupportedError) Error() string { return "jpeg: unsupported feature: " + string(e) }

// errShortData reports entropy-coded data ending before the scan was
// complete. It is declared as a pre-boxed error (not a FormatError) so
// the hot bit-reader paths that return it at end-of-stream do not
// allocate an interface value per return.
var errShortData error = FormatError("short entropy-coded data")

// bitReader consumes entropy-coded scan bytes MSB first, removing the
// 0x00 bytes stuffed after 0xFF and stopping cleanly at markers. The FPGA
// Huffman unit's input channel carries exactly this byte stream.
//
// The 64-bit accumulator is MSB-aligned: its top n bits are unread stream
// bits and every bit below them is zero, so a peek wider than n reads the
// real bits followed by zeros. refill's bulk step loads all the whole
// bytes that fit in one shift when the next eight input bytes hold no
// 0xFF (no stuffing, fill byte or marker can be among them); any other
// window, the last seven bytes and everything after a pending marker go
// through fill, byte by byte under the rules of T.81 §B.1.1.5.
//
// A bitReader has no shared state: each scan owns its reader.
type bitReader struct {
	data []byte
	pos  int    // next byte to load into the accumulator
	acc  uint64 // bit accumulator, MSB-aligned, zero below the top n bits
	n    int    // number of valid bits in acc

	// bulkEnd is the last pos with eight input bytes after it for the
	// bulk step, len(data)-8; the parity tests' byte-wise-only reader has -1.
	bulkEnd int

	// marker holds a marker byte (the 0xXX of 0xFF 0xXX) encountered
	// while filling the accumulator. Once set, the reader refuses to
	// produce further bits until the caller consumes it.
	marker byte
}

func newBitReader(data []byte) *bitReader {
	return &bitReader{data: data, bulkEnd: len(data) - 8}
}

// refillBits is the level refill restores while input lasts. It covers
// the longest symbol (DC 16+11 bits, AC 16+15), so a caller holding that
// many decodes a whole symbol without going back to the input.
const refillBits = 32

// refill tops the accumulator up to at least refillBits bits, best
// effort: at the end of the input or before a marker it loads what is
// left, and the zero bits below r.n stand in for the rest.
func (r *bitReader) refill() {
	// Bytes after a pending marker are not this segment's entropy data.
	if r.marker == 0 && r.pos <= r.bulkEnd {
		x := binary.BigEndian.Uint64(r.data[r.pos:])
		// SWAR has-zero-byte test on ^x: true iff a byte of x is 0xFF.
		const lo, hi = 0x0101010101010101, 0x8080808080808080
		if (^x-lo)&x&hi == 0 {
			k := (64 - r.n) >> 3 // whole bytes that fit
			r.acc |= x >> (64 - 8*k) << (64 - 8*k - r.n)
			r.pos += k
			r.n += 8 * k
			return
		}
	}
	r.fill()
}

// fill is refill's byte-at-a-time path: it stops short of refillBits when
// the input is exhausted or a marker is hit.
func (r *bitReader) fill() {
	for r.n < refillBits && r.marker == 0 && r.pos < len(r.data) {
		b := r.data[r.pos]
		r.pos++
		if b == 0xFF {
			if r.pos >= len(r.data) {
				return
			}
			next := r.data[r.pos]
			r.pos++
			switch {
			case next == 0x00:
				// byte stuffing: a literal 0xFF data byte
			case next == 0xFF:
				// fill bytes before a marker: retry this position
				r.pos--
				continue
			default:
				r.marker = next
				return
			}
		}
		r.acc |= uint64(b) << (56 - r.n)
		r.n += 8
	}
}

// readBit returns the next bit.
func (r *bitReader) readBit() (int, error) {
	bit, err := r.readBits(1)
	return int(bit), err
}

// readBits returns the next n bits (0 ≤ n ≤ 16) as an unsigned value;
// n = 0 falls through every step as a no-op and returns 0.
func (r *bitReader) readBits(n int) (int32, error) {
	if r.n < n {
		if r.refill(); r.n < n {
			return 0, errShortData
		}
	}
	v := int32(r.acc >> (64 - n))
	r.acc <<= n
	r.n -= n
	return v, nil
}

// align discards bits to the next byte boundary (before restart markers).
func (r *bitReader) align() {
	rem := r.n % 8
	r.acc <<= rem
	r.n -= rem
}

// takeMarker returns and clears a pending marker byte (0 if none).
func (r *bitReader) takeMarker() byte {
	m := r.marker
	r.marker = 0
	return m
}

// nextMarker scans forward to the next marker byte, for restart-marker
// resynchronisation. It returns the marker code. Bytes still in the
// accumulator are dropped; neither load path ever takes in a marker, so
// having run ahead of the decoder cannot skip the one looked for.
func (r *bitReader) nextMarker() (byte, error) {
	r.acc, r.n = 0, 0
	if m := r.takeMarker(); m != 0 {
		return m, nil
	}
	for r.pos+1 < len(r.data) {
		if r.data[r.pos] == 0xFF && r.data[r.pos+1] != 0x00 && r.data[r.pos+1] != 0xFF {
			m := r.data[r.pos+1]
			r.pos += 2
			return m, nil
		}
		r.pos++
	}
	return 0, errShortData
}

// extend implements the EXTEND procedure of T.81 §F.2.2.1: convert the
// magnitude-coded v of ssss bits into a signed coefficient.
func extend(v int32, ssss int) int32 {
	if ssss == 0 {
		return 0
	}
	if v < 1<<(ssss-1) {
		return v - (1 << ssss) + 1
	}
	return v
}

// bitWriter emits entropy-coded bytes MSB first with 0xFF stuffing.
type bitWriter struct {
	buf []byte
	acc uint32
	n   int
}

func (w *bitWriter) writeBits(v uint32, n int) {
	if n == 0 {
		return
	}
	v &= (1 << n) - 1
	w.acc |= v << (32 - w.n - n)
	w.n += n
	for w.n >= 8 {
		b := byte(w.acc >> 24)
		w.buf = append(w.buf, b)
		if b == 0xFF {
			w.buf = append(w.buf, 0x00)
		}
		w.acc <<= 8
		w.n -= 8
	}
}

// flush pads the final partial byte with 1-bits, as T.81 §F.1.2.3
// requires, and returns the accumulated stream.
func (w *bitWriter) flush() []byte {
	if w.n > 0 {
		pad := 8 - w.n
		w.writeBits((1<<pad)-1, pad)
	}
	return w.buf
}

// restartMarker pads to a byte boundary and appends RSTn directly —
// markers are not byte-stuffed.
func (w *bitWriter) restartMarker(m byte) {
	if w.n > 0 {
		pad := 8 - w.n
		w.writeBits((1<<pad)-1, pad)
	}
	w.buf = append(w.buf, 0xFF, m)
}

// sanity checks shared by decoder and encoder.
func checkComponents(n int) error {
	if n != 1 && n != 3 {
		return UnsupportedError(fmt.Sprintf("%d components (only grayscale and YCbCr supported)", n))
	}
	return nil
}
