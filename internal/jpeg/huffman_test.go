package jpeg

import (
	"math/rand"
	"testing"
)

// newHuffDecoder derives a standalone decoder; the codec proper keeps its
// decoders inline in the Header and calls init in place.
func newHuffDecoder(spec *HuffmanSpec) (*huffDecoder, error) {
	d := &huffDecoder{}
	if err := d.init(spec); err != nil {
		return nil, err
	}
	return d, nil
}

func TestHuffmanSpecValidate(t *testing.T) {
	for _, spec := range []*HuffmanSpec{&stdDCLumaSpec, &stdACLumaSpec, &stdDCChromaSpec, &stdACChromaSpec} {
		if err := spec.validate(); err != nil {
			t.Errorf("standard spec rejected: %v", err)
		}
	}
	bad := HuffmanSpec{}
	if err := bad.validate(); err == nil {
		t.Error("empty spec accepted")
	}
	over := HuffmanSpec{Counts: [16]byte{3}, Values: []byte{1, 2, 3}} // 3 codes of 1 bit
	if err := over.validate(); err == nil {
		t.Error("over-subscribed spec accepted")
	}
	mismatch := HuffmanSpec{Counts: [16]byte{0, 2}, Values: []byte{1}}
	if err := mismatch.validate(); err == nil {
		t.Error("counts/values mismatch accepted")
	}
}

// TestHuffmanEncodeDecodeRoundTrip encodes a pseudo-random symbol stream
// with each standard table and decodes it back.
func TestHuffmanEncodeDecodeRoundTrip(t *testing.T) {
	specs := map[string]*HuffmanSpec{
		"dcLuma":   &stdDCLumaSpec,
		"acLuma":   &stdACLumaSpec,
		"dcChroma": &stdDCChromaSpec,
		"acChroma": &stdACChromaSpec,
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			enc, err := newHuffEncoder(spec)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := newHuffDecoder(spec)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			symbols := make([]byte, 4096)
			for i := range symbols {
				symbols[i] = spec.Values[rng.Intn(len(spec.Values))]
			}
			w := &bitWriter{}
			for _, s := range symbols {
				if err := enc.emit(w, s); err != nil {
					t.Fatal(err)
				}
			}
			r := newBitReader(w.flush())
			for i, want := range symbols {
				got, err := dec.decode(r)
				if err != nil {
					t.Fatalf("symbol %d: %v", i, err)
				}
				if got != want {
					t.Fatalf("symbol %d = %#x, want %#x", i, got, want)
				}
			}
		})
	}
}

// TestHuffmanLongCodes exercises the slow path with a table whose codes
// all exceed the LUT width.
func TestHuffmanLongCodes(t *testing.T) {
	// 16 codes of length 10: legal and all beyond lutBits.
	spec := HuffmanSpec{}
	spec.Counts[9] = 16
	for i := 0; i < 16; i++ {
		spec.Values = append(spec.Values, byte(i*7))
	}
	enc, err := newHuffEncoder(&spec)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := newHuffDecoder(&spec)
	if err != nil {
		t.Fatal(err)
	}
	w := &bitWriter{}
	for _, v := range spec.Values {
		if err := enc.emit(w, v); err != nil {
			t.Fatal(err)
		}
	}
	r := newBitReader(w.flush())
	for _, want := range spec.Values {
		got, err := dec.decode(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("decode = %d, want %d", got, want)
		}
	}
}

func TestHuffmanInvalidCode(t *testing.T) {
	// A table with a single 1-bit code "0"; input starting with 1 never
	// matches any code.
	spec := HuffmanSpec{Counts: [16]byte{1}, Values: []byte{42}}
	dec, err := newHuffDecoder(&spec)
	if err != nil {
		t.Fatal(err)
	}
	r := newBitReader([]byte{0xFF, 0x00, 0xFF, 0x00, 0xFF, 0x00}) // all ones
	if _, err := dec.decode(r); err == nil {
		t.Fatal("invalid code accepted")
	}
}

func TestHuffmanEmitUnknownSymbol(t *testing.T) {
	spec := HuffmanSpec{Counts: [16]byte{1}, Values: []byte{42}}
	enc, err := newHuffEncoder(&spec)
	if err != nil {
		t.Fatal(err)
	}
	w := &bitWriter{}
	if err := enc.emit(w, 43); err == nil {
		t.Fatal("emit of absent symbol accepted")
	}
}

// TestHuffmanLUTAgreesWithSlowPath decodes the same stream twice — once
// through the fast path and once with a LUT-disabled decoder — and
// requires identical output.
func TestHuffmanLUTAgreesWithSlowPath(t *testing.T) {
	spec := &stdACLumaSpec
	fast, err := newHuffDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := newHuffDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	slow.lut = [1 << lutBits]uint16{} // force the canonical walk
	enc, err := newHuffEncoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	w := &bitWriter{}
	var symbols []byte
	for i := 0; i < 2000; i++ {
		s := spec.Values[rng.Intn(len(spec.Values))]
		symbols = append(symbols, s)
		if err := enc.emit(w, s); err != nil {
			t.Fatal(err)
		}
	}
	data := w.flush()
	rf, rs := newBitReader(data), newBitReader(data)
	for i, want := range symbols {
		gf, err := fast.decode(rf)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := slow.decode(rs)
		if err != nil {
			t.Fatal(err)
		}
		if gf != gs || gf != want {
			t.Fatalf("symbol %d: fast=%d slow=%d want=%d", i, gf, gs, want)
		}
	}
}

// randomHuffmanSpec draws a valid table: code lengths assigned greedily
// under the Kraft budget (so the code space is never over-subscribed),
// distinct random symbols in code order.
func randomHuffmanSpec(rng *rand.Rand) *HuffmanSpec {
	spec := &HuffmanSpec{}
	symbols := rng.Perm(256)
	budget := 1 << 16 // Kraft sum in units of 2^-16
	nSym := 2 + rng.Intn(160)
	var lengths []int
	for len(lengths) < nSym {
		l := 1 + rng.Intn(16)
		if cost := 1 << (16 - l); cost < budget { // strict: leaves the all-ones code free
			budget -= cost
			lengths = append(lengths, l)
		} else if l == 16 {
			break
		}
	}
	for _, l := range lengths {
		spec.Counts[l-1]++
	}
	for _, s := range symbols[:len(lengths)] {
		spec.Values = append(spec.Values, byte(s))
	}
	return spec
}

// TestACValueTableMatchesSymbolAtATime: for random valid tables (and the
// two Annex K ones), every window of the lookahead+value table must say
// exactly what decode + readBits + extend say symbol-at-a-time — the same
// run, coefficient and bit count when the symbol fits the window with a
// coefficient of at most 7 bits, and a miss in every other case.
func TestACValueTableMatchesSymbolAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	specs := []*HuffmanSpec{&stdACLumaSpec, &stdACChromaSpec}
	for i := 0; i < 60; i++ {
		specs = append(specs, randomHuffmanSpec(rng))
	}
	for si, spec := range specs {
		dec, err := newHuffDecoder(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", si, err)
		}
		enc, err := newHuffEncoder(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", si, err)
		}
		var tab acValueTable
		tab.init(dec)
		for w := 0; w < 1<<acValueBits; w++ {
			bw := &bitWriter{}
			bw.writeBits(uint32(w), acValueBits)
			bw.writeBits(0, 16)
			bw.writeBits(0, 16)
			r := newBytewiseBitReader(bw.flush())
			want := int16(0)
			if rs, err := dec.decode(r); err == nil {
				run, size := int(rs>>4), int(rs&0x0F)
				if bits, err := r.readBits(size); err == nil {
					used := int(enc.size[rs]) + size
					if size >= 1 && size <= 7 && used <= acValueBits {
						want = int16(extend(bits, size)<<8) | int16(run<<4|used)
					}
				}
			}
			if tab[w] != want {
				t.Fatalf("spec %d window %#b: table entry %#04x, symbol-at-a-time %#04x", si, w, uint16(tab[w]), uint16(want))
			}
		}
	}
}
