package jpeg

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitReaderBasic(t *testing.T) {
	r := newBitReader([]byte{0b1011_0010, 0b0100_0001})
	for i, want := range []int{1, 0, 1, 1} {
		got, err := r.readBit()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	v, err := r.readBits(6)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0b001001 {
		t.Fatalf("readBits(6) = %#b", v)
	}
	if v, _ := r.readBits(0); v != 0 {
		t.Fatalf("readBits(0) = %d", v)
	}
}

func TestBitReaderStuffing(t *testing.T) {
	// 0xFF 0x00 is a literal 0xFF data byte.
	r := newBitReader([]byte{0xFF, 0x00, 0x80})
	v, err := r.readBits(16)
	if err != nil {
		t.Fatal(err)
	}
	if uint16(v) != 0xFF80 {
		t.Fatalf("readBits(16) = %#x, want 0xFF80", v)
	}
}

func TestBitReaderStopsAtMarker(t *testing.T) {
	r := newBitReader([]byte{0xAB, 0xFF, mEOI, 0xCD})
	if v, err := r.readBits(8); err != nil || v != 0xAB {
		t.Fatalf("readBits = %#x, %v", v, err)
	}
	if _, err := r.readBits(8); !errors.Is(err, errShortData) {
		t.Fatalf("read past marker: %v", err)
	}
	if m := r.takeMarker(); m != mEOI {
		t.Fatalf("takeMarker = %#x", m)
	}
	if m := r.takeMarker(); m != 0 {
		t.Fatalf("second takeMarker = %#x, want 0", m)
	}
}

func TestBitReaderFillBytesBeforeMarker(t *testing.T) {
	// Multiple 0xFF fill bytes may precede a marker.
	r := newBitReader([]byte{0x12, 0xFF, 0xFF, 0xFF, mRST0})
	if v, err := r.readBits(8); err != nil || v != 0x12 {
		t.Fatalf("readBits = %#x, %v", v, err)
	}
	if _, err := r.readBit(); !errors.Is(err, errShortData) {
		t.Fatalf("expected marker stop, got %v", err)
	}
	if m := r.takeMarker(); m != mRST0 {
		t.Fatalf("marker = %#x, want RST0", m)
	}
}

func TestBitReaderAlign(t *testing.T) {
	r := newBitReader([]byte{0b1010_0000, 0xC3})
	if _, err := r.readBits(3); err != nil {
		t.Fatal(err)
	}
	r.align()
	v, err := r.readBits(8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xC3 {
		t.Fatalf("after align readBits(8) = %#x, want 0xC3", v)
	}
}

func TestBitReaderNextMarker(t *testing.T) {
	r := newBitReader([]byte{0x01, 0x02, 0xFF, 0x00, 0x03, 0xFF, mRST3, 0x04})
	m, err := r.nextMarker()
	if err != nil {
		t.Fatal(err)
	}
	if m != mRST3 {
		t.Fatalf("nextMarker = %#x, want RST3", m)
	}
	if v, err := r.readBits(8); err != nil || v != 0x04 {
		t.Fatalf("after nextMarker readBits = %#x, %v", v, err)
	}
}

const mRST3 = mRST0 + 3

func TestBitReaderEOF(t *testing.T) {
	r := newBitReader([]byte{0x80})
	if _, err := r.readBits(9); !errors.Is(err, errShortData) {
		t.Fatalf("readBits past EOF: %v", err)
	}
	// Trailing lone 0xFF is also short data.
	r = newBitReader([]byte{0xFF})
	if _, err := r.readBit(); !errors.Is(err, errShortData) {
		t.Fatalf("lone 0xFF: %v", err)
	}
}

func TestBitWriterStuffing(t *testing.T) {
	w := &bitWriter{}
	w.writeBits(0xFF, 8)
	w.writeBits(0x01, 8)
	out := w.flush()
	want := []byte{0xFF, 0x00, 0x01}
	if len(out) != len(want) {
		t.Fatalf("out = %x, want %x", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %x, want %x", out, want)
		}
	}
}

func TestBitWriterFlushPadsWithOnes(t *testing.T) {
	w := &bitWriter{}
	w.writeBits(0b101, 3)
	out := w.flush()
	if len(out) != 1 || out[0] != 0b1011_1111 {
		t.Fatalf("out = %x, want b4 padded with ones", out)
	}
}

// TestBitRoundTripProperty: any bit sequence written through bitWriter is
// read back identically by bitReader (stuffing is transparent).
func TestBitRoundTripProperty(t *testing.T) {
	f := func(vals []uint16, widths []uint8) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		type item struct {
			v uint32
			w int
		}
		var items []item
		w := &bitWriter{}
		for i := 0; i < n; i++ {
			width := int(widths[i]%16) + 1
			v := uint32(vals[i]) & ((1 << width) - 1)
			items = append(items, item{v, width})
			w.writeBits(v, width)
		}
		data := w.flush()
		r := newBitReader(data)
		for _, it := range items {
			got, err := r.readBits(it.w)
			if err != nil || uint32(got) != it.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExtend(t *testing.T) {
	cases := []struct {
		v    int32
		ssss int
		want int32
	}{
		{0, 0, 0},
		{0, 1, -1},
		{1, 1, 1},
		{0, 2, -3},
		{1, 2, -2},
		{2, 2, 2},
		{3, 2, 3},
		{0b0111, 4, -8},
		{0b1000, 4, 8},
	}
	for _, c := range cases {
		if got := extend(c.v, c.ssss); got != c.want {
			t.Errorf("extend(%d, %d) = %d, want %d", c.v, c.ssss, got, c.want)
		}
	}
}

func TestBitLength(t *testing.T) {
	cases := []struct {
		v    int32
		want int
	}{
		{0, 0}, {1, 1}, {-1, 1}, {2, 2}, {3, 2}, {-3, 2}, {4, 3}, {255, 8}, {-256, 9}, {1023, 10},
	}
	for _, c := range cases {
		if got := bitLength(c.v); got != c.want {
			t.Errorf("bitLength(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// newBytewiseBitReader returns a reader whose refill never takes the bulk
// step: the reference the bulk path is held to.
func newBytewiseBitReader(data []byte) *bitReader {
	return &bitReader{data: data, bulkEnd: -1}
}

// unstuff is an independent model of a scan's byte stream: the payload
// bytes up to the first marker or the end of input, and that marker.
func unstuff(data []byte) (payload []byte, marker byte, rest []byte) {
	for i := 0; i < len(data); i++ {
		if data[i] != 0xFF {
			payload = append(payload, data[i])
			continue
		}
		if i+1 >= len(data) {
			return payload, 0, nil // lone trailing 0xFF
		}
		switch data[i+1] {
		case 0x00:
			payload = append(payload, 0xFF)
			i++
		case 0xFF: // fill byte: the next 0xFF starts the pair again
		default:
			return payload, data[i+1], data[i+2:]
		}
	}
	return payload, 0, nil
}

// checkReaderAgainstModel reads data through r in rng-chosen widths and
// holds every value, the short-data error, the pending marker and the
// bytes after it to the unstuff model.
func checkReaderAgainstModel(t *testing.T, name string, r *bitReader, data []byte, rng *rand.Rand) {
	t.Helper()
	for seg := 0; ; seg++ {
		payload, marker, rest := unstuff(data)
		bitPos, total := 0, 8*len(payload)
		for {
			w := rng.Intn(17) // 0..16
			var want int32
			for i := 0; i < w && bitPos+w <= total; i++ {
				p := bitPos + i
				want = want<<1 | int32(payload[p/8]>>(7-p%8)&1)
			}
			got, err := r.readBits(w)
			if bitPos+w > total {
				if !errors.Is(err, errShortData) {
					t.Fatalf("%s seg %d: readBits(%d) at bit %d/%d = %#x, %v; want short data", name, seg, w, bitPos, total, got, err)
				}
				break
			}
			if err != nil || got != want {
				t.Fatalf("%s seg %d: readBits(%d) at bit %d/%d = %#x, %v; want %#x", name, seg, w, bitPos, total, got, err, want)
			}
			bitPos += w
		}
		m, err := r.nextMarker()
		if marker == 0 {
			if err == nil {
				t.Fatalf("%s seg %d: nextMarker = %#x past the end of input", name, seg, m)
			}
			return
		}
		if err != nil || m != marker {
			t.Fatalf("%s seg %d: nextMarker = %#x, %v; want %#x", name, seg, m, err, marker)
		}
		data = rest
	}
}

// TestBitReaderRefillWindows places each special sequence — a stuffed
// 0xFF, fill bytes before a restart marker, a bare marker, and two of
// them back to back — at every offset around an 8-byte refill window of
// otherwise clean bytes, and holds the bulk reader and the byte-wise
// reader to the model. Markers early in the buffer leave ≥ 8 clean bytes
// behind them: the bulk step must not run past a pending marker.
func TestBitReaderRefillWindows(t *testing.T) {
	specials := map[string][]byte{
		"stuffed":      {0xFF, 0x00},
		"fill+RST3":    {0xFF, 0xFF, 0xFF, mRST3},
		"EOI":          {0xFF, mEOI},
		"stuffed+RST0": {0xFF, 0x00, 0xFF, mRST0},
		"twoStuffed":   {0xFF, 0x00, 0xFF, 0x00},
	}
	for name, sp := range specials {
		for off := 0; off <= 15; off++ {
			data := make([]byte, 0, 40)
			for i := 0; len(data) < 36; i++ {
				if i == off {
					data = append(data, sp...)
				}
				data = append(data, byte(0x11*(i%14)+1)) // never 0xFF
			}
			for seed := int64(0); seed < 8; seed++ {
				id := fmt.Sprintf("%s@%d/seed%d", name, off, seed)
				checkReaderAgainstModel(t, id+"/bulk", newBitReader(data), data, rand.New(rand.NewSource(seed)))
				checkReaderAgainstModel(t, id+"/bytewise", newBytewiseBitReader(data), data, rand.New(rand.NewSource(seed)))
			}
		}
	}
}

// TestBitReaderShortInputs covers inputs of 0–9 bytes, around the length
// at which the bulk step first becomes possible.
func TestBitReaderShortInputs(t *testing.T) {
	for n := 0; n <= 9; n++ {
		for _, ffAt := range []int{-1, 0, n / 2, n - 1} {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(0x21 + 0x13*i)
			}
			if ffAt >= 0 && ffAt < n {
				data[ffAt] = 0xFF // followed by a data byte (a marker) or nothing
			}
			for seed := int64(0); seed < 8; seed++ {
				id := fmt.Sprintf("len%d/ff%d/seed%d", n, ffAt, seed)
				checkReaderAgainstModel(t, id+"/bulk", newBitReader(data), data, rand.New(rand.NewSource(seed)))
				checkReaderAgainstModel(t, id+"/bytewise", newBytewiseBitReader(data), data, rand.New(rand.NewSource(seed)))
			}
		}
	}
}

// TestBitReaderAlignAndNextMarkerAfterBulkRefill: the bulk step runs the
// reader up to eight bytes ahead of the decoder; align and nextMarker
// must still act on the decoder's position.
func TestBitReaderAlignAndNextMarkerAfterBulkRefill(t *testing.T) {
	data := []byte{0b1010_0000, 0xC3, 3, 4, 5, 6, 7, 8, 9, 10, 0xFF, mRST0 + 1, 0x42, 0x43}
	r := newBitReader(data)
	if _, err := r.readBits(3); err != nil {
		t.Fatal(err)
	}
	if r.n <= 32 {
		t.Fatalf("accumulator holds %d bits after the first read: the bulk step did not run", r.n)
	}
	r.align()
	if v, err := r.readBits(8); err != nil || v != 0xC3 {
		t.Fatalf("after align readBits(8) = %#x, %v; want 0xC3", v, err)
	}
	if m, err := r.nextMarker(); err != nil || m != mRST0+1 {
		t.Fatalf("nextMarker = %#x, %v; want RST1", m, err)
	}
	if v, err := r.readBits(16); err != nil || v != 0x4243 {
		t.Fatalf("after nextMarker readBits(16) = %#x, %v; want 0x4243", v, err)
	}
}
