package jpeg

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"
)

// driFixtures reads the checked-in DRI streams, keyed by file name.
func driFixtures(t testing.TB) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "dri", "*.jpg"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no DRI fixtures: %v", err)
	}
	fixtures := map[string][]byte{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fixtures[filepath.Base(f)] = data
	}
	return fixtures
}

// sequentialDecode runs the sequential scan decoder over the given reader
// into co (reused across calls) and returns the error string ("" on
// success).
func sequentialDecode(h *Header, co *Coefficients, r *bitReader) string {
	co.init(h)
	if err := h.entropyDecodeSequential(co, r); err != nil {
		return err.Error()
	}
	return ""
}

// parityStores are the two coefficient stores requireReaderParity decodes
// into, kept across calls so the truncation sweep does not allocate two
// fresh grids per length.
var parityStores [2]Coefficients

// requireReaderParity decodes data's scan through the bulk-refill reader
// and through the byte-wise-only reader and requires identical
// coefficients and error strings — and, for a stream that decodes,
// pixels identical to Decode's. Streams Parse refuses never reach a
// reader and are skipped.
func requireReaderParity(t *testing.T, name string, data []byte) {
	t.Helper()
	h, err := Parse(data)
	if err != nil {
		return
	}
	for _, c := range h.Components {
		if !h.dcOK[c.dcSel] || !h.acOK[c.acSel] || !h.quantOK[c.QuantID] {
			return // EntropyDecodeInto refuses these before any reader exists
		}
	}
	bulk, ref := &parityStores[0], &parityStores[1]
	bulkErr := sequentialDecode(h, bulk, newBitReader(h.scan))
	refErr := sequentialDecode(h, ref, newBytewiseBitReader(h.scan))
	if bulkErr != refErr {
		t.Fatalf("%s: error diverged:\n  bulk refill: %q\n  byte-wise:   %q", name, bulkErr, refErr)
	}
	for i := range ref.comp {
		if !slices.Equal(bulk.comp[i], ref.comp[i]) {
			t.Fatalf("%s: component %d differs between bulk-refill and byte-wise readers", name, i)
		}
	}
	if refErr != "" {
		return
	}
	p, err := ref.Reconstruct()
	if err != nil {
		t.Fatalf("%s: reconstruct: %v", name, err)
	}
	want, err := Decode(data)
	if err != nil {
		t.Fatalf("%s: Decode failed on a stream the byte-wise reader decodes: %v", name, err)
	}
	if !bytes.Equal(p.ToImage().Pix, want.Pix) {
		t.Fatalf("%s: pixels differ between the byte-wise reader and Decode", name)
	}
}

// TestEntropyReaderParity holds the bulk-refill reader to the byte-wise
// one over the golden corpus and the DRI fixtures, whole and truncated:
// every length of a small DRI stream (each byte offset of the tail
// against the refill window, each restart boundary), and the larger
// dri-gray.jpg fixture at a stride coprime to the window — every length
// of it costs half a minute under the race detector for the same cases.
func TestEntropyReaderParity(t *testing.T) {
	corpus := goldenCorpus(t)
	for name, data := range driFixtures(t) {
		corpus[name] = data
	}
	for name, data := range corpus {
		requireReaderParity(t, name, data)
	}
	small := encodeDRI(t, 96, 64, 3, 9, EncodeOptions{Quality: 88, Subsample420: true, RestartInterval: 2})
	for l := range small {
		requireReaderParity(t, "small DRI stream truncated", small[:l])
	}
	fixture := corpus["dri-gray.jpg"]
	for l := 0; l < len(fixture); l += 13 {
		requireReaderParity(t, "dri-gray.jpg truncated", fixture[:l])
	}
}

// hostileHeader is a few hundred bytes declaring a 65 535×65 535 frame:
// the golden 4:2:0 stream's header with the SOF dimensions overwritten.
func hostileHeader(t *testing.T, progressive bool) []byte {
	t.Helper()
	img := smoothImage(16, 16, 3, 1)
	opt := EncodeOptions{Quality: 50, Subsample420: true}
	data, err := Encode(img, opt)
	sof := []byte{0xFF, mSOF0}
	if progressive {
		data, err = EncodeProgressive(img, opt)
		sof[1] = mSOF2
	}
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, sof)
	if i < 0 {
		t.Fatal("no SOF in encoded stream")
	}
	copy(data[i+5:i+9], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	return data
}

// TestHostileHeaderIsBoundedByItsScan: a tiny stream declaring 65 535² —
// ≈17 GB of coefficients per component — must be refused by the scan-size
// guard before any grid is sized: the short-data error, in well under a
// millisecond and 64 KiB.
func TestHostileHeaderIsBoundedByItsScan(t *testing.T) {
	for _, progressive := range []bool{false, true} {
		data := hostileHeader(t, progressive)
		if len(data) > 1024 {
			t.Fatalf("hostile stream is %d bytes; want a small one", len(data))
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start := time.Now()
		_, err := Decode(data)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		for i := 0; i < 4; i++ { // best of five: a preempted run is not a slow decoder
			start = time.Now()
			_, _ = Decode(data)
			if d := time.Since(start); d < elapsed {
				elapsed = d
			}
		}
		if err != errShortData {
			t.Fatalf("progressive=%v: Decode = %v, want %v", progressive, err, errShortData)
		}
		if got := ms.TotalAlloc - before; got > 64<<10 {
			t.Errorf("progressive=%v: refused after allocating %d bytes, want < 64 KiB", progressive, got)
		}
		if elapsed > time.Millisecond {
			t.Errorf("progressive=%v: refused after %v, want < 1 ms", progressive, elapsed)
		}
	}
}
