package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
)

// FuzzDecodeSpillRecord feeds the in-place spill-record decoder the
// bytes a truncated or corrupt spill device could hand back, laid out as
// a spill hit reads them. The target recomputes the checksum over the
// mutated stored bytes, so the fuzzer reaches the length check and
// inflate rather than stopping at the CRC (TestSpillRecordRoundTrip
// covers the CRC branch). The decoder must never panic, never write
// outside dst, return an error or fill exactly the declared length —
// the stored bytes of a raw record, their inflation (by a fresh flate
// reader) of a compressed one — and every encode→decode round trip
// must be byte-identical. One reader serves an input's three decodes,
// so its reused inflater is fuzzed too. Declared lengths run up to
// 1 MiB, past a replay-96 batch (32×96×96×3 = 884,736 bytes).
func FuzzDecodeSpillRecord(f *testing.F) {
	compressible := bytes.Repeat([]byte{7, 7, 7, 9}, 256)
	incompressible := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(incompressible)
	for _, payload := range [][]byte{nil, {42}, compressible, incompressible} {
		f.Add(encodeSpillRecord(payload, false))
		f.Add(encodeSpillRecord(payload, true))
	}
	const guard = 64
	f.Fuzz(func(t *testing.T, rec []byte) {
		if len(rec) >= SpillHeaderSize {
			binary.LittleEndian.PutUint32(rec[8:], crc32.ChecksumIEEE(rec[SpillHeaderSize:]))
		}
		var hdr [SpillHeaderSize]byte
		stored := rec[copy(hdr[:], rec):]
		wantLen := binary.LittleEndian.Uint64(hdr[12:])
		if wantLen > 1<<20 {
			return // the cache passes the entry's own size; keep allocations bounded
		}
		// A record the header checks reject never reaches dst, so it gets
		// an empty one: the declared length is sized only past them.
		headerOK := string(hdr[:4]) == SpillMagic && hdr[4] == SpillFormatVersion
		n := 0
		if headerOK {
			n = int(wantLen)
		}
		// dst sits between guard bytes and starts out holding them too.
		mem := bytes.Repeat([]byte{0xA5}, n+2*guard)
		dst := mem[guard : guard+n : guard+n]
		var r spillReader
		err := decodeInPlace(&r, rec, dst)
		for i, b := range append(mem[:guard:guard], mem[guard+n:]...) {
			if b != 0xA5 {
				t.Fatalf("decode wrote guard byte %d outside dst", i)
			}
		}
		if err == nil && !headerOK {
			t.Fatalf("decode accepted magic %q version %d", hdr[:4], hdr[4])
		}
		if err == nil {
			want := stored
			if hdr[5]&spillFlagCompressed != 0 {
				want = make([]byte, wantLen)
				if _, err := io.ReadFull(flate.NewReader(bytes.NewReader(stored)), want); err != nil {
					t.Fatalf("decode accepted a record a fresh inflater rejects: %v", err)
				}
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("decoded %d bytes do not match the record's declared %d", len(dst), wantLen)
			}
		}
		payload := rec
		if err == nil {
			payload = append([]byte(nil), dst...)
		}
		for _, compress := range []bool{false, true} {
			back := make([]byte, len(payload))
			if err := decodeInPlace(&r, encodeSpillRecord(payload, compress), back); err != nil || !bytes.Equal(back, payload) {
				t.Fatalf("round trip (compress=%v) of %d bytes: err %v, identical %v", compress, len(payload), err, bytes.Equal(back, payload))
			}
		}
	})
}
