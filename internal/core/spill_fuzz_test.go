package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// FuzzDecodeSpillRecord feeds the spill-record reader the bytes a
// truncated or corrupt spill device could hand back. The target
// recomputes the checksum over the mutated stored bytes, so the fuzzer
// reaches the length check and inflate rather than stopping at the CRC
// (TestSpillRecordRoundTrip covers the CRC branch). The reader must
// never panic, must return an error or exactly the length the header
// declares, and every encode→decode round trip must be byte-identical.
func FuzzDecodeSpillRecord(f *testing.F) {
	compressible := bytes.Repeat([]byte{7, 7, 7, 9}, 256)
	incompressible := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(incompressible)
	for _, payload := range [][]byte{nil, {42}, compressible, incompressible} {
		f.Add(encodeSpillRecord(payload, false))
		f.Add(encodeSpillRecord(payload, true))
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		wantLen := int64(-1)
		if len(rec) >= SpillHeaderSize {
			binary.LittleEndian.PutUint32(rec[8:], crc32.ChecksumIEEE(rec[SpillHeaderSize:]))
			wantLen = int64(binary.LittleEndian.Uint64(rec[12:]))
			if wantLen < 0 || wantLen > 1<<20 {
				return // the cache passes the entry's own size; keep allocations small
			}
		}
		got, err := decodeSpillRecord(rec, wantLen)
		if err == nil && int64(len(got)) != wantLen {
			t.Fatalf("decoded %d bytes, header declares %d", len(got), wantLen)
		}
		payload := rec
		if err == nil {
			payload = got
		}
		for _, compress := range []bool{false, true} {
			back, err := decodeSpillRecord(encodeSpillRecord(payload, compress), int64(len(payload)))
			if err != nil || !bytes.Equal(back, payload) {
				t.Fatalf("round trip (compress=%v) of %d bytes: err %v, identical %v", compress, len(payload), err, bytes.Equal(back, payload))
			}
		}
	})
}
