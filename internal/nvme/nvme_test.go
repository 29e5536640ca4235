package nvme

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"dlbooster/internal/fpga"
)

func TestPutReadRoundTrip(t *testing.T) {
	d := New(Config{})
	data := []byte("hello nvme world")
	fi, err := d.Put("a.jpg", data)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != int64(len(data)) || fi.Blocks != 1 || fi.BlockStart != 0 {
		t.Fatalf("fi = %+v", fi)
	}
	got, err := d.Read("a.jpg")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Read = %q", got)
	}
}

func TestBlockLayout(t *testing.T) {
	d := New(Config{})
	big := make([]byte, BlockSize+1)
	fi1, _ := d.Put("one", big)       // 2 blocks
	fi2, _ := d.Put("two", []byte{1}) // 1 block after it
	if fi1.Blocks != 2 {
		t.Fatalf("fi1.Blocks = %d", fi1.Blocks)
	}
	if fi2.BlockStart != 2 {
		t.Fatalf("fi2.BlockStart = %d", fi2.BlockStart)
	}
	// Empty objects still own a block.
	fi3, _ := d.Put("empty", nil)
	if fi3.Blocks != 1 || fi3.Size != 0 {
		t.Fatalf("fi3 = %+v", fi3)
	}
}

// TestReadAtRanges reads an object stored in parts back through both
// read verbs: the parts land contiguously, and a range outside the
// object is refused before anything is copied.
func TestReadAtRanges(t *testing.T) {
	d := New(Config{})
	if _, err := d.Put("x", []byte("012"), nil, []byte("3456789")); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadAt("x", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "3456" {
		t.Fatalf("ReadAt = %q", got)
	}
	into := []byte("......")
	if err := d.ReadInto("x", 1, into[1:5]); err != nil || string(into) != ".1234." {
		t.Fatalf("ReadInto = %q, %v", into, err)
	}
	for _, bad := range [][2]int64{{-1, 2}, {0, 11}, {9, 2}, {0, -1}} {
		if _, err := d.ReadAt("x", bad[0], bad[1]); err == nil {
			t.Fatalf("range %v accepted", bad)
		}
		if bad[1] >= 0 {
			dst := make([]byte, bad[1])
			if err := d.ReadInto("x", bad[0], dst); err == nil || !bytes.Equal(dst, make([]byte, bad[1])) {
				t.Fatalf("ReadInto range %v: %v, dst %q", bad, err, dst)
			}
		}
	}
	if _, err := d.ReadAt("missing", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object: %v", err)
	}
}

func TestDuplicateAndEmptyNames(t *testing.T) {
	d := New(Config{})
	if _, err := d.Put("", []byte{1}); err == nil {
		t.Fatal("empty name accepted")
	}
	_, _ = d.Put("x", []byte{1})
	if _, err := d.Put("x", []byte{2}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestManifestOrderAndStats(t *testing.T) {
	d := New(Config{})
	_, _ = d.Put("b", []byte{1})
	_, _ = d.Put("a", []byte{2})
	m := d.Manifest()
	if len(m) != 2 || m[0].Name != "b" || m[1].Name != "a" {
		t.Fatalf("manifest order = %v", m)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	names := d.Names()
	if names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	_, _ = d.Read("a")
	_, _ = d.Read("b")
	reads, bytesRead, _ := d.Stats()
	if reads != 2 || bytesRead != 2 {
		t.Fatalf("stats = %d reads %d bytes", reads, bytesRead)
	}
}

func TestPacingModel(t *testing.T) {
	// 1 MB at 10 MB/s plus 1 ms latency ≈ 101 ms.
	d := New(Config{ReadBandwidth: 10e6, ReadLatency: time.Millisecond})
	payload := make([]byte, 1<<20)
	_, _ = d.Put("big", payload)
	start := time.Now()
	if _, err := d.Read("big"); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 90*time.Millisecond {
		t.Fatalf("paced read took %v, want ≥ ~100ms", elapsed)
	}
	_, _, busy := d.Stats()
	if busy < 100*time.Millisecond {
		t.Fatalf("busy = %v", busy)
	}
}

func TestFetchDataSource(t *testing.T) {
	d := New(Config{})
	_, _ = d.Put("img", []byte("abcdefgh"))
	got, err := d.Fetch(fpga.DataRef{Path: "img"})
	if err != nil || string(got) != "abcdefgh" {
		t.Fatalf("Fetch = %q, %v", got, err)
	}
	got, err = d.Fetch(fpga.DataRef{Path: "img", Offset: 2, Length: 3})
	if err != nil || string(got) != "cde" {
		t.Fatalf("Fetch range = %q, %v", got, err)
	}
	got, err = d.Fetch(fpga.DataRef{Path: "img", Offset: 5})
	if err != nil || string(got) != "fgh" {
		t.Fatalf("Fetch tail = %q, %v", got, err)
	}
	if _, err := d.Fetch(fpga.DataRef{Path: "none"}); err == nil {
		t.Fatal("missing fetch accepted")
	}
}

// TestPutReadProperty: any byte content round-trips through the block
// store, and manifest sizes stay exact.
func TestPutReadProperty(t *testing.T) {
	d := New(Config{})
	i := 0
	f := func(data []byte) bool {
		i++
		name := string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i%10)) + string(rune('0'+(i/100)%10))
		fi, err := d.Put(name, data)
		if err != nil {
			return false
		}
		if fi.Size != int64(len(data)) {
			return false
		}
		got, err := d.Read(name)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
