package lmdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	db := New()
	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	// Replace.
	if err := db.Put([]byte("k1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 {
		t.Fatalf("Len after replace = %d", db.Len())
	}
	v, _, _ = db.Get([]byte("k1"))
	if string(v) != "v2" {
		t.Fatalf("after replace = %q", v)
	}
	ok, err = db.Delete([]byte("k1"))
	if err != nil || !ok {
		t.Fatalf("Delete = %v %v", ok, err)
	}
	if _, ok, _ := db.Get([]byte("k1")); ok {
		t.Fatal("deleted key still present")
	}
	if ok, _ := db.Delete([]byte("k1")); ok {
		t.Fatal("double delete reported true")
	}
	if db.Len() != 0 {
		t.Fatalf("Len = %d", db.Len())
	}
}

func TestKeyValidation(t *testing.T) {
	db := New()
	if err := db.Put(nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := db.Put(make([]byte, MaxKeySize+1), []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := db.Put(make([]byte, MaxKeySize), nil); err != nil {
		t.Fatalf("max-size key rejected: %v", err)
	}
}

func TestValueIsCopied(t *testing.T) {
	db := New()
	val := []byte("mutable")
	_ = db.Put([]byte("k"), val)
	val[0] = 'X'
	got, _, _ := db.Get([]byte("k"))
	if string(got) != "mutable" {
		t.Fatalf("stored value aliases caller buffer: %q", got)
	}
	got[0] = 'Y'
	again, _, _ := db.Get([]byte("k"))
	if string(again) != "mutable" {
		t.Fatal("returned value aliases stored buffer")
	}
}

func TestManyKeysSplitNodes(t *testing.T) {
	db := New()
	const n = 10000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		key := []byte(fmt.Sprintf("key-%06d", i))
		if err := db.Put(key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != n {
		t.Fatalf("Len = %d", db.Len())
	}
	for i := 0; i < n; i += 97 {
		key := []byte(fmt.Sprintf("key-%06d", i))
		v, ok, _ := db.Get(key)
		if !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%s) = %q %v", key, v, ok)
		}
	}
	if _, ok, _ := db.Get([]byte("absent")); ok {
		t.Fatal("absent key found")
	}
}

func TestCursorOrderedScan(t *testing.T) {
	db := New()
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for _, k := range keys {
		_ = db.Put([]byte(k), []byte("v-"+k))
	}
	c, err := db.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []string
	for {
		k, v, ok := c.Next()
		if !ok {
			break
		}
		if string(v) != "v-"+string(k) {
			t.Fatalf("value mismatch at %s", k)
		}
		got = append(got, string(k))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order = %v, want %v", got, want)
		}
	}
}

func TestCursorSeek(t *testing.T) {
	db := New()
	for i := 0; i < 100; i += 10 {
		_ = db.Put([]byte(fmt.Sprintf("%03d", i)), []byte{byte(i)})
	}
	c, _ := db.Cursor()
	defer c.Close()
	k, _, ok := c.Seek([]byte("035"))
	if !ok || string(k) != "040" {
		t.Fatalf("Seek(035) = %q %v", k, ok)
	}
	// Next continues from the seek position.
	k, _, ok = c.Next()
	if !ok || string(k) != "050" {
		t.Fatalf("Next after seek = %q %v", k, ok)
	}
	if _, _, ok := c.Seek([]byte("999")); ok {
		t.Fatal("Seek past end returned a record")
	}
}

func TestCursorOnEmptyAndAfterDeletes(t *testing.T) {
	db := New()
	c, _ := db.Cursor()
	if _, _, ok := c.Next(); ok {
		t.Fatal("record in empty store")
	}
	c.Close()
	// Delete an entire leaf's worth, cursor must skip empty leaves.
	for i := 0; i < 200; i++ {
		_ = db.Put([]byte(fmt.Sprintf("%04d", i)), []byte{1})
	}
	for i := 0; i < 100; i++ {
		_, _ = db.Delete([]byte(fmt.Sprintf("%04d", i)))
	}
	c2, _ := db.Cursor()
	defer c2.Close()
	k, _, ok := c2.Next()
	if !ok || string(k) != "0100" {
		t.Fatalf("first after deletes = %q %v", k, ok)
	}
	n := 1
	for {
		_, _, ok := c2.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Fatalf("scanned %d records, want 100", n)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := New()
	rng := rand.New(rand.NewSource(2))
	want := map[string][]byte{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%05d", rng.Intn(100000))
		v := make([]byte, rng.Intn(300))
		rng.Read(v)
		want[k] = v
		_ = db.Put([]byte(k), v)
	}
	path := filepath.Join(t.TempDir(), "snap.lmdb")
	if err := db.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	back, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", back.Len(), len(want))
	}
	for k, v := range want {
		got, ok, _ := back.Get([]byte(k))
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("record %s corrupted", k)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Fatal("garbage snapshot opened")
	}
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file opened")
	}
	// Truncated snapshot.
	db := New()
	_ = db.Put([]byte("k"), make([]byte, 1000))
	good := filepath.Join(dir, "good")
	if err := db.SaveTo(good); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(good)
	trunc := filepath.Join(dir, "trunc")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(trunc); err == nil {
		t.Fatal("truncated snapshot opened")
	}
}

// TestOpenBoundsDeclaredValueLength opens a 25-byte snapshot whose one
// record declares a 64 MiB value: the load must fail having allocated
// memory for the bytes that exist, not for the length it was promised.
func TestOpenBoundsDeclaredValueLength(t *testing.T) {
	var snap []byte
	snap = append(snap, snapshotMagic[:]...)
	snap = binary.BigEndian.AppendUint64(snap, 1)
	snap = binary.BigEndian.AppendUint32(snap, 1)
	snap = append(snap, 'k')
	snap = binary.BigEndian.AppendUint32(snap, 64<<20)
	if len(snap) != 25 {
		t.Fatalf("snapshot is %d bytes, want 25", len(snap))
	}
	path := filepath.Join(t.TempDir(), "lying")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Open(path)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("snapshot with a missing 64 MiB value opened")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("failed load allocated %d bytes, want < 1 MiB", got)
	}
}

// TestOpenRejectsNonCanonicalSnapshots: SaveTo writes keys strictly
// ascending and nothing after the last record, so a stream that is out
// of order, repeats a key or carries trailing bytes is not a snapshot.
func TestOpenRejectsNonCanonicalSnapshots(t *testing.T) {
	record := func(k, v string) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(len(k)))
		b = append(b, k...)
		b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
		return append(b, v...)
	}
	snapshot := func(trailer string, recs ...[]byte) []byte {
		b := append([]byte(nil), snapshotMagic[:]...)
		b = binary.BigEndian.AppendUint64(b, uint64(len(recs)))
		for _, r := range recs {
			b = append(b, r...)
		}
		return append(b, trailer...)
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"descending": snapshot("", record("b", "1"), record("a", "2")),
		"duplicate":  snapshot("", record("a", "1"), record("a", "2")),
		"trailing":   snapshot("x", record("a", "1")),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Errorf("%s snapshot opened", name)
		}
	}
	good := filepath.Join(dir, "good")
	if err := os.WriteFile(good, snapshot("", record("a", "1"), record("b", "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(good); err != nil {
		t.Errorf("canonical snapshot: %v", err)
	}
}

// FuzzLoad feeds arbitrary bytes to the snapshot loader: it must never
// panic, and whatever it accepts must save back byte for byte.
func FuzzLoad(f *testing.F) {
	for _, n := range []int{0, 1, 40} {
		db := New()
		for i := 0; i < n; i++ {
			_ = db.Put([]byte(fmt.Sprintf("key-%03d", i)), bytes.Repeat([]byte{byte(i)}, i*7))
		}
		path := filepath.Join(f.TempDir(), "seed")
		if err := db.SaveTo(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db := New()
		if err := db.load(bytes.NewReader(data)); err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "snap")
		if err := db.SaveTo(path); err != nil {
			t.Fatal(err)
		}
		back, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("loaded snapshot (%d bytes) saves back as %d different bytes", len(data), len(back))
		}
	})
}

func TestClosedDB(t *testing.T) {
	db := New()
	_ = db.Put([]byte("k"), []byte("v"))
	db.Close()
	if err := db.Put([]byte("k2"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on closed: %v", err)
	}
	if _, _, err := db.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get on closed: %v", err)
	}
	if _, err := db.Delete([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete on closed: %v", err)
	}
	if _, err := db.Cursor(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Cursor on closed: %v", err)
	}
	if err := db.SaveTo(filepath.Join(t.TempDir(), "x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("SaveTo on closed: %v", err)
	}
}

func TestConcurrentReadersSingleWriter(t *testing.T) {
	db := New()
	for i := 0; i < 1000; i++ {
		_ = db.Put([]byte(fmt.Sprintf("%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("%04d", rng.Intn(1000))
				if _, ok, err := db.Get([]byte(k)); err != nil || !ok {
					t.Errorf("Get(%s) = %v %v", k, ok, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1000; i < 1500; i++ {
			if err := db.Put([]byte(fmt.Sprintf("%04d", i)), []byte("new")); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if db.Len() != 1500 {
		t.Fatalf("Len = %d", db.Len())
	}
	gets, puts, _, _ := db.Stats()
	if gets != 16000 || puts != 1500 {
		t.Fatalf("stats = %d gets %d puts", gets, puts)
	}
}

// TestModelEquivalence drives the store and a map with random operations
// and checks full agreement including ordered iteration.
func TestModelEquivalence(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Val uint16
		Del bool
	}) bool {
		db := New()
		model := map[string][]byte{}
		for _, op := range ops {
			key := []byte{'k', op.Key % 32}
			if op.Del {
				gotOK, _ := db.Delete(key)
				_, wantOK := model[string(key)]
				if gotOK != wantOK {
					return false
				}
				delete(model, string(key))
			} else {
				val := []byte{byte(op.Val), byte(op.Val >> 8)}
				if db.Put(key, val) != nil {
					return false
				}
				model[string(key)] = val
			}
		}
		if db.Len() != len(model) {
			return false
		}
		// Every model record must be present with the right value.
		for k, v := range model {
			got, ok, _ := db.Get([]byte(k))
			if !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		// Ordered scan must visit exactly the sorted model keys.
		var wantKeys []string
		for k := range model {
			wantKeys = append(wantKeys, k)
		}
		sort.Strings(wantKeys)
		c, err := db.Cursor()
		if err != nil {
			return false
		}
		defer c.Close()
		for _, wk := range wantKeys {
			k, _, ok := c.Next()
			if !ok || string(k) != wk {
				return false
			}
		}
		_, _, ok := c.Next()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
