// Package lmdb is a from-scratch embedded ordered key-value store
// standing in for the LMDB backend Caffe uses for offline-preprocessed
// datasets (paper §2.2, Figure 2).
//
// Like the original, it is a B+tree with single-writer / multi-reader
// concurrency and ordered cursors; unlike the original it keeps pages in
// memory and persists via an explicit snapshot file, because what the
// paper measures about LMDB is (a) the offline conversion cost of
// populating it, and (b) reader-side contention on the shared store when
// several GPU workers pull training batches — both of which this package
// reproduces and instruments (lock-wait accounting feeds the Figure 2/5
// contention model).
package lmdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lmdb: database closed")

// MaxKeySize bounds keys, matching the original's default.
const MaxKeySize = 511

// DB is an embedded ordered KV store.
type DB struct {
	mu     sync.RWMutex
	tree   *bptree
	closed bool

	statMu    sync.Mutex
	gets      int64
	puts      int64
	readWait  time.Duration
	writeWait time.Duration
}

// New creates an empty in-memory store.
func New() *DB {
	return &DB{tree: newBPTree()}
}

// Open loads a snapshot written by SaveTo.
func Open(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db := New()
	if err := db.load(bufio.NewReaderSize(f, 64<<10)); err != nil {
		return nil, fmt.Errorf("lmdb: loading %s: %w", path, err)
	}
	return db, nil
}

// Put inserts or replaces a record. Keys are copied; values are copied
// too, so callers may reuse their buffers (the conversion pipeline does).
func (db *DB) Put(key, val []byte) error {
	if len(key) == 0 || len(key) > MaxKeySize {
		return fmt.Errorf("lmdb: key length %d outside 1..%d", len(key), MaxKeySize)
	}
	start := time.Now()
	db.mu.Lock()
	wait := time.Since(start)
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	k := append([]byte(nil), key...)
	v := append([]byte(nil), val...)
	db.tree.put(k, v)
	db.statMu.Lock()
	db.puts++
	db.writeWait += wait
	db.statMu.Unlock()
	return nil
}

// Get returns a copy of the value for key.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	start := time.Now()
	db.mu.RLock()
	wait := time.Since(start)
	defer db.mu.RUnlock()
	if db.closed {
		return nil, false, ErrClosed
	}
	v, ok := db.tree.get(key)
	db.statMu.Lock()
	db.gets++
	db.readWait += wait
	db.statMu.Unlock()
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Delete removes a record, reporting whether it existed.
func (db *DB) Delete(key []byte) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return false, ErrClosed
	}
	return db.tree.delete(key), nil
}

// Len returns the number of records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree.size
}

// Stats returns operation counts and accumulated lock-wait time; the
// read wait is the paper's "competition on the shared DB backend".
func (db *DB) Stats() (gets, puts int64, readWait, writeWait time.Duration) {
	db.statMu.Lock()
	defer db.statMu.Unlock()
	return db.gets, db.puts, db.readWait, db.writeWait
}

// Close marks the store closed.
func (db *DB) Close() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = true
}

// Cursor iterates records in key order. It holds the read lock for its
// lifetime (LMDB's read transactions pin a snapshot similarly); callers
// must Close it promptly.
type Cursor struct {
	db   *DB
	l    *leaf
	i    int
	done bool
}

// Cursor opens an ordered iterator positioned before the first record.
func (db *DB) Cursor() (*Cursor, error) {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return nil, ErrClosed
	}
	return &Cursor{db: db}, nil
}

// Seek positions the cursor at the first key ≥ target and returns it.
func (c *Cursor) Seek(target []byte) (key, val []byte, ok bool) {
	if c.done {
		return nil, nil, false
	}
	l, i := c.db.tree.seek(target)
	if l == nil {
		return nil, nil, false
	}
	c.l, c.i = l, i
	return l.keys[i], l.vals[i], true
}

// Next advances and returns the next record in order. The first call
// returns the first record.
func (c *Cursor) Next() (key, val []byte, ok bool) {
	if c.done {
		return nil, nil, false
	}
	if c.l == nil {
		l, i := c.db.tree.firstEntry()
		if l == nil {
			return nil, nil, false
		}
		c.l, c.i = l, i
		return l.keys[i], l.vals[i], true
	}
	c.i++
	for c.l != nil && c.i >= len(c.l.keys) {
		c.l = c.l.next
		c.i = 0
	}
	if c.l == nil {
		return nil, nil, false
	}
	return c.l.keys[c.i], c.l.vals[c.i], true
}

// Close releases the cursor's read lock. It is safe to call twice.
func (c *Cursor) Close() {
	if !c.done {
		c.done = true
		c.db.mu.RUnlock()
	}
}

// Snapshot format: magic, record count, then length-prefixed key/value
// pairs in key order (a bulk-loadable stream, like an LMDB copy).
var snapshotMagic = [8]byte{'D', 'L', 'B', 'L', 'M', 'D', 'B', '1'}

// SaveTo writes a snapshot of the store.
func (db *DB) SaveTo(path string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.Write(snapshotMagic[:]); err != nil {
		f.Close()
		return err
	}
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(db.tree.size))
	if _, err := w.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	l, i := db.tree.firstEntry()
	var lenBuf [4]byte
	for l != nil {
		for ; i < len(l.keys); i++ {
			binary.BigEndian.PutUint32(lenBuf[:], uint32(len(l.keys[i])))
			if _, err := w.Write(lenBuf[:]); err != nil {
				f.Close()
				return err
			}
			if _, err := w.Write(l.keys[i]); err != nil {
				f.Close()
				return err
			}
			binary.BigEndian.PutUint32(lenBuf[:], uint32(len(l.vals[i])))
			if _, err := w.Write(lenBuf[:]); err != nil {
				f.Close()
				return err
			}
			if _, err := w.Write(l.vals[i]); err != nil {
				f.Close()
				return err
			}
		}
		l = l.next
		i = 0
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// load reads a snapshot. It accepts exactly what SaveTo writes — keys
// strictly ascending, nothing after the last record — and a value costs
// memory only as its bytes arrive, never what a length field declares.
func (db *DB) load(r io.Reader) error {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return err
	}
	if magic != snapshotMagic {
		return errors.New("bad magic")
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	count := binary.BigEndian.Uint64(hdr[:])
	var lenBuf [4]byte
	var prev []byte
	for rec := uint64(0); rec < count; rec++ {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return fmt.Errorf("record %d key length: %w", rec, err)
		}
		klen := binary.BigEndian.Uint32(lenBuf[:])
		if klen == 0 || klen > MaxKeySize {
			return fmt.Errorf("record %d key length %d invalid", rec, klen)
		}
		key := make([]byte, klen)
		if _, err := io.ReadFull(r, key); err != nil {
			return fmt.Errorf("record %d key: %w", rec, err)
		}
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			return fmt.Errorf("record %d key out of order", rec)
		}
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return fmt.Errorf("record %d value length: %w", rec, err)
		}
		vlen := binary.BigEndian.Uint32(lenBuf[:])
		if vlen > 1<<30 {
			return fmt.Errorf("record %d value length %d invalid", rec, vlen)
		}
		val, err := readChunked(r, int(vlen))
		if err != nil {
			return fmt.Errorf("record %d value: %w", rec, err)
		}
		db.tree.put(key, val)
		prev = key
	}
	var extra [1]byte
	if _, err := io.ReadFull(r, extra[:]); err != io.EOF {
		if err == nil {
			return errors.New("data after the last record")
		}
		return err
	}
	return nil
}

// readChunked reads exactly n bytes at most 64 KiB at a time, so the
// buffer grows with the bytes that actually arrive.
func readChunked(r io.Reader, n int) ([]byte, error) {
	const chunk = 64 << 10
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		k := min(n-len(buf), chunk)
		buf = slices.Grow(buf, k)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+k]); err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+k]
	}
	return buf, nil
}
