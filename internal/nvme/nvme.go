// Package nvme simulates the testbed's Intel Optane 900p NVMe disk: a
// block device holding the training corpus, with a manifest that maps
// each object to block extents — the "metadata (blocks description) of
// files" that DLBooster's DataCollector translates into FPGA decode
// commands (Table 1, load_from_disk) — and an optional rate/latency model
// for realistic pacing.
//
// The store is backed by one contiguous in-memory block array, because
// what the pipeline needs from the disk is (a) block-addressed reads, (b)
// a bounded read bandwidth, and (c) a manifest; the paper's disk is never
// a correctness dependency.
package nvme

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dlbooster/internal/faults"
	"dlbooster/internal/fpga"
)

// BlockSize is the device's logical block size.
const BlockSize = 4096

// ErrNotFound reports a read of an object absent from the manifest.
var ErrNotFound = errors.New("nvme: object not found")

// FileInfo is one manifest entry: where an object's bytes live on the
// device.
type FileInfo struct {
	Name       string
	Size       int64
	BlockStart int64 // first block
	Blocks     int64 // contiguous block count
}

// Config sets the timing model. Zero values disable pacing (tests);
// the Optane-class constants live in internal/perf (NVMeRead*/NVMeWrite*).
type Config struct {
	ReadBandwidth float64       // bytes/s; 0 = unpaced
	ReadLatency   time.Duration // per-request; 0 = none
	// WriteBandwidth/WriteLatency pace Put the way the read knobs pace
	// ReadInto — the cost model the tiered ReplayCache's spill writes ride
	// (docs/CACHE.md sizing example). 0 = unpaced.
	WriteBandwidth float64
	WriteLatency   time.Duration
	// Inject hooks a fault injector into the read path (nil = no
	// faults): Fail (and Drop, which for a disk is the same thing)
	// fails the read with ErrInjected, Corrupt flips bytes in the
	// buffer read into (a media error the checksum-less read misses), and
	// Delay models a stalled request. Stuck is ignored — a hung disk is
	// modelled by a large Delay.
	Inject *faults.Injector
}

// Device is a simulated NVMe disk.
type Device struct {
	cfg Config

	mu       sync.Mutex
	blocks   []byte
	manifest map[string]FileInfo
	order    []string // insertion order for deterministic iteration
	free     []extent // deleted block ranges, reusable by Put

	reads     int64
	bytesRead int64
	busy      time.Duration
}

// extent is one contiguous run of free blocks left behind by Delete.
type extent struct {
	start, blocks int64
}

// New creates an empty device.
func New(cfg Config) *Device {
	return &Device{cfg: cfg, manifest: make(map[string]FileInfo)}
}

// Put stores an object, the concatenation of parts (so a header and a
// payload need not be copied together first) — into the first free
// extent that fits (block ranges reclaimed by Delete), else appended at
// the next block boundary — and returns its manifest entry. Writes are
// paced by the WriteBandwidth/WriteLatency model as reads are.
func (d *Device) Put(name string, parts ...[]byte) (FileInfo, error) {
	if name == "" {
		return FileInfo{}, errors.New("nvme: empty object name")
	}
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	d.mu.Lock()
	if _, dup := d.manifest[name]; dup {
		d.mu.Unlock()
		return FileInfo{}, fmt.Errorf("nvme: object %q already stored", name)
	}
	nblocks := int64((size + BlockSize - 1) / BlockSize)
	if nblocks == 0 {
		nblocks = 1 // empty objects still own a block, like a real FS
	}
	start := d.allocBlocks(nblocks)
	dst := d.blocks[start*BlockSize : (start+nblocks)*BlockSize]
	for _, p := range parts {
		dst = dst[copy(dst, p):]
	}
	fi := FileInfo{Name: name, Size: int64(size), BlockStart: start, Blocks: nblocks}
	d.manifest[name] = fi
	d.order = append(d.order, name)
	pause := pace(d.cfg.WriteLatency, d.cfg.WriteBandwidth, int64(size))
	d.busy += pause
	d.mu.Unlock()
	if pause > 0 {
		time.Sleep(pause)
	}
	return fi, nil
}

// allocBlocks returns the start of an nblocks run: first-fit over the
// free extents Delete left behind, else fresh blocks appended at the end
// of the device. Caller holds mu. A reused extent is zeroed up to the
// allocation so stale bytes of the deleted object never pad a shorter
// successor.
func (d *Device) allocBlocks(nblocks int64) int64 {
	for i, e := range d.free {
		if e.blocks < nblocks {
			continue
		}
		start := e.start
		if e.blocks == nblocks {
			d.free = append(d.free[:i], d.free[i+1:]...)
		} else {
			d.free[i] = extent{start: e.start + nblocks, blocks: e.blocks - nblocks}
		}
		zero := d.blocks[start*BlockSize : (start+nblocks)*BlockSize]
		for j := range zero {
			zero[j] = 0
		}
		return start
	}
	start := int64(len(d.blocks) / BlockSize)
	d.blocks = append(d.blocks, make([]byte, nblocks*BlockSize)...)
	return start
}

// Delete removes an object from the manifest and returns its blocks to
// the free list for Put to reuse — how the tiered ReplayCache's spill
// tier reclaims space when a spilled batch is evicted. Deleting an
// unknown object reports ErrNotFound.
func (d *Device) Delete(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	fi, ok := d.manifest[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(d.manifest, name)
	for i, n := range d.order {
		if n == name {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	d.free = append(d.free, extent{start: fi.BlockStart, blocks: fi.Blocks})
	return nil
}

// WriteObject stores an object, the concatenation of parts, discarding
// the manifest entry — the write verb of the core.SpillStore contract
// the tiered ReplayCache spills through (ReadInto and Delete are the
// other two).
func (d *Device) WriteObject(name string, parts ...[]byte) error {
	_, err := d.Put(name, parts...)
	return err
}

// Stat returns the manifest entry for an object.
func (d *Device) Stat(name string) (FileInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fi, ok := d.manifest[name]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return fi, nil
}

// Manifest returns all entries in insertion order — the file list the
// DataCollector walks each epoch.
func (d *Device) Manifest() []FileInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]FileInfo, 0, len(d.order))
	for _, name := range d.order {
		out = append(out, d.manifest[name])
	}
	return out
}

// Len returns the number of stored objects.
func (d *Device) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.manifest)
}

// ReadInto fills dst with len(dst) bytes of an object starting at off,
// so the tiered ReplayCache reads a spill record straight into the
// HugePage slot it publishes from (the paper's load_from_disk, Table 1).
func (d *Device) ReadInto(name string, off int64, dst []byte) error {
	_, err := d.read(name, off, int64(len(dst)), dst)
	return err
}

// ReadAt reads length bytes of an object starting at off.
func (d *Device) ReadAt(name string, off, length int64) ([]byte, error) {
	return d.read(name, off, length, nil)
}

// Read reads a whole object.
func (d *Device) Read(name string) ([]byte, error) {
	fi, err := d.Stat(name)
	if err != nil {
		return nil, err
	}
	return d.ReadAt(name, 0, fi.Size)
}

// read is every read's one body: fault plan, bounds, copy, stats and
// pacing. A nil dst is allocated once the range is known to lie inside
// the object, so a bad length never sizes a buffer.
func (d *Device) read(name string, off, length int64, dst []byte) ([]byte, error) {
	plan := d.cfg.Inject.Next()
	if plan.Delay > 0 {
		time.Sleep(plan.Delay)
	}
	if plan.Fail || plan.Drop {
		return nil, fmt.Errorf("nvme: read %q: %w", name, faults.ErrInjected)
	}
	d.mu.Lock()
	fi, ok := d.manifest[name]
	if !ok {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if off < 0 || length < 0 || off+length > fi.Size {
		d.mu.Unlock()
		return nil, fmt.Errorf("nvme: read [%d,%d) outside %q of %d bytes", off, off+length, name, fi.Size)
	}
	if dst == nil {
		dst = make([]byte, length)
	}
	base := fi.BlockStart * BlockSize
	copy(dst, d.blocks[base+off:base+off+length])
	d.reads++
	d.bytesRead += length
	pause := pace(d.cfg.ReadLatency, d.cfg.ReadBandwidth, length)
	d.busy += pause
	d.mu.Unlock()
	if pause > 0 {
		time.Sleep(pause)
	}
	if plan.Corrupt {
		d.cfg.Inject.CorruptBytes(dst) // a media error lands in the caller's buffer
	}
	return dst, nil
}

// pace returns the simulated device time of one request moving length
// bytes: its latency plus the transfer at bandwidth (0 = unpaced).
func pace(latency time.Duration, bandwidth float64, length int64) time.Duration {
	t := max(latency, 0)
	if bandwidth > 0 {
		t += time.Duration(float64(length) / bandwidth * float64(time.Second))
	}
	return t
}

// Stats returns total reads, bytes read and accumulated device busy time.
func (d *Device) Stats() (reads, bytesRead int64, busy time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.bytesRead, d.busy
}

// Fetch implements fpga.DataSource: the FPGA DataReader's DMA-from-disk
// path. Length 0 means "the whole object from Offset".
func (d *Device) Fetch(ref fpga.DataRef) ([]byte, error) {
	fi, err := d.Stat(ref.Path)
	if err != nil {
		return nil, err
	}
	length := ref.Length
	if length == 0 {
		length = fi.Size - ref.Offset
	}
	return d.ReadAt(ref.Path, ref.Offset, length)
}

// Names returns the stored object names, sorted, for tests and tools.
func (d *Device) Names() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := append([]string(nil), d.order...)
	sort.Strings(names)
	return names
}

var _ fpga.DataSource = (*Device)(nil)
