// The tiered decoded-tensor ReplayCache: the hybrid first-epoch cache
// of §3.1 grown a storage tier. Epoch-1 batches are captured into a RAM
// tier; when the RAM budget fills, a cost-aware policy demotes the
// cheapest-to-recompute entries to an NVMe spill tier (internal/nvme,
// paced by its bandwidth model), and when both tiers are exhausted the
// cheapest entry overall is evicted outright — replay then re-decodes
// just those items instead of abandoning the cache wholesale. The full
// handbook (tier diagram, policy, spill record format, sizing model) is
// docs/CACHE.md, pinned by cache_doc_test.go.

package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"dlbooster/internal/fpga"
	"dlbooster/internal/hugepage"
	"dlbooster/internal/metrics"
)

// ErrCacheUnavailable is returned by ReplayCache when no epoch can be
// served from the cache. It is always wrapped with the cause — match it
// with errors.Is, read the cause from the message (or match one of the
// Err* causes below directly); the contract is documented in
// docs/API.md and docs/CACHE.md.
var ErrCacheUnavailable = errors.New("core: epoch cache unavailable")

// The four causes ReplayCache distinguishes. Each wraps
// ErrCacheUnavailable, so existing errors.Is(err, ErrCacheUnavailable)
// call sites keep working.
var (
	// ErrCacheDisabled: the Booster was built with no cache budget
	// (Config.Cache.RAMBytes is zero).
	ErrCacheDisabled = fmt.Errorf("%w: caching disabled (no RAM budget configured)", ErrCacheUnavailable)
	// ErrCacheNeverFilled: caching is on but no first epoch has been
	// captured yet — run RunEpoch once before replaying.
	ErrCacheNeverFilled = fmt.Errorf("%w: first epoch not captured yet", ErrCacheUnavailable)
	// ErrCacheOverRAMLimit: the decoded tensors outgrew the RAM tier and
	// no spill tier was configured, so every entry was evicted — the
	// ILSVRC case of the paper's Figure 6 discussion.
	ErrCacheOverRAMLimit = fmt.Errorf("%w: decoded tensors outgrew the RAM tier and no spill tier is configured", ErrCacheUnavailable)
	// ErrCacheEvicted: both tiers filled and every cached batch was
	// evicted — the dataset outgrew RAM and NVMe budgets combined.
	ErrCacheEvicted = fmt.Errorf("%w: every cached batch was evicted (RAM and spill tiers exhausted)", ErrCacheUnavailable)
)

// SpillStore is the storage tier the cache spills decoded batches to.
// *nvme.Device implements it (WriteObject/ReadInto/Delete), with writes
// and reads paced by its bandwidth model; any durable object store with
// the same three verbs works.
type SpillStore interface {
	// WriteObject stores one spill record, the concatenation of parts,
	// under a cache-unique name.
	WriteObject(name string, parts ...[]byte) error
	// ReadInto fills dst with a stored record's bytes from offset off,
	// so a spill hit lands in the pool buffer it is published from, as
	// the paper's load_from_disk lands bytes in HugePage memory.
	ReadInto(name string, off int64, dst []byte) error
	// Delete removes a record, reclaiming its space.
	Delete(name string) error
}

// CacheConfig sizes the tiered replay cache.
type CacheConfig struct {
	// RAMBytes is the RAM-tier budget for decoded pixel payloads; 0
	// disables caching entirely.
	RAMBytes int64
	// Spill is the storage tier (nil = RAM-only, today's behaviour).
	Spill SpillStore
	// SpillBytes bounds the bytes of spill records on the store; 0 with
	// a Spill set means unlimited.
	SpillBytes int64
	// Compress flate-compresses spill records (RAM-tier entries are
	// never compressed — the replay hot path stays a straight copy).
	Compress bool
	// SpillPrefix namespaces this cache's object names on a shared
	// store, so several caches (or shards) can spill to one device.
	SpillPrefix string
}

// CacheTier identifies which tier served (or holds) a cached batch.
type CacheTier int

// The tiers a replayed batch can come from. TierNone marks an evicted
// entry, which replay re-decodes from its retained DataRefs.
const (
	TierNone CacheTier = iota
	TierRAM
	TierSpill
)

// String names the tier for logs and reports.
func (t CacheTier) String() string {
	switch t {
	case TierRAM:
		return "ram"
	case TierSpill:
		return "spill"
	}
	return "none"
}

// Spill record format (docs/CACHE.md §Spill record format). One record
// per batch: a fixed header followed by the pixel payload, optionally
// flate-compressed. Metas, Valid and DataRefs never spill — they stay
// in RAM so the aliasing contract and re-decode both survive eviction
// of the pixels.
const (
	// SpillMagic opens every spill record.
	SpillMagic = "DLSP"
	// SpillFormatVersion is the record layout version; readers reject
	// records from other versions.
	SpillFormatVersion = 1
	// SpillHeaderSize is the fixed header length in bytes:
	// magic(4) version(1) flags(1) reserved(2) crc32(4) rawlen(8).
	SpillHeaderSize = 20
	// spillFlagCompressed marks a flate-compressed payload.
	spillFlagCompressed = 1
)

// cacheEntry is one captured batch. The pixel payload lives in exactly
// one tier (data in RAM, or spillName on the store, or neither =
// evicted); metas, valid and refs are immutable once written — replayed
// batches alias metas and valid directly (the PR 5 contract), and refs
// re-decode the batch after eviction.
type cacheEntry struct {
	seq      int
	images   int
	bytes    int64 // uncompressed pixel payload length
	metas    []ItemMeta
	valid    []bool
	refs     []fpga.DataRef
	cost     float64 // decode nanos — what eviction would cost to redo
	hits     int64   // replay serves, all tiers
	data     []byte  // RAM tier (nil when demoted/evicted)
	spill    string  // spill object name ("" when none)
	spillLen int64   // stored record length (accounting)
	// spillHdr is the spill record's header, kept in RAM so a spill hit
	// is one device request for the stored bytes, checked against it.
	spillHdr [SpillHeaderSize]byte
	dropped  bool // evicted from both tiers
}

// score is the keep-priority: decode cost scaled by observed hotness.
// Monotone in both, so a hotter-and-costlier entry always outranks a
// colder-and-cheaper one — the invariant the eviction property test
// asserts.
func (e *cacheEntry) score() float64 { return e.cost * float64(1+e.hits) }

// TieredCache is the two-tier decoded-tensor epoch cache: a RAM tier in
// front of an optional NVMe spill tier, with cost-aware admission,
// demotion and eviction. It is safe for concurrent use — several shards
// may capture into and replay from one shared cache (see
// fleet.ReplayShared); Add and promotion serialise on the cache lock
// (spill writes included), replay copies of RAM entries and spill reads
// run outside it.
type TieredCache struct {
	cfg CacheConfig

	mu         sync.Mutex
	entries    []*cacheEntry
	ramBytes   int64
	spillBytes int64
	nextSeq    int
	captured   bool
	// overRAM latches when a RAM-only cache overflows: with no spill
	// tier, a partial epoch cache is dropped wholesale (the legacy
	// ILSVRC behaviour — replaying a subset would serve skewed data,
	// and there is no tier to hold the rest).
	overRAM bool
	// Spill-write scratch, used under mu with Compress: one flate
	// writer and its output, reset per demotion.
	zbuf bytes.Buffer
	zw   *flate.Writer
	// readers is a leaky free list of compressed spill-read scratch, so
	// a warm replay allocates none; it holds more than the shards that
	// ever replay one cache at once.
	readers chan *spillReader

	demotions       metrics.Counter
	promotions      metrics.Counter
	evictions       metrics.Counter
	spillWrites     metrics.Counter
	spillWriteBytes metrics.Counter
	spillReadBytes  metrics.Counter
}

// NewTieredCache validates the budgets and returns an empty cache.
func NewTieredCache(cfg CacheConfig) (*TieredCache, error) {
	if cfg.RAMBytes <= 0 {
		return nil, errors.New("core: cache RAM budget must be positive")
	}
	if cfg.SpillBytes < 0 {
		return nil, fmt.Errorf("core: negative spill budget %d", cfg.SpillBytes)
	}
	if cfg.Spill == nil && cfg.SpillBytes > 0 {
		return nil, errors.New("core: spill budget set but no spill store")
	}
	if cfg.Spill != nil && cfg.SpillBytes == 0 {
		cfg.SpillBytes = math.MaxInt64
	}
	return &TieredCache{cfg: cfg, readers: make(chan *spillReader, 16)}, nil
}

// Add captures one published batch: pixels, metas, valid and refs are
// copied (the batch buffer is about to be recycled), the entry is
// admitted to the RAM tier, and the tiers are rebalanced under the
// cost-aware policy — cheapest-coldest entries demote to spill first
// and evict first when spill is full too. costNanos is the decode cost
// the entry would take to recompute (≤0 falls back to a size proxy).
func (c *TieredCache) Add(batch *Batch, refs []fpga.DataRef, costNanos float64) {
	if costNanos <= 0 {
		costNanos = float64(batch.Images * batch.ImageBytes())
	}
	e := &cacheEntry{
		images: batch.Images,
		bytes:  int64(len(batch.Bytes())),
		metas:  append([]ItemMeta(nil), batch.Metas...),
		valid:  append([]bool(nil), batch.Valid...),
		refs:   append([]fpga.DataRef(nil), refs...),
		cost:   costNanos,
		data:   append([]byte(nil), batch.Bytes()...),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.captured = true
	if c.overRAM {
		return // RAM-only cache already overflowed: nothing is kept
	}
	e.seq = c.nextSeq
	c.nextSeq++
	c.entries = append(c.entries, e)
	c.ramBytes += e.bytes
	c.rebalance()
}

// rebalance restores the tier budgets after an admission (or a
// promotion), demoting and evicting in ascending score order. Caller
// holds mu.
func (c *TieredCache) rebalance() {
	if c.cfg.Spill == nil && c.ramBytes > c.cfg.RAMBytes {
		// No spill tier to demote into: drop the whole cache, keeping
		// the legacy all-or-nothing RAM semantics (a partial epoch would
		// replay skewed data).
		for _, e := range c.entries {
			if !e.dropped {
				c.drop(e)
			}
		}
		c.overRAM = true
		return
	}
	for c.ramBytes > c.cfg.RAMBytes {
		v := c.minScore(func(e *cacheEntry) bool { return e.data != nil })
		if v == nil {
			return // nothing resident (single batch larger than budget was just evicted)
		}
		if v.spill != "" {
			// A promoted entry keeps its spill copy, so demoting it back
			// is free: just release the RAM residency.
			v.data = nil
			c.ramBytes -= v.bytes
			c.demotions.Add(1)
			continue
		}
		stored := c.encode(v.data, &v.spillHdr)
		recLen := int64(SpillHeaderSize + len(stored))
		// Make room on the spill tier by evicting strictly cheaper
		// spilled entries; if the cheapest survivor still outranks v,
		// v itself is the right thing to lose.
		for c.spillBytes+recLen > c.cfg.SpillBytes {
			w := c.minScore(func(e *cacheEntry) bool { return e.data == nil && e.spill != "" })
			if w == nil || w.score() >= v.score() {
				break
			}
			c.drop(w)
		}
		if c.spillBytes+recLen > c.cfg.SpillBytes {
			c.drop(v)
			continue
		}
		name := fmt.Sprintf("%sspill-%06d", c.cfg.SpillPrefix, v.seq)
		if err := c.cfg.Spill.WriteObject(name, v.spillHdr[:], stored); err != nil {
			// A failed spill write cannot hold the entry anywhere.
			c.drop(v)
			continue
		}
		v.spill, v.spillLen = name, recLen
		v.data = nil
		c.ramBytes -= v.bytes
		c.spillBytes += recLen
		c.demotions.Add(1)
		c.spillWrites.Add(1)
		c.spillWriteBytes.Add(recLen)
	}
}

// minScore returns the lowest-score entry matching pred (ties break to
// the older entry), nil when none match. Caller holds mu.
func (c *TieredCache) minScore(pred func(*cacheEntry) bool) *cacheEntry {
	var best *cacheEntry
	for _, e := range c.entries {
		if e.dropped || !pred(e) {
			continue
		}
		if best == nil || e.score() < best.score() {
			best = e
		}
	}
	return best
}

// drop evicts an entry from both tiers. Its metas and refs stay, so
// replay can re-decode the batch. Caller holds mu.
func (c *TieredCache) drop(e *cacheEntry) {
	if e.data != nil {
		e.data = nil
		c.ramBytes -= e.bytes
	}
	if e.spill != "" {
		_ = c.cfg.Spill.Delete(e.spill) // best effort: budget accounting must proceed regardless
		c.spillBytes -= e.spillLen
		e.spill, e.spillLen = "", 0
	}
	e.dropped = true
	c.evictions.Add(1)
}

// fetch fills a buffer from getBuffer with one entry's payload and
// returns it with the tier that served it; on an error no buffer is
// held. A nil buffer with a nil error means the entry was evicted —
// perhaps by a concurrent rebalance after the tier check — and must be
// re-decoded. A spill hit is one read of the record's stored bytes,
// straight into the buffer (compressed: into reused scratch, inflated
// into it), checked against the header the entry kept; it may promote
// the entry back to RAM when its score, before this read, beats the
// RAM residents'.
func (c *TieredCache) fetch(e *cacheEntry, getBuffer func() (*hugepage.Buffer, error)) (*hugepage.Buffer, CacheTier, error) {
	c.mu.Lock()
	data, name, hdr, recLen := e.data, e.spill, e.spillHdr, e.spillLen
	if data != nil {
		e.hits++
	}
	c.mu.Unlock()
	if data == nil && name == "" {
		return nil, TierNone, nil
	}
	buf, err := getBuffer()
	if err != nil {
		return nil, TierNone, err
	}
	dst := buf.Bytes()[:e.bytes]
	if data != nil {
		copy(dst, data) // immutable payload: safe to read after unlock
		return buf, TierRAM, nil
	}
	stored := dst
	var r *spillReader
	if hdr[5]&spillFlagCompressed != 0 {
		select {
		case r = <-c.readers:
		default:
			r = new(spillReader)
		}
		defer func() {
			select {
			case c.readers <- r:
			default:
			}
		}()
		n := int(recLen) - SpillHeaderSize
		if cap(r.stored) < n {
			r.stored = make([]byte, n)
		}
		stored = r.stored[:n]
	}
	if err = c.cfg.Spill.ReadInto(name, SpillHeaderSize, stored); err == nil {
		err = decodeSpillRecord(hdr[:], stored, dst, r)
	}
	if err != nil {
		_ = buf.Recycle() // may fail post-Close; the checkout is cleared regardless
		c.mu.Lock()
		dropped := e.dropped
		c.mu.Unlock()
		if dropped {
			return nil, TierNone, nil // evicted meanwhile: its record is gone, not damaged
		}
		return nil, TierNone, fmt.Errorf("core: spill record %s: %w", name, err)
	}
	c.spillReadBytes.Add(recLen)
	c.mu.Lock()
	// Judge promotion before counting this read: a replay epoch reads
	// every entry once, so counting it first would let an entry read
	// early outscore equally hot residents not yet read, which would then
	// demote and be read back from spill later in the same epoch.
	c.maybePromote(e, dst)
	e.hits++
	c.mu.Unlock()
	return buf, TierSpill, nil
}

// maybePromote moves a spill-tier entry whose score beats the
// cheapest RAM residents back into RAM, demoting those residents — the
// cross-epoch adaptivity that migrates hot, expensive batches up. The
// promoted entry keeps its spill copy, so a later demotion is free.
// Caller holds mu and passes the just-read payload, which stays the
// caller's: only a promotion copies it, into the entry's new RAM payload.
func (c *TieredCache) maybePromote(e *cacheEntry, payload []byte) {
	if e.data != nil || e.dropped || e.bytes > c.cfg.RAMBytes {
		return
	}
	// Only promote when every RAM byte it displaces scores lower.
	displaced := int64(0)
	for _, r := range c.entries {
		if r.data == nil || r.dropped {
			continue
		}
		if r.score() >= e.score() {
			continue
		}
		displaced += r.bytes
	}
	if c.ramBytes-displaced+e.bytes > c.cfg.RAMBytes {
		return
	}
	e.data = append([]byte(nil), payload...)
	c.ramBytes += e.bytes
	c.promotions.Add(1)
	c.rebalance()
}

// CacheReplaySink is what TieredCache.Replay needs from the consuming
// pipeline: buffers, a publisher, and a re-decode path for evicted
// entries. Booster and the backends each wire their own.
type CacheReplaySink struct {
	// GetBuffer checks one batch buffer out of the pipeline's pool. A
	// buffer the cache then fails to fill goes back via its Recycle.
	GetBuffer func() (*hugepage.Buffer, error)
	// Publish ships one replayed batch. The metas and valid slices are
	// the cache's immutable copies — the batch must alias, not mutate,
	// them (the PR 5 contract).
	Publish func(buf *hugepage.Buffer, images int, metas []ItemMeta, valid []bool, tier CacheTier) error
	// Redecode runs evicted items back through the pipeline's decode
	// path, in epoch order. Nil makes an evicted entry a replay error.
	Redecode func(items []Item) error
}

// Replay serves one epoch pass through the sink: cached entries from
// their tiers (RAM copies, paced spill reads straight into the pool
// buffer), evicted entries
// re-decoded from their retained DataRefs, all in capture order. With
// shards > 1 only entries where index%shards == shard are served — the
// cross-shard split fleet.ReplayShared fans out, each shard reading the
// shared tiers concurrently.
func (c *TieredCache) Replay(shard, shards int, sink CacheReplaySink) error {
	if shards <= 0 || shard < 0 || shard >= shards {
		return fmt.Errorf("core: replay shard %d of %d", shard, shards)
	}
	if err := c.Available(); err != nil {
		return err
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	var redo []Item
	flush := func() error {
		if len(redo) == 0 {
			return nil
		}
		items := redo
		redo = nil
		if sink.Redecode == nil {
			return fmt.Errorf("core: %d evicted item(s) need re-decoding but the sink has no redecode path", len(items))
		}
		return sink.Redecode(items)
	}
	for i := shard; i < n; i += shards {
		c.mu.Lock()
		e := c.entries[i] // entries only grow: index i stays this entry
		evicted := e.dropped
		c.mu.Unlock()
		// Evicted items re-decode before a cached batch takes a buffer,
		// so a small pool is never short of one for the re-decode.
		if !evicted {
			if err := flush(); err != nil {
				return err
			}
		}
		buf, tier, err := c.fetch(e, sink.GetBuffer)
		if err != nil {
			return err
		}
		if buf == nil {
			if len(e.refs) != e.images {
				return fmt.Errorf("core: evicted batch %d is not re-decodable (no data refs captured)", e.seq)
			}
			for j := 0; j < e.images; j++ {
				redo = append(redo, Item{Ref: e.refs[j], Meta: e.metas[j]})
			}
			continue
		}
		if err := sink.Publish(buf, e.images, e.metas, e.valid, tier); err != nil {
			return err
		}
	}
	return flush()
}

// Available reports whether Replay can serve an epoch, wrapping
// ErrCacheUnavailable with the cause when it cannot: never filled, over
// the RAM limit (no spill tier), or fully evicted.
func (c *TieredCache) Available() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.captured || len(c.entries) == 0 {
		return ErrCacheNeverFilled
	}
	for _, e := range c.entries {
		if !e.dropped {
			return nil
		}
	}
	if c.cfg.Spill == nil {
		return ErrCacheOverRAMLimit
	}
	return ErrCacheEvicted
}

// Complete reports whether the whole captured epoch is still resident
// across the tiers — no entry has been evicted, so a replay touches the
// decode path zero times.
func (c *TieredCache) Complete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.captured || len(c.entries) == 0 {
		return false
	}
	for _, e := range c.entries {
		if e.dropped {
			return false
		}
	}
	return true
}

// CacheStats is a point-in-time view of the tiers, for gauges and
// reports.
type CacheStats struct {
	// Entries is every captured batch, including evicted ones.
	Entries int
	// RAMResident / SpillResident / Dropped partition Entries by where
	// the pixel payload lives now.
	RAMResident, SpillResident, Dropped int
	// RAMBytes / SpillBytes are the tiers' current occupancy (spill in
	// stored-record bytes, so compression shows up here).
	RAMBytes, SpillBytes int64
	// Demotions, Promotions, Evictions, SpillWrites, SpillWriteBytes,
	// SpillReadBytes are the lifetime policy and IO counters.
	Demotions, Promotions, Evictions             int64
	SpillWrites, SpillWriteBytes, SpillReadBytes int64
}

// Stats snapshots the tier occupancy and policy counters.
func (c *TieredCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Entries:         len(c.entries),
		RAMBytes:        c.ramBytes,
		SpillBytes:      c.spillBytes,
		Demotions:       c.demotions.Value(),
		Promotions:      c.promotions.Value(),
		Evictions:       c.evictions.Value(),
		SpillWrites:     c.spillWrites.Value(),
		SpillWriteBytes: c.spillWriteBytes.Value(),
		SpillReadBytes:  c.spillReadBytes.Value(),
	}
	for _, e := range c.entries {
		switch {
		case e.data != nil:
			st.RAMResident++
		case e.spill != "":
			st.SpillResident++
		default:
			st.Dropped++
		}
	}
	return st
}

// encode frames a demoting payload: it fills hdr (magic, version,
// flags, crc32 of the stored bytes, raw length) and returns the stored
// bytes — the payload itself, or with Compress its deflate at BestSpeed
// when that shrinks it: the "light compression" knob, cheap enough to
// sit on the spill write path, lossless so the byte-parity tests hold.
// The stored bytes stay valid until the next encode. Caller holds mu.
func (c *TieredCache) encode(payload []byte, hdr *[SpillHeaderSize]byte) []byte {
	stored, flags := payload, byte(0)
	if c.cfg.Compress {
		c.zbuf.Reset()
		if c.zw == nil {
			c.zw, _ = flate.NewWriter(&c.zbuf, flate.BestSpeed) // fails only on an invalid level
		} else {
			c.zw.Reset(&c.zbuf)
		}
		if _, err := c.zw.Write(payload); err == nil && c.zw.Close() == nil && c.zbuf.Len() < len(payload) {
			stored, flags = c.zbuf.Bytes(), spillFlagCompressed
		}
	}
	copy(hdr[:], SpillMagic)
	hdr[4], hdr[5] = SpillFormatVersion, flags
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(stored))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(payload)))
	return stored
}

// spillReader is the scratch of one compressed spill read: the record's
// stored bytes and the flate reader that inflates them, reset per record.
type spillReader struct {
	stored []byte
	src    bytes.Reader
	fr     io.ReadCloser
}

// decodeSpillRecord validates a record — header hdr, stored bytes
// stored: magic, version, crc32, raw length — and leaves the raw
// payload in dst, which must be the length the header declares. A raw
// record's stored bytes may be dst itself (read straight into its
// slot); a compressed record inflates into dst through r's reused flate
// reader (r is used only then).
func decodeSpillRecord(hdr, stored, dst []byte, r *spillReader) error {
	if string(hdr[:4]) != SpillMagic {
		return errors.New("bad magic")
	}
	if hdr[4] != SpillFormatVersion {
		return fmt.Errorf("format version %d, want %d", hdr[4], SpillFormatVersion)
	}
	if got, want := crc32.ChecksumIEEE(stored), binary.LittleEndian.Uint32(hdr[8:]); got != want {
		return fmt.Errorf("checksum mismatch: %08x != %08x (media corruption)", got, want)
	}
	if rawLen := binary.LittleEndian.Uint64(hdr[12:]); rawLen != uint64(len(dst)) {
		return fmt.Errorf("payload length %d, want %d", rawLen, len(dst))
	}
	if hdr[5]&spillFlagCompressed == 0 {
		if len(stored) != len(dst) {
			return fmt.Errorf("stored %d bytes, header says %d", len(stored), len(dst))
		}
		copy(dst, stored) // no-op when stored is dst
		return nil
	}
	r.src.Reset(stored)
	if r.fr == nil {
		r.fr = flate.NewReader(&r.src)
	} else if err := r.fr.(flate.Resetter).Reset(&r.src, nil); err != nil {
		return fmt.Errorf("inflate: %w", err)
	}
	if _, err := io.ReadFull(r.fr, dst); err != nil {
		return fmt.Errorf("inflate: %w", err)
	}
	return nil
}
