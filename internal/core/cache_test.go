package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"dlbooster/internal/dataset"
	"dlbooster/internal/fpga"
	"dlbooster/internal/hugepage"
	"dlbooster/internal/metrics"
	"dlbooster/internal/nvme"
)

// encodeSpillRecord frames payload into one record, header then stored
// bytes, as a demotion writes it.
func encodeSpillRecord(payload []byte, compress bool) []byte {
	c := &TieredCache{cfg: CacheConfig{Compress: compress}}
	var hdr [SpillHeaderSize]byte
	stored := c.encode(payload, &hdr)
	return append(hdr[:], stored...)
}

// decodeInPlace decodes rec into dst laid out as a spill hit reads it: a
// raw record's stored bytes land in dst itself, a compressed record's
// stay where they are. A record shorter than the header reads as one
// zero-padded.
func decodeInPlace(r *spillReader, rec, dst []byte) error {
	var hdr [SpillHeaderSize]byte
	stored := rec[copy(hdr[:], rec):]
	if hdr[5]&spillFlagCompressed == 0 && len(stored) == len(dst) {
		copy(dst, stored)
		stored = dst
	}
	return decodeSpillRecord(hdr[:], stored, dst, r)
}

// TestSpillRecordRoundTrip pins the spill record format: every payload
// survives encode/decode byte-exactly (the PSNR-exact guarantee —
// spilling is framing, never re-encoding), compression only engages
// when it shrinks, and a damaged record is rejected, not served.
func TestSpillRecordRoundTrip(t *testing.T) {
	compressible := bytes.Repeat([]byte{7, 7, 7, 9}, 1024)
	rng := rand.New(rand.NewSource(42))
	incompressible := make([]byte, 4096)
	rng.Read(incompressible)

	cases := []struct {
		name     string
		payload  []byte
		compress bool
	}{
		{"raw", compressible, false},
		{"compressed", compressible, true},
		{"incompressible-stays-raw", incompressible, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := encodeSpillRecord(tc.payload, tc.compress)
			if string(rec[:4]) != SpillMagic || rec[4] != SpillFormatVersion {
				t.Fatalf("bad header: % x", rec[:8])
			}
			if tc.compress && bytes.Equal(tc.payload, compressible) && len(rec) >= len(tc.payload)+SpillHeaderSize {
				t.Fatalf("compressible payload did not shrink: %d → %d", len(tc.payload), len(rec))
			}
			got := make([]byte, len(tc.payload))
			if err := decodeInPlace(new(spillReader), rec, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tc.payload) {
				t.Fatal("round trip is not byte-exact")
			}
		})
	}

	t.Run("corruption-detected", func(t *testing.T) {
		rec := encodeSpillRecord(compressible, false)
		rec[SpillHeaderSize+100] ^= 0xff
		if err := decodeInPlace(new(spillReader), rec, make([]byte, len(compressible))); err == nil {
			t.Fatal("flipped payload byte passed the checksum")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		rec := encodeSpillRecord(compressible, false)
		rec[0] = 'X'
		if err := decodeInPlace(new(spillReader), rec, make([]byte, len(compressible))); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if err := decodeInPlace(new(spillReader), []byte("DLSP"), nil); err == nil {
			t.Fatal("truncated record accepted")
		}
	})
	t.Run("wrong-length", func(t *testing.T) {
		rec := encodeSpillRecord(compressible, false)
		if err := decodeInPlace(new(spillReader), rec, make([]byte, len(compressible)+1)); err == nil {
			t.Fatal("length mismatch accepted")
		}
	})
}

// TestCacheSpillReloadParity is the end-to-end byte-parity test: a
// booster whose RAM tier holds only half the epoch must demote the rest
// to the NVMe tier and still replay every image byte-for-byte equal to
// its first-epoch decode, with and without spill compression.
func TestCacheSpillReloadParity(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "raw"
		if compress {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			spec := dataset.MNISTLike(16)
			items := make([]Item, spec.Count)
			for i := range items {
				items[i] = Item{Ref: fpga.DataRef{Inline: mustJPEG(t, spec, i)}, Meta: ItemMeta{Label: spec.Label(i), Seq: i}}
			}
			// 4 batches of 4×784 bytes; the RAM tier holds exactly 2.
			b := newBooster(t, Config{
				BatchSize: 4, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
				Cache: CacheConfig{
					RAMBytes: 2 * 4 * 28 * 28,
					Spill:    nvme.New(nvme.Config{}),
					Compress: compress,
				},
			})
			results := drainAll(t, b)
			if err := b.RunEpoch(CollectorFromItems(items)); err != nil {
				t.Fatal(err)
			}
			st := b.Cache().Stats()
			if st.SpillResident == 0 || st.Demotions == 0 {
				t.Fatalf("nothing spilled: %+v", st)
			}
			if st.Dropped != 0 {
				t.Fatalf("unbounded spill tier evicted %d entries", st.Dropped)
			}
			if !b.CacheComplete() {
				t.Fatal("cache incomplete despite room across the tiers")
			}
			if err := b.ReplayCache(); err != nil {
				t.Fatal(err)
			}
			b.CloseBatches()
			all := <-results
			if len(all) != 8 {
				t.Fatalf("batches = %d, want 4 decoded + 4 replayed", len(all))
			}
			// Pair up epoch-1 and replayed batches by their first seq and
			// compare pixels exactly.
			first := map[int]int{}
			for bi, d := range all[:4] {
				first[d.metas[0].Seq] = bi
			}
			for _, d := range all[4:] {
				bi, ok := first[d.metas[0].Seq]
				if !ok {
					t.Fatalf("replayed batch starting at seq %d has no epoch-1 twin", d.metas[0].Seq)
				}
				o := all[bi]
				if len(d.pixels) != len(o.pixels) {
					t.Fatalf("image count differs: %d vs %d", len(d.pixels), len(o.pixels))
				}
				for s := range d.pixels {
					if !bytes.Equal(d.pixels[s], o.pixels[s]) {
						t.Fatalf("replayed slot %d of batch seq %d is not byte-exact", s, d.metas[0].Seq)
					}
				}
			}
			if hits := b.Cache().Stats(); hits.SpillReadBytes == 0 {
				t.Fatal("replay never read the spill tier")
			}
		})
	}
}

// testCacheBatch crafts a standalone single-image Batch for driving
// TieredCache directly (the pool exists only to mint a real buffer; Add
// copies everything out of it).
type testCacheBatch struct {
	pool *hugepage.Pool
	buf  *hugepage.Buffer
	n    int
}

func newTestCacheBatch(t *testing.T, stride int) *testCacheBatch {
	t.Helper()
	pool, err := hugepage.NewPool(stride, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	buf, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	return &testCacheBatch{pool: pool, buf: buf}
}

func (tb *testCacheBatch) next(fill byte) *Batch {
	tb.n++
	for i := range tb.buf.Bytes() {
		tb.buf.Bytes()[i] = fill
	}
	return &Batch{
		Buf: tb.buf, Images: 1, W: len(tb.buf.Bytes()), H: 1, C: 1,
		Metas: []ItemMeta{{Seq: tb.n}}, Valid: []bool{true},
	}
}

// TestEvictionPolicyDomination is the policy property test: whenever an
// Add evicts entries, every evicted entry's score (cost × hotness) is
// ≤ every survivor's — the cache never drops a hotter-and-costlier
// batch while keeping a colder-and-cheaper one.
func TestEvictionPolicyDomination(t *testing.T) {
	const stride = 256
	tb := newTestCacheBatch(t, stride)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		c, err := NewTieredCache(CacheConfig{
			RAMBytes:   3 * stride,
			Spill:      nvme.New(nvme.Config{}),
			SpillBytes: 3 * (stride + SpillHeaderSize),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			// Bump hits on random live entries first: score must reflect
			// observed hotness, and fetch itself may promote/demote.
			for f := 0; f < rng.Intn(4); f++ {
				live := c.entries[:0:0]
				for _, e := range c.entries {
					if !e.dropped {
						live = append(live, e)
					}
				}
				if len(live) == 0 {
					break
				}
				buf, _, err := c.fetch(live[rng.Intn(len(live))], tb.pool.Get)
				if err != nil {
					t.Fatal(err)
				}
				if buf != nil {
					_ = buf.Recycle()
				}
			}
			before := map[*cacheEntry]bool{}
			for _, e := range c.entries {
				before[e] = e.dropped
			}
			c.Add(tb.next(byte(i)), nil, 1+rng.Float64()*1000)
			for _, d := range c.entries {
				if !d.dropped || before[d] {
					continue
				}
				for _, s := range c.entries {
					if s.dropped {
						continue
					}
					if s.score() < d.score() {
						t.Fatalf("trial %d add %d: evicted seq %d (score %.0f) outranks surviving seq %d (score %.0f)",
							trial, i, d.seq, d.score(), s.seq, s.score())
					}
					if d.cost > s.cost && d.hits > s.hits {
						t.Fatalf("trial %d add %d: evicted seq %d (cost %.0f, hits %d) dominates survivor seq %d (cost %.0f, hits %d)",
							trial, i, d.seq, d.cost, d.hits, s.seq, s.cost, s.hits)
					}
				}
			}
		}
		if st := c.Stats(); st.RAMBytes > 3*stride {
			t.Fatalf("RAM tier over budget: %d", st.RAMBytes)
		}
	}
}

// TestSpillPromotion: a spill-tier entry whose hits outgrow the RAM
// residents' scores is promoted back to RAM, the displaced residents
// demote for free (the promoted entry kept its spill copy), and the
// RAM budget holds throughout.
func TestSpillPromotion(t *testing.T) {
	const stride = 256
	tb := newTestCacheBatch(t, stride)
	c, err := NewTieredCache(CacheConfig{
		RAMBytes: stride, // exactly one resident
		Spill:    nvme.New(nvme.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Add(tb.next(1), nil, 100) // demoted when the next lands
	c.Add(tb.next(2), nil, 200) // resident
	st := c.Stats()
	if st.RAMResident != 1 || st.SpillResident != 1 {
		t.Fatalf("tiers: %+v", st)
	}
	var spilled *cacheEntry
	for _, e := range c.entries {
		if e.spill != "" && e.data == nil {
			spilled = e
		}
	}
	if spilled == nil {
		t.Fatal("no spilled entry")
	}
	// Hammer the spilled entry until its score (100×(1+hits)) passes the
	// resident's 200: promotion is judged before a read counts, so the
	// third read (two prior hits, score 300) promotes it.
	for i := 0; i < 3; i++ {
		buf, tier, err := c.fetch(spilled, tb.pool.Get)
		if err != nil {
			t.Fatal(err)
		}
		if tier != TierSpill || !bytes.Equal(buf.Bytes(), bytes.Repeat([]byte{1}, stride)) {
			t.Fatalf("read %d: tier %v, payload is not the spilled batch's", i, tier)
		}
		_ = buf.Recycle()
	}
	st = c.Stats()
	if st.Promotions == 0 {
		t.Fatalf("hot spilled entry never promoted: %+v", st)
	}
	if !bytes.Equal(spilled.data, bytes.Repeat([]byte{1}, stride)) {
		t.Fatal("promoted entry's RAM payload is not its batch")
	}
	if spilled.spill == "" {
		t.Fatal("promotion discarded the spill copy (demoting it again should be free)")
	}
	if st.RAMBytes > stride {
		t.Fatalf("promotion blew the RAM budget: %d", st.RAMBytes)
	}
}

// TestReplayNoInEpochPromotion: in a half-RAM cache of equal-cost
// entries every replay epoch reads every entry once, so no entry is
// hotter than another and replay must not swap tiers mid-epoch — each
// epoch reads exactly the spilled entries from spill, and promotions
// stay bounded by the entry count.
func TestReplayNoInEpochPromotion(t *testing.T) {
	const stride, entries, epochs = 256, 8, 20
	tb := newTestCacheBatch(t, stride)
	c, err := NewTieredCache(CacheConfig{
		RAMBytes: entries / 2 * stride,
		Spill:    nvme.New(nvme.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		c.Add(tb.next(byte(i)), nil, 100)
	}
	spilled := c.Stats().SpillResident
	if spilled != entries/2 {
		t.Fatalf("spilled %d of %d entries, want half", spilled, entries)
	}
	var spillReads int
	sink := CacheReplaySink{
		GetBuffer: tb.pool.Get,
		Publish: func(buf *hugepage.Buffer, _ int, _ []ItemMeta, _ []bool, tier CacheTier) error {
			if tier == TierSpill {
				spillReads++
			}
			return buf.Recycle()
		},
	}
	var promotedAfterFirst int64
	for e := 0; e < epochs; e++ {
		spillReads = 0
		before := c.Stats().Promotions
		if err := c.Replay(0, 1, sink); err != nil {
			t.Fatal(err)
		}
		if spillReads != spilled {
			t.Fatalf("epoch %d read %d entries from spill, want the %d spilled", e, spillReads, spilled)
		}
		if e > 0 {
			promotedAfterFirst += c.Stats().Promotions - before
		}
	}
	if promotedAfterFirst > entries {
		t.Fatalf("%d promotions after the first replay epoch, want ≤ %d entries", promotedAfterFirst, entries)
	}
}

// TestReplaySteadyStateAllocs pins what a warm replay of a half-RAM,
// half-spill cache allocates: nothing. A spill hit is one device
// request, its stored bytes read straight into the pool buffer — a
// compressed one's into reused scratch, inflated through a reused flate
// reader — so the only per-batch object left is the consumer's.
func TestReplaySteadyStateAllocs(t *testing.T) {
	const stride, entries = 16 << 10, 8
	for _, tc := range []struct {
		name     string
		compress bool
	}{{"raw", false}, {"compressed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestCacheBatch(t, stride)
			dev := nvme.New(nvme.Config{})
			c, err := NewTieredCache(CacheConfig{
				RAMBytes: entries / 2 * stride,
				Spill:    dev,
				Compress: tc.compress,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < entries; i++ {
				c.Add(tb.next(byte(i)), nil, 100)
			}
			st := c.Stats()
			if st.RAMResident != entries/2 || st.SpillResident != entries/2 {
				t.Fatalf("tiers: %+v, want half RAM and half spill", st)
			}
			if compressed := st.SpillBytes < int64(st.SpillResident*stride); compressed != tc.compress {
				t.Fatalf("spill tier holds %d bytes for %d records: compressed %v, want %v", st.SpillBytes, st.SpillResident, compressed, tc.compress)
			}
			sink := CacheReplaySink{
				GetBuffer: tb.pool.Get,
				Publish: func(buf *hugepage.Buffer, _ int, _ []ItemMeta, _ []bool, _ CacheTier) error {
					return buf.Recycle()
				},
			}
			replay := func() {
				if err := c.Replay(0, 1, sink); err != nil {
					t.Fatal(err)
				}
			}
			reads, _, _ := dev.Stats()
			replay() // warm the read scratch
			if after, _, _ := dev.Stats(); after-reads != entries/2 {
				t.Fatalf("replay made %d device reads for %d spill hits, want one each", after-reads, entries/2)
			}
			allocs := testing.AllocsPerRun(20, replay)
			if st := c.Stats(); st.Promotions != 0 || st.SpillReadBytes == 0 {
				t.Fatalf("replay promoted %d entries and read %d spill bytes; want none and some", st.Promotions, st.SpillReadBytes)
			}
			if allocs != 0 {
				t.Errorf("%.1f objects per replay of %d batches, want 0", allocs, entries)
			}
		})
	}
}

// TestCacheErrorCauses pins the wrapped-error contract of docs/API.md:
// every unavailability cause wraps ErrCacheUnavailable and is
// distinguishable with errors.Is.
func TestCacheErrorCauses(t *testing.T) {
	t.Run("disabled", func(t *testing.T) {
		b := newBooster(t, Config{BatchSize: 2, OutW: 8, OutH: 8, Channels: 1, PoolBatches: 2})
		err := b.ReplayCache()
		if !errors.Is(err, ErrCacheDisabled) || !errors.Is(err, ErrCacheUnavailable) {
			t.Fatalf("ReplayCache = %v, want ErrCacheDisabled", err)
		}
	})
	t.Run("never-filled", func(t *testing.T) {
		b := newBooster(t, Config{
			BatchSize: 2, OutW: 8, OutH: 8, Channels: 1, PoolBatches: 2,
			Cache: CacheConfig{RAMBytes: 1 << 20},
		})
		err := b.ReplayCache()
		if !errors.Is(err, ErrCacheNeverFilled) || !errors.Is(err, ErrCacheUnavailable) {
			t.Fatalf("ReplayCache = %v, want ErrCacheNeverFilled", err)
		}
	})
	t.Run("over-ram-limit", func(t *testing.T) {
		const stride = 256
		tb := newTestCacheBatch(t, stride)
		c, err := NewTieredCache(CacheConfig{RAMBytes: stride / 2})
		if err != nil {
			t.Fatal(err)
		}
		c.Add(tb.next(1), nil, 100)
		if err := c.Available(); !errors.Is(err, ErrCacheOverRAMLimit) || !errors.Is(err, ErrCacheUnavailable) {
			t.Fatalf("Available = %v, want ErrCacheOverRAMLimit", err)
		}
	})
	t.Run("evicted", func(t *testing.T) {
		const stride = 256
		tb := newTestCacheBatch(t, stride)
		c, err := NewTieredCache(CacheConfig{
			RAMBytes:   stride / 2, // nothing fits in RAM…
			Spill:      nvme.New(nvme.Config{}),
			SpillBytes: 10, // …or on the spill tier
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Add(tb.next(1), nil, 100)
		if err := c.Available(); !errors.Is(err, ErrCacheEvicted) || !errors.Is(err, ErrCacheUnavailable) {
			t.Fatalf("Available = %v, want ErrCacheEvicted", err)
		}
	})
}

// TestCacheHybridRedecode: when the tiers can't hold the whole epoch,
// replay serves what's cached and re-decodes only the evicted slice —
// every item is still delivered exactly once per epoch.
func TestCacheHybridRedecode(t *testing.T) {
	spec := dataset.MNISTLike(16)
	items := make([]Item, spec.Count)
	for i := range items {
		items[i] = Item{Ref: fpga.DataRef{Inline: mustJPEG(t, spec, i)}, Meta: ItemMeta{Label: spec.Label(i), Seq: i}}
	}
	// 4 batches: RAM holds 1, spill holds ~2 records, so at least one
	// batch is evicted and must re-decode on replay.
	b := newBooster(t, Config{
		BatchSize: 4, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
		Cache: CacheConfig{
			RAMBytes:   4 * 28 * 28,
			Spill:      nvme.New(nvme.Config{}),
			SpillBytes: 2 * (4*28*28 + SpillHeaderSize),
		},
	})
	results := drainAll(t, b)
	if err := b.RunEpoch(CollectorFromItems(items)); err != nil {
		t.Fatal(err)
	}
	st := b.Cache().Stats()
	if st.Dropped == 0 {
		t.Fatalf("expected evictions with tiers this small: %+v", st)
	}
	if b.CacheComplete() {
		t.Fatal("complete despite evictions")
	}
	if !b.CacheReplayable() {
		t.Fatal("hybrid cache should still be replayable")
	}
	if err := b.ReplayCache(); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	all := <-results
	// Epoch 2 must deliver each of the 16 items exactly once, whatever
	// mix of cached and re-decoded batches carried them.
	seen := map[int]int{}
	var epoch2Images int
	for _, d := range all {
		for s := 0; s < d.images; s++ {
			seen[d.metas[s].Seq]++
		}
	}
	for seq, n := range seen {
		if n != 2 {
			t.Fatalf("item %d delivered %d times, want 2 (once per epoch)", seq, n)
		}
		epoch2Images++
	}
	if epoch2Images != 16 {
		t.Fatalf("distinct items = %d", epoch2Images)
	}
	if b.Images() != 32 {
		t.Fatalf("Images = %d, want 32", b.Images())
	}
}

// TestCacheHitRateAtTwiceRAM is the acceptance-criterion test: with the
// decoded dataset twice the RAM tier and an NVMe spill tier behind it,
// epochs 2+ must serve at least 80% of items from the cache tiers.
func TestCacheHitRateAtTwiceRAM(t *testing.T) {
	const n, batch = 32, 4
	spec := dataset.MNISTLike(n)
	items := make([]Item, spec.Count)
	for i := range items {
		items[i] = Item{Ref: fpga.DataRef{Inline: mustJPEG(t, spec, i)}, Meta: ItemMeta{Label: spec.Label(i), Seq: i}}
	}
	reg := metrics.NewRegistry()
	epochBytes := int64(n * 28 * 28)
	b := newBooster(t, Config{
		BatchSize: batch, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
		Metrics: reg,
		Cache: CacheConfig{
			RAMBytes: epochBytes / 2, // dataset is 2× the RAM tier
			Spill:    nvme.New(nvme.Config{}),
			Compress: true,
		},
	})
	results := drainAll(t, b)
	if err := b.RunEpoch(CollectorFromItems(items)); err != nil {
		t.Fatal(err)
	}
	const replays = 2
	for e := 0; e < replays; e++ {
		if err := b.ReplayCache(); err != nil {
			t.Fatal(err)
		}
	}
	b.CloseBatches()
	<-results
	c := reg.Snapshot().Counters
	hits := c["cache_ram_hit_images_total"] + c["cache_spill_hit_images_total"]
	total := int64(n * replays)
	if hits < total*8/10 {
		t.Fatalf("cache served %d of %d replayed images (< 80%%): ram=%d spill=%d redecode=%d",
			hits, total, c["cache_ram_hit_images_total"], c["cache_spill_hit_images_total"], c["cache_redecode_images_total"])
	}
	if c["cache_spill_hit_images_total"] == 0 {
		t.Fatal("spill tier never served a hit at 2× RAM")
	}
}
