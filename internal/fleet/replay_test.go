package fleet

import (
	"errors"
	"sync/atomic"
	"testing"

	"dlbooster/internal/core"
	"dlbooster/internal/fpga"
	"dlbooster/internal/hugepage"
	"dlbooster/internal/nvme"
)

// TestFleetSharedCacheConcurrentReplay is the cross-shard race test
// (CI runs it under -race -count=3): shards built over one shared
// tiered cache replay concurrently, each serving its congruence slice,
// and every item of the captured epoch is delivered exactly once per
// epoch with no pool buffer left checked out. In the tight variant the
// spill tier holds exactly the four records epoch 1 spills, and the
// replay's second spill read lands a costlier capture in the cache: its
// rebalances evict every epoch-1 entry while the shards are reading
// them, so entries vanish between a shard's tier check and its read and
// must be re-decoded, not failed.
func TestFleetSharedCacheConcurrentReplay(t *testing.T) {
	const n, batch = 24, 4
	const batchBytes = batch * 28 * 28
	for _, tc := range []struct {
		name       string
		compress   bool
		spillBytes int64
	}{
		{"unbounded", true, 0},
		{"tight", false, 4 * (batchBytes + core.SpillHeaderSize)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := fleetItems(t, n)
			store := &evictingStore{Device: nvme.New(nvme.Config{})}
			// RAM holds 2 of the 6 batches, so the replay mixes RAM reads
			// and concurrent spill reads across the shards.
			shared, err := SharedCacheFor(core.CacheConfig{
				RAMBytes:   2 * batchBytes,
				Spill:      store,
				SpillBytes: tc.spillBytes,
				Compress:   tc.compress,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.spillBytes > 0 {
				store.capture = func() { captureCostlier(t, shared, items, n) }
			}
			f := newFleet(t, Config{
				Shards: 3, QueueCap: 16,
				NewBooster: func(shard int) (*core.Booster, error) {
					cfg := shardConfig()
					cfg.SharedCache = shared
					return core.New(cfg)
				},
			})

			d, wg := consumeShards(t, f)

			// Epoch 1: shard 0 decodes and captures into the shared tiers.
			if err := f.Shards()[0].Booster().RunEpoch(core.CollectorFromItems(items)); err != nil {
				t.Fatal(err)
			}
			st := shared.Stats()
			if st.SpillResident != 4 || st.Evictions != 0 {
				t.Fatalf("epoch 1 should spill 4 batches and evict none: %+v", st)
			}

			// Epochs 2 and 3: all shards replay the shared cache concurrently.
			for e := 0; e < 2; e++ {
				if err := f.ReplayShared(); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range f.Shards() {
				s.Booster().CloseBatches()
			}
			wg.Wait()

			if evicted := shared.Stats().Evictions; (evicted > 0) != (tc.spillBytes > 0) {
				t.Fatalf("%d evictions during the replays", evicted)
			}
			for _, s := range f.Shards() {
				if out := s.Booster().Pool().Outstanding(); out != 0 {
					t.Fatalf("shard %d: %d buffers still checked out", s.ID(), out)
				}
			}
			d.mu.Lock()
			defer d.mu.Unlock()
			shardsServing := map[int]bool{}
			for seq := 0; seq < n; seq++ {
				if c := d.count[seq]; c != 3 {
					t.Fatalf("item %d delivered %d times, want 3 (decode + 2 replays)", seq, c)
				}
				shardsServing[d.shard[seq]] = true
			}
			// Beyond the captured epoch only the tight variant's costlier
			// captures (items n…n+23) may be delivered.
			extra := 0
			if tc.spillBytes > 0 {
				extra = 24
			}
			for seq := range d.count {
				if seq < 0 || seq >= n+extra {
					t.Fatalf("item %d delivered, outside the captured epoch", seq)
				}
			}
			if len(shardsServing) < 2 {
				t.Fatalf("replay used %d shard(s), want the cache shared across several", len(shardsServing))
			}
		})
	}
}

// evictingStore is a spill device that runs capture (when set) once, on
// its second read.
type evictingStore struct {
	*nvme.Device
	reads   atomic.Int64
	capture func()
}

func (s *evictingStore) ReadInto(name string, off int64, dst []byte) error {
	if s.reads.Add(1) == 2 && s.capture != nil {
		s.capture()
	}
	return s.Device.ReadInto(name, off, dst)
}

// captureCostlier adds six batches to the cache that outrank every
// epoch-1 entry, enough to fill both tiers and evict all six of those.
// Their items are numbered from n, so they never count as epoch-1 items.
func captureCostlier(t *testing.T, c *core.TieredCache, items []core.Item, n int) {
	pool, err := hugepage.NewPool(4*28*28, 1)
	if err != nil {
		t.Error(err)
		return
	}
	defer pool.Close()
	buf, err := pool.Get()
	if err != nil {
		t.Error(err)
		return
	}
	for b := 0; b < 6; b++ {
		batch := &core.Batch{Buf: buf, Images: 4, W: 28, H: 28, C: 1, Valid: make([]bool, 4)}
		refs := make([]fpga.DataRef, 4)
		for i := range refs {
			batch.Metas = append(batch.Metas, core.ItemMeta{Seq: n + 4*b + i})
			refs[i] = items[4*b+i].Ref
		}
		c.Add(batch, refs, 1e15)
	}
}

// TestFleetReplayRejectsPrivateCaches: a fleet whose shards hold
// private caches must error out of ReplayShared instead of serving a
// skewed epoch (each shard replaying only a slice of its own cache).
func TestFleetReplayRejectsPrivateCaches(t *testing.T) {
	f := newFleet(t, Config{
		Shards: 2, QueueCap: 8,
		NewBooster: func(shard int) (*core.Booster, error) {
			cfg := shardConfig()
			cfg.Cache = core.CacheConfig{RAMBytes: 1 << 20}
			return core.New(cfg)
		},
	})
	if err := f.ReplayShared(); err == nil {
		t.Fatal("private per-shard caches accepted")
	}
}

// TestFleetReplayWithoutCache: no cache at all is the distinguishable
// ErrCacheDisabled, so callers can fall back to a decode epoch.
func TestFleetReplayWithoutCache(t *testing.T) {
	f := newFleet(t, Config{
		Shards: 2, QueueCap: 8,
		NewBooster: func(shard int) (*core.Booster, error) {
			return core.New(shardConfig())
		},
	})
	if err := f.ReplayShared(); !errors.Is(err, core.ErrCacheDisabled) {
		t.Fatalf("ReplayShared = %v, want ErrCacheDisabled", err)
	}
}
