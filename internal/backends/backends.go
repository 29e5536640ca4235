// Package backends defines the common data-preprocessing backend
// contract and implements the paper's three baselines next to DLBooster:
// the CPU-based online decoder (burning cores), the LMDB-style offline
// store reader, and the nvJPEG-style GPU decoder. All four produce the
// same host-side batches consumed by the core Dispatcher, which is what
// lets the evaluation swap backends under an unchanged engine — the
// pluggability claim of §3.1/§4.2. The batch side is literally shared:
// each baseline embeds a core.BatchPlane (pool, Full queue, tiered cache,
// replay) exactly as core.Booster does, and adds only its decoder and
// its own RunEpoch.
package backends

import (
	"dlbooster/internal/core"
	"dlbooster/internal/queue"
)

// Backend is a data-preprocessing service: it turns a stream of raw
// items into decoded, batched buffers on a Full queue.
type Backend interface {
	// Name identifies the backend in experiment output.
	Name() string
	// Batches is the queue the Dispatcher drains.
	Batches() *queue.Queue[*core.Batch]
	// RecycleBatch returns a consumed batch's buffer.
	RecycleBatch(*core.Batch) error
	// RunEpoch processes one pass of the collector, blocking until all
	// items are batched. A consumer must drain Batches concurrently.
	RunEpoch(core.DataCollector) error
	// Cache exposes the tiered replay cache for stats and sharing (nil
	// when the backend was built without one).
	Cache() *core.TieredCache
	// CacheComplete reports whether the whole first epoch is resident
	// across the cache tiers (a replay would re-decode nothing).
	CacheComplete() bool
	// CacheReplayable reports whether ReplayCache can serve an epoch at
	// all, re-decoding evicted entries if it must.
	CacheReplayable() bool
	// ReplayCache serves one epoch from the tiered cache (hybrid mode,
	// §3.1); errors wrap core.ErrCacheUnavailable with the cause.
	ReplayCache() error
	// CloseBatches ends the batch stream.
	CloseBatches()
	// Close releases all resources.
	Close()
	// Images returns successfully decoded/loaded image count.
	Images() int64
	// DecodeErrors returns the failed-item count.
	DecodeErrors() int64
}

// DLBooster adapts core.Booster to the Backend interface.
type DLBooster struct {
	*core.Booster
}

// NewDLBooster wraps a configured Booster.
func NewDLBooster(cfg core.Config) (*DLBooster, error) {
	b, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &DLBooster{Booster: b}, nil
}

// Name implements Backend.
func (*DLBooster) Name() string { return "dlbooster" }

var _ Backend = (*DLBooster)(nil)
