// The work stealer: when a shard's boards degrade to the CPU fallback
// path, its decode rate collapses while its ingest queue keeps
// receiving (hash placement rings it off for new keys, but queued work
// and in-flight affinity remain). The stealer sweeps degraded shards'
// queues and moves their backlog to the least-loaded healthy shard, so
// accepted items ride out a board failure at fleet speed instead of
// CPU speed.
//
// Zero loss is the contract: an item leaves its source queue only
// after a destination accepted it could exist, and a failed hand-off
// puts the item back. Drain stops the stealer before any ingest queue
// closes, so the stealer can never be holding an item when the only
// queues that could take it disappear.

package fleet

import (
	"fmt"
	"time"
)

// stealBatch bounds how many items one sweep moves per degraded
// shard, so a sweep cannot monopolise the queues' locks.
const stealBatch = 32

// stealLoop sweeps until Drain stops it.
func (f *Fleet) stealLoop() {
	defer close(f.stealDone)
	t := time.NewTicker(f.cfg.StealInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stealStop:
			return
		case <-t.C:
			f.stealOnce()
		}
	}
}

// stealOnce moves queued work off every degraded shard into healthy
// shards with room, returning how many items moved.
func (f *Fleet) stealOnce() int {
	moved := 0
	for _, src := range f.shards {
		if !src.b.Degraded() || src.items.Len() == 0 {
			continue
		}
		for i := 0; i < stealBatch; i++ {
			dst := f.healthyTarget(src)
			if dst == nil {
				break
			}
			item, ok, _ := src.items.TryPop()
			if !ok {
				break
			}
			if pushed, err := dst.items.TryPush(item); err != nil || !pushed {
				// The target filled (or closed) between the check and
				// the push: put the item back where it came from. The
				// source queue cannot be closed here — Drain stops the
				// stealer before closing queues — so the push-back
				// cannot lose the item.
				if perr := src.items.Push(item); perr != nil {
					f.noteErr(fmt.Errorf("fleet: steal push-back on shard %d: %w (item seq %d)",
						src.id, perr, item.Meta.Seq))
				}
				break
			}
			src.stolenOut.Add(1)
			dst.stolenIn.Add(1)
			f.steals.Add(1)
			moved++
		}
	}
	return moved
}

// healthyTarget picks the least-loaded non-degraded shard with queue
// room; nil when every other shard is degraded or full.
func (f *Fleet) healthyTarget(src *Shard) *Shard {
	var best *Shard
	bestLen := 0
	for _, s := range f.shards {
		if s == src || s.b.Degraded() || s.items.Closed() {
			continue
		}
		l := s.items.Len()
		if l >= s.items.Cap() {
			continue
		}
		if best == nil || l < bestLen {
			best, bestLen = s, l
		}
	}
	return best
}
