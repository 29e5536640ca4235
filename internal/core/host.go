// Host decode lanes — the decoder behind a Booster whose decodes run on
// host goroutines instead of FPGA boards. The CPU, nvJPEG and LMDB
// baselines (internal/backends) are such Boosters: each supplies only a
// HostDecode and a lane count, and the epoch loop, failure policy, batch
// plane and telemetry are the ones the boards run under (§4.2: backends
// swapped under an unchanged engine).

package core

import (
	"fmt"
	"sync"
	"time"

	"dlbooster/internal/fpga"
	"dlbooster/internal/hugepage"
	"dlbooster/internal/pix"
	"dlbooster/internal/queue"
)

// HostDecode turns one command's input into the pixels of its batch
// slot: dst is a view of the slot, whose geometry is the batch's. lane
// (0 ≤ lane < the lane count) names the goroutine calling, so per-lane
// state needs no lock; calls on different lanes run concurrently.
type HostDecode func(lane int, ref fpga.DataRef, dst *pix.Image) error

// NewHost builds a Booster whose decodes run on lanes host goroutines,
// each calling decode, instead of on FPGA boards. cfg's FPGA and
// FPGADevices are unused; everything else means what it means for New.
func NewHost(cfg Config, lanes int, decode HostDecode) (*Booster, error) {
	if lanes <= 0 {
		return nil, fmt.Errorf("core: %d host decode lanes", lanes)
	}
	return build(cfg, func(b *Booster, _ fpga.Mirror) error {
		b.dec = newHostLanes(b.pool, b.batchSize, lanes, decode)
		return nil
	})
}

// hostLanes is the decoder interface over host goroutines: a command
// queue feeds the lanes, each resolves its command's DMA window in the
// pool arena as a board does, decodes into it and raises the FINISH on
// one stream. A lane never wedges, so every FINISH arrives.
type hostLanes struct {
	finishes
	cmds   *queue.Queue[fpga.Cmd]
	arena  *hugepage.Arena
	decode HostDecode
	wg     sync.WaitGroup
}

// newHostLanes starts the lanes. The FINISH stream holds one completion
// per slot of the pool, the most that can be in flight, so a lane never
// blocks on it while the reader blocks on the command queue. The command
// queue holds two per lane: a lane finds its next command waiting while
// the reader is between submissions.
func newHostLanes(pool *hugepage.Pool, batchSize, lanes int, decode HostDecode) *hostLanes {
	h := &hostLanes{
		finishes: finishes{queue.New[fpga.Completion](pool.Count() * batchSize)},
		cmds:     queue.New[fpga.Cmd](2 * lanes),
		arena:    pool.Arena(),
		decode:   decode,
	}
	h.wg.Add(lanes)
	for i := range lanes {
		go h.lane(i)
	}
	return h
}

func (h *hostLanes) lane(i int) {
	defer h.wg.Done()
	var dst pix.Image
	for {
		cmd, err := h.cmds.Pop()
		if err != nil {
			return
		}
		n := cmd.OutW * cmd.OutH * cmd.Channels
		w, err := h.arena.Phy2Virt(cmd.DMAAddr+hugepage.PhysAddr(cmd.DMAOff), n)
		if err == nil {
			dst, err = pix.View(cmd.OutW, cmd.OutH, cmd.Channels, w)
		}
		if err == nil {
			err = h.decode(i, cmd.Data, &dst)
		}
		c := fpga.Completion{ID: cmd.ID, Err: err}
		if err == nil {
			c.Bytes = n
		}
		if h.merged.Push(c) != nil {
			return
		}
	}
}

// SubmitCmd queues a command for the next free lane.
func (h *hostLanes) SubmitCmd(cmd fpga.Cmd) error { return h.cmds.Push(cmd) }

// SubmitCmdTimeout queues a command, giving up after t.
func (h *hostLanes) SubmitCmdTimeout(cmd fpga.Cmd, t time.Duration) (bool, error) {
	return h.cmds.PushTimeout(cmd, t)
}

// Cancel never revokes: a queued or running command always finishes.
func (h *hostLanes) Cancel(uint64) bool { return false }

// close lets the lanes finish what is queued, then ends the stream.
func (h *hostLanes) close() {
	h.cmds.Close()
	h.wg.Wait()
	h.merged.Close()
}
