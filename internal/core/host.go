// Host decode lanes — every Booster's decoder on host goroutines, next
// to its FPGA boards. A New Booster's lanes run the loaded mirror for
// offloads, degraded mode and the rescue of failed board commands. A
// NewHost Booster has no boards, so its lanes take every command: the
// CPU, nvJPEG and LMDB baselines (internal/backends) supply only a
// HostDecode and a lane count, and run under the boards' epoch loop,
// failure policy, batch plane and telemetry (§4.2: backends swapped
// under an unchanged engine).

package core

import (
	"fmt"
	"sync"

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

// NewHost builds a Booster with no FPGA boards, whose decodes run on
// lanes host goroutines, each calling decode. cfg's FPGA, FPGADevices and
// Mirror are unused; everything else means what it means for New.
func NewHost(cfg Config, lanes int, decode HostDecode) (*Booster, error) {
	if lanes <= 0 {
		return nil, fmt.Errorf("core: %d host decode lanes", lanes)
	}
	return build(cfg, lanes, decode)
}

// hostLanes is the decoder over host goroutines: a command queue feeds
// the lanes, each resolves its command's DMA window in the pool arena as
// a board does, decodes into it and raises the FINISH on the Booster's
// one stream. A lane never wedges, so every FINISH arrives: the reader
// submits without a shed bound and never revokes.
type hostLanes struct {
	cmds   *queue.Queue[fpga.Cmd]
	fin    *queue.Queue[fpga.Completion]
	arena  *hugepage.Arena
	decode HostDecode
	wg     sync.WaitGroup
}

// newHostLanes starts the lanes. The command queue holds two per lane: a
// lane finds its next command waiting while the reader is between
// submissions.
func newHostLanes(arena *hugepage.Arena, fin finishes, lanes int, decode HostDecode) *hostLanes {
	h := &hostLanes{
		cmds:   queue.New[fpga.Cmd](2 * lanes),
		fin:    fin.merged,
		arena:  arena,
		decode: decode,
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
		if h.fin.Push(c) != nil {
			return
		}
	}
}

// SubmitCmd queues a command for the next free lane.
func (h *hostLanes) SubmitCmd(cmd fpga.Cmd) error { return h.cmds.Push(cmd) }

// close lets the lanes finish what is queued.
func (h *hostLanes) close() {
	h.cmds.Close()
	h.wg.Wait()
}

// mirrorDecode is a New Booster's lane decode: the four units the
// boards run (parse → entropy decode → reconstruct → resize) on one
// decoder per lane, as each board worker owns one.
func (b *Booster) mirrorDecode(m fpga.Mirror, lanes int) HostDecode {
	decs := make([]fpga.Decoder, lanes)
	for i := range decs {
		decs[i] = m.NewDecoder()
	}
	return func(lane int, ref fpga.DataRef, dst *pix.Image) error {
		data, err := ref.Bytes(b.cfg.Source)
		if err == nil {
			var scale int
			if scale, err = fpga.Decode(decs[lane], data, dst); err == nil && scale < 8 {
				b.scaledCPU.Add(1)
			}
		}
		return err
	}
}
