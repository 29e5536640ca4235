// FPGAChannel — the host bridger's binding to its decoder boards
// (§3.4.1, Table 1), split out of booster.go alongside the epoch loop.

package core

import (
	"sync"
	"time"

	"dlbooster/internal/fpga"
	"dlbooster/internal/queue"
)

// FPGAChannel binds the host bridger to its FPGA decoders — the
// FPGAChannel abstraction of §3.4.1, exposing the submit_cmd/drain_out
// API of Table 1. With more than one board, commands round-robin across
// devices and their FINISH signals merge into one completion stream, so
// the FPGAReader is indifferent to how many boards are plugged in.
type FPGAChannel struct {
	finishes
	devs []*fpga.Device
	fwd  sync.WaitGroup

	mu sync.Mutex
	rr int
}

// newFPGAChannel binds devs to fin, the Booster's one FINISH stream.
// One forwarder per board moves its FINISH signals into the stream.
func newFPGAChannel(devs []*fpga.Device, fin finishes) *FPGAChannel {
	c := &FPGAChannel{finishes: fin, devs: devs}
	for _, d := range devs {
		c.fwd.Add(1)
		go func(d *fpga.Device) {
			defer c.fwd.Done()
			for {
				comp, err := d.WaitCompletion()
				if err != nil {
					return
				}
				if err := c.merged.Push(comp); err != nil {
					return
				}
			}
		}(d)
	}
	return c
}

// SubmitCmd submits a decode command to the next board round-robin and
// launches the decoding operation (Table 1: submit_cmd).
func (c *FPGAChannel) SubmitCmd(cmd fpga.Cmd) error {
	c.mu.Lock()
	d := c.devs[c.rr%len(c.devs)]
	c.rr++
	c.mu.Unlock()
	return d.Submit(cmd)
}

// SubmitCmdTimeout submits to the next board round-robin, bounded by t:
// ok is false when the board's FIFO stayed full for the whole window —
// the signature of a wedged board — letting the caller shed the command
// instead of blocking the reader forever.
func (c *FPGAChannel) SubmitCmdTimeout(cmd fpga.Cmd, t time.Duration) (bool, error) {
	c.mu.Lock()
	d := c.devs[c.rr%len(c.devs)]
	c.rr++
	c.mu.Unlock()
	return d.SubmitTimeout(cmd, t)
}

// Cancel revokes a timed-out command on whichever board holds it (a
// command lives on at most one board — a retry is only resubmitted
// after the previous attempt's FINISH was consumed). True means the
// revocation won: no DMA write for the command can land after Cancel
// returns and no FINISH for it will ever surface, so its batch slot may
// be rescued and its buffer recycled. False means the command already
// finished and its FINISH must be drained normally.
func (c *FPGAChannel) Cancel(id uint64) bool {
	for _, d := range c.devs {
		if d.Cancel(id) {
			return true
		}
	}
	return false
}

// close shuts every board down and waits for their forwarders to stop.
func (c *FPGAChannel) close() {
	for _, d := range c.devs {
		d.Close()
	}
	c.fwd.Wait()
}

// finishes is a Booster's one FINISH stream, which its boards and its
// host lanes (host.go) both complete into, and the three calls the
// FPGAReader reads it with. It holds one completion per slot of the
// pool, the most that can be in flight, so neither a lane nor a board
// forwarder blocks on it while the reader blocks on a submit.
type finishes struct {
	merged *queue.Queue[fpga.Completion]
}

// WaitCompletionTimeout waits up to t for the next FINISH signal; ok is
// false on timeout.
func (f finishes) WaitCompletionTimeout(t time.Duration) (fpga.Completion, bool, error) {
	comp, ok, err := f.merged.PopTimeout(t)
	if err != nil {
		return fpga.Completion{}, false, fpga.ErrClosed
	}
	return comp, ok, nil
}

// DrainOut queries the decoders' processing signals asynchronously,
// appending all completions so far to buf, which may be nil (Table 1:
// drain_out).
func (f finishes) DrainOut(buf []fpga.Completion) []fpga.Completion {
	return f.merged.DrainInto(buf)
}

// WaitCompletion blocks for the next FINISH signal from any decoder.
func (f finishes) WaitCompletion() (fpga.Completion, error) {
	comp, err := f.merged.Pop()
	if err != nil {
		return fpga.Completion{}, fpga.ErrClosed
	}
	return comp, nil
}
