// Package fpga simulates DLBooster's FPGA-based decoder (paper §3.3,
// Figure 4) as a functionally real device: commands from a FIFO queue
// pass the parser, the Huffman decoding unit, the iDCT & RGB unit and the
// resizer, and finished images are written by "DMA" into HugePage
// physical addresses before a FINISH completion is raised.
//
// Every unit performs the real computation (via internal/jpeg and
// internal/imageproc) on real bytes, and its service time is clocked per
// unit, so the load-balance and error behaviour of the hardware design
// are exercised — only the clock is the host's, not an Arria 10's. The
// paper's unit widths (4-way Huffman, 1 iDCT, 2-way resize) are a fabric
// budget: they are checked against the CLBs and set how many host workers
// the board runs, each carrying one command through every unit, so no
// host core waits behind a unit that another command is using. The
// decoding logic itself is a pluggable Mirror, mirroring the paper's
// downloadable decoder images for different workloads.
//
// Like the hardware's fixed FIFOs and on-chip buffers, a warm board
// allocates nothing per command: each worker owns one Decoder, whose
// stage buffers every command it carries overwrites (DESIGN.md §5.10).
package fpga

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dlbooster/internal/faults"
	"dlbooster/internal/hugepage"
	"dlbooster/internal/imageproc"
	"dlbooster/internal/metrics"
	"dlbooster/internal/pix"
	"dlbooster/internal/queue"
)

// Errors reported on completions or submissions.
var (
	ErrClosed      = errors.New("fpga: device closed")
	ErrNoData      = errors.New("fpga: command has no data source")
	ErrBadTarget   = errors.New("fpga: bad DMA target")
	ErrRevoked     = errors.New("fpga: command revoked by host")
	errNilMirror   = errors.New("fpga: nil mirror")
	errBadGeometry = errors.New("fpga: bad output geometry")
)

// DataRef tells the DataReader where a command's raw bytes live: inline
// in host memory (the NIC path — the NIC driver has already placed the
// packet payload), or at an offset of a named object (the NVMe path).
type DataRef struct {
	Inline []byte
	Path   string
	Offset int64
	Length int64
}

// DataSource resolves non-inline DataRefs; the NVMe substrate implements
// it for the disk path.
type DataSource interface {
	Fetch(ref DataRef) ([]byte, error)
}

// Bytes returns the raw bytes r names: inline, or fetched from src.
func (r DataRef) Bytes(src DataSource) ([]byte, error) {
	if r.Inline != nil {
		return r.Inline, nil
	}
	if src == nil {
		return nil, ErrNoData
	}
	return src.Fetch(r)
}

// Cmd is one decode command, the unit travelling through the FPGA FIFO
// queue of Figure 4. The host bridger encodes the DMA target as a
// physical address plus offset exactly as Algorithm 1 does
// (mem_holder.phyaddr() + offset).
type Cmd struct {
	ID       uint64
	Data     DataRef
	DMAAddr  hugepage.PhysAddr // base physical address of the target buffer
	DMAOff   int               // offset within the buffer
	OutW     int               // resizer output width
	OutH     int               // resizer output height
	Channels int               // 1 or 3
}

// Completion is the FINISH signal for one command.
type Completion struct {
	ID    uint64
	Err   error
	Bytes int // bytes DMA-written on success
}

// Mirror is a pluggable decoder image. Its stages are the units of
// Figure 4: Decoder.Parse runs in the parser, Decoder.EntropyDecode in
// the Huffman unit, Decoder.Reconstruct in the iDCT & RGB unit. The
// resizer is format-independent. NewDecoder loads the image onto one
// worker: a board worker or a host lane.
type Mirror interface {
	Name() string
	NewDecoder() Decoder
}

// Decoder is a mirror loaded onto one worker. It carries one command at
// a time through the parser, the Huffman unit and the iDCT & RGB unit,
// in that order, and owns the buffers of each stage, which the next
// command overwrites; so a warm worker allocates nothing per command.
// A Decoder is not safe for concurrent use.
type Decoder interface {
	Parse(data []byte) error
	EntropyDecode() error
	// Reconstruct renders the parsed image and reports the iDCT scale: 8
	// for full resolution, N = 1…7 when the image sized its output to
	// the outW×outH resize target (libjpeg's N/8 scaling inside the iDCT
	// unit) and left the resizer the residual ratio. The image belongs
	// to the decoder until its next Parse.
	Reconstruct(outW, outH int) (img *pix.Image, scale int, err error)
}

// Decode runs parse → entropy decode → reconstruct → resize over data on
// dec into dst, which fixes the output geometry, and reports the iDCT
// scale: the four units of Figure 4 back to back, without their clocks.
func Decode(dec Decoder, data []byte, dst *pix.Image) (scale int, err error) {
	if err := dec.Parse(data); err != nil {
		return 0, err
	}
	if err := dec.EntropyDecode(); err != nil {
		return 0, err
	}
	img, scale, err := dec.Reconstruct(dst.W, dst.H)
	if err != nil {
		return 0, err
	}
	return scale, resizeInto(img, dst)
}

// samples holds, per mirror name, the first command that the board of
// that mirror closed last decoded and DMA-wrote: a board built later
// decodes it once on each worker's decoder before it opens, so no worker
// grows a stage buffer for a first command of that geometry.
var samples sync.Map // mirror name → *Cmd

// resizeInto is the resizer unit.
func resizeInto(img, dst *pix.Image) error {
	if img.C != dst.C {
		return fmt.Errorf("fpga: decoded %d channels, command wants %d: %w", img.C, dst.C, errBadGeometry)
	}
	return imageproc.ResizeInto(img, dst, imageproc.Bilinear)
}

// Config sets the device geometry. The stage widths are the paper's
// fabric budget: the CLB check enforces its resource constraint, which is
// why offloading is selective (§3.1) and the chosen widths are 4/2
// (§4.1). On the host they set only the board's worker count, the widest
// unit, since every worker runs every unit.
type Config struct {
	HuffmanWays int // parallel Huffman channels (default 4)
	ResizeWays  int // parallel resizers (default 2)
	IDCTWays    int // parallel iDCT lanes (default 1 wide unit)
	CmdQueueCap int // FIFO depth (default 64)

	// CLBBudget is the number of configurable logic blocks available;
	// 0 means DefaultCLBBudget.
	CLBBudget int

	// Inject hooks a fault injector into the command path (nil = no
	// faults). Each command consumes one injector decision as it leaves
	// the FIFO, in FIFO order, so a seeded schedule hits the same
	// commands on every run: a latency spike stalls the worker carrying
	// that command, Fail raises a FINISH carrying ErrInjected, Corrupt
	// flips payload bytes before parsing (exercising the real
	// decode-error path), and Stuck wedges the board permanently — its
	// worker parks, every later worker parks on the wedge, and submitted
	// commands are swallowed and never finish, exactly like a hung
	// device, until Close.
	Inject *faults.Injector
}

// CLB costs per stage instance, in arbitrary fabric units, and the
// default fabric size. With the defaults, 4-way Huffman + 1 iDCT + 2-way
// resize consumes 34k of 40k: the paper's configuration fits, an 8-way
// Huffman does not — "we can flexibly scale running logic to different
// numbers of configurable logic blocks ... according to its workloads and
// hardware constraints".
const (
	CLBPerHuffmanWay = 5000
	CLBPerIDCTWay    = 8000
	CLBPerResizeWay  = 3000
	DefaultCLBBudget = 40000
)

// DefaultConfig is the paper's deployed geometry.
func DefaultConfig() Config {
	return Config{HuffmanWays: 4, ResizeWays: 2, IDCTWays: 1, CmdQueueCap: 64}
}

// CLBUsage returns the fabric consumption of a configuration.
func (c Config) CLBUsage() int {
	return c.HuffmanWays*CLBPerHuffmanWay + c.IDCTWays*CLBPerIDCTWay + c.ResizeWays*CLBPerResizeWay
}

// workers is the board's worker count: as many commands in service at
// once as the widest unit could hold.
func (c Config) workers() int { return max(c.HuffmanWays, c.IDCTWays, c.ResizeWays) }

func (c *Config) normalize() error {
	if c.HuffmanWays == 0 {
		c.HuffmanWays = 4
	}
	if c.ResizeWays == 0 {
		c.ResizeWays = 2
	}
	if c.IDCTWays == 0 {
		c.IDCTWays = 1
	}
	if c.CmdQueueCap == 0 {
		c.CmdQueueCap = 64
	}
	if c.CLBBudget == 0 {
		c.CLBBudget = DefaultCLBBudget
	}
	if c.HuffmanWays < 0 || c.ResizeWays < 0 || c.IDCTWays < 0 || c.CmdQueueCap < 1 {
		return fmt.Errorf("fpga: invalid config %+v", c)
	}
	if use := c.CLBUsage(); use > c.CLBBudget {
		return fmt.Errorf("fpga: configuration needs %d CLBs, fabric has %d", use, c.CLBBudget)
	}
	return nil
}

// StageStats is the per-unit accounting used for the load-balance
// ablation (§3.3: none of the units should become the straggler).
type StageStats struct {
	Jobs int64
	Busy time.Duration
}

// stageClock accumulates one unit's StageStats over every worker that
// ran it; add books one job that has been in service since start and
// returns the time it stopped, where the next unit's clock starts.
type stageClock struct{ jobs, busy atomic.Int64 }

func (c *stageClock) add(start time.Time) time.Time {
	now := time.Now()
	c.jobs.Add(1)
	c.busy.Add(int64(now.Sub(start)))
	return now
}

func (c *stageClock) stats() StageStats {
	return StageStats{Jobs: c.jobs.Load(), Busy: time.Duration(c.busy.Load())}
}

// cmdState tracks one in-flight command through the revocation fence:
// inflight from Submit until its FINISH is raised, dmaActive strictly
// while the resizer writes the DMA window, cancelled once the host has
// revoked it.
type cmdState uint8

const (
	cmdInflight cmdState = iota
	cmdDMAActive
	cmdCancelled
)

// Device is one simulated FPGA decoder board.
type Device struct {
	cfg    Config
	arena  *hugepage.Arena
	source DataSource

	mirror Mirror
	sample atomic.Pointer[Cmd] // stored in samples once the board closes

	cmds        *queue.Queue[Cmd]
	completions *queue.Queue[Completion]

	// popMu pairs each command leaving the FIFO with its injector
	// decision, so both happen in FIFO order.
	popMu sync.Mutex

	// The revocation fence (Cancel): every submitted command is tracked
	// until its FINISH is raised, and the resizer's DMA write holds
	// dmaActive under regMu's happens-before so a host Cancel can
	// guarantee no write lands after it returns.
	regMu   sync.Mutex
	regCond *sync.Cond
	reg     map[uint64]cmdState

	// stuckc is closed by Close; wedged workers park on it so a stuck
	// device still tears down cleanly.
	stuckc chan struct{}
	wedged atomic.Bool

	wg     sync.WaitGroup
	closed sync.Once

	parserSt, huffmanSt, idctSt, resizeSt stageClock

	// Board-level command accounting: always maintained (cheap atomics),
	// surfaced per board by Instrument.
	submitted atomic.Int64
	finished  atomic.Int64
	cancelled atomic.Int64
	scaled    atomic.Int64 // commands reconstructed below full scale
}

// New creates and starts a device. arena is the HugePage window the
// decoder may DMA into; source resolves disk-path DataRefs and may be nil
// if all commands carry inline data; mirror is the decoder image to load
// (JPEGMirror for the image workloads of the paper).
func New(cfg Config, arena *hugepage.Arena, source DataSource, mirror Mirror) (*Device, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if mirror == nil {
		return nil, errNilMirror
	}
	if arena == nil {
		return nil, errors.New("fpga: nil DMA arena")
	}
	d := &Device{
		cfg:         cfg,
		arena:       arena,
		source:      source,
		mirror:      mirror,
		cmds:        queue.New[Cmd](cfg.CmdQueueCap),
		completions: queue.New[Completion](cfg.CmdQueueCap * 4),
		stuckc:      make(chan struct{}),
		reg:         make(map[uint64]cmdState),
	}
	d.regCond = sync.NewCond(&d.regMu)
	decs := make([]Decoder, cfg.workers())
	for i := range decs {
		decs[i] = mirror.NewDecoder()
	}
	if s, ok := samples.Load(mirror.Name()); ok {
		s := s.(*Cmd)
		for _, dec := range decs {
			if dec.Parse(s.Data.Inline) == nil && dec.EntropyDecode() == nil {
				dec.Reconstruct(s.OutW, s.OutH)
			}
		}
	}
	d.start(decs)
	return d, nil
}

// Mirror returns the loaded decoder image name.
func (d *Device) Mirror() string { return d.mirror.Name() }

// Config returns the device geometry.
func (d *Device) Config() Config { return d.cfg }

// Submit pushes a command into the FIFO queue, blocking when it is full
// (the host bridger relies on this back-pressure).
func (d *Device) Submit(cmd Cmd) error {
	d.register(cmd.ID)
	if err := d.cmds.Push(cmd); err != nil {
		d.unregister(cmd.ID)
		return ErrClosed
	}
	d.submitted.Add(1)
	return nil
}

// SubmitTimeout pushes a command but gives up after t when the FIFO
// stays full — the case of a wedged board whose queue never drains. ok
// is false on timeout; the error is ErrClosed after Close.
func (d *Device) SubmitTimeout(cmd Cmd, t time.Duration) (bool, error) {
	d.register(cmd.ID)
	ok, err := d.cmds.PushTimeout(cmd, t)
	if err != nil {
		d.unregister(cmd.ID)
		return false, ErrClosed
	}
	if !ok {
		d.unregister(cmd.ID)
	} else {
		d.submitted.Add(1)
	}
	return ok, nil
}

// register tracks a command before it enters the FIFO, so a FINISH can
// never race an untracked command, and unregister rolls the entry back
// when the FIFO rejects the push.
func (d *Device) register(id uint64) {
	d.regMu.Lock()
	d.reg[id] = cmdInflight
	d.regMu.Unlock()
}

func (d *Device) unregister(id uint64) {
	d.regMu.Lock()
	delete(d.reg, id)
	d.regMu.Unlock()
}

// Cancel revokes a submitted command — the host-side abort doorbell a
// real DMA engine exposes. It returns true when the revocation won: the
// command is still inside the board (queued, parked in a wedged worker,
// or anywhere short of its DMA write) and is now fenced, so no write to
// its DMA window can land after Cancel returns and its FINISH, if the
// pipeline ever reaches one, is suppressed. It returns false when the
// command has already finished: its FINISH is in (or headed to) the
// completion stream and must be consumed normally. If the command's DMA
// write is in progress, Cancel waits the write out before deciding, so
// a true return is always a hard no-more-writes guarantee.
func (d *Device) Cancel(id uint64) bool {
	d.regMu.Lock()
	defer d.regMu.Unlock()
	for {
		st, ok := d.reg[id]
		if !ok {
			return false
		}
		switch st {
		case cmdDMAActive:
			d.regCond.Wait()
		case cmdInflight:
			d.reg[id] = cmdCancelled
			d.cancelled.Add(1)
			return true
		case cmdCancelled:
			return true
		}
	}
}

// dmaBegin gates the resizer's DMA write: false means the host revoked
// the command and the write must not happen. Holding the dmaActive
// state (not the mutex) across the write keeps concurrent workers
// independent while still letting Cancel wait out an in-progress write.
func (d *Device) dmaBegin(id uint64) bool {
	d.regMu.Lock()
	defer d.regMu.Unlock()
	st, ok := d.reg[id]
	if !ok || st == cmdCancelled {
		return false
	}
	d.reg[id] = cmdDMAActive
	return true
}

func (d *Device) dmaEnd(id uint64) {
	d.regMu.Lock()
	if d.reg[id] == cmdDMAActive {
		d.reg[id] = cmdInflight
	}
	d.regCond.Broadcast()
	d.regMu.Unlock()
}

// Wedged reports whether an injected stuck fault has hung the board.
// Submitted commands are swallowed until Close; only a host-side
// timeout can detect the condition, as with real hardware.
func (d *Device) Wedged() bool { return d.wedged.Load() }

// Drain returns all completions accumulated so far without blocking —
// the drain_out of Table 1.
func (d *Device) Drain() []Completion {
	return d.completions.Drain()
}

// WaitCompletion blocks for the next completion. It returns ErrClosed
// once the device is closed and drained.
func (d *Device) WaitCompletion() (Completion, error) {
	c, err := d.completions.Pop()
	if err != nil {
		return Completion{}, ErrClosed
	}
	return c, nil
}

// Stats snapshots per-stage accounting in pipeline order: parser,
// Huffman, iDCT, resize.
func (d *Device) Stats() (parser, huffman, idct, resize StageStats) {
	return d.parserSt.stats(), d.huffmanSt.stats(), d.idctSt.stats(), d.resizeSt.stats()
}

// Close shuts the pipeline down. In-flight commands complete; pending
// completions remain readable until drained.
func (d *Device) Close() {
	d.closed.Do(func() {
		close(d.stuckc) // release wedged workers
		d.cmds.Close()
		d.wg.Wait()
		d.completions.Close()
		if s := d.sample.Load(); s != nil {
			samples.Store(d.mirror.Name(), s)
		}
	})
}

// start runs the board's workers, one per decoder: each takes the next
// command from the FIFO and carries it through every unit to its FINISH
// on its own decoder, until the FIFO is closed and drained.
func (d *Device) start(decs []Decoder) {
	for _, dec := range decs {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for {
				cmd, plan, pre, err := d.pop(dec)
				if err != nil {
					return
				}
				d.run(dec, cmd, plan, pre)
			}
		}()
	}
}

// parsed is the parser unit's result for a command pop has parsed.
type parsed struct {
	err  error
	done bool
}

// pop takes the next command and its injector decision. popMu is held
// across the blocking Pop: whoever waits on it is an idle worker too.
// The wedge is decided here as well, so a command ahead of the stuck one
// is never swallowed. So is a corruption: its PRNG draws share the
// injector's stream with the decisions, so a corrupt-planned command is
// parsed (fetched, corrupted, parsed, on the parser clock) before popMu
// is released. Only an injected corruption holds the other workers.
func (d *Device) pop(dec Decoder) (cmd Cmd, plan faults.Plan, pre parsed, err error) {
	d.popMu.Lock()
	defer d.popMu.Unlock()
	if cmd, err = d.cmds.Pop(); err != nil {
		return cmd, plan, pre, err
	}
	plan = d.cfg.Inject.Next()
	if plan.Stuck || d.wedged.Load() {
		plan.Stuck = true
		d.wedged.Store(true)
	} else if plan.Corrupt {
		start := time.Now()
		_, pre.err = d.parseCmd(dec, cmd, true)
		pre.done = true
		d.parserSt.add(start)
	}
	return cmd, plan, pre, nil
}

// finish raises a completion; it is the FINISH arbiter of Figure 4. A
// command the host revoked has already been settled there, so its
// FINISH is swallowed instead of surfacing as an unknown signal. The
// registry entry is dropped before the push so Cancel never blocks
// behind a full completion queue.
func (d *Device) finish(c Completion) {
	d.regMu.Lock()
	st, tracked := d.reg[c.ID]
	delete(d.reg, c.ID)
	d.regMu.Unlock()
	if tracked && st == cmdCancelled {
		return
	}
	d.finished.Add(1)
	// The completion queue is sized generously; if the host stops
	// draining, the push blocks, which stalls the pipeline exactly as a
	// full hardware FIFO would.
	_ = d.completions.Push(c)
}

// Submitted returns the number of commands accepted into the FIFO.
func (d *Device) Submitted() int64 { return d.submitted.Load() }

// Finished returns the number of FINISH signals raised (suppressed
// completions of revoked commands are not counted).
func (d *Device) Finished() int64 { return d.finished.Load() }

// Cancelled returns the number of commands the host revoked in time.
func (d *Device) Cancelled() int64 { return d.cancelled.Load() }

// ScaledDecodes returns the number of commands the iDCT unit
// reconstructed below full scale (the decode-to-scale fast path).
func (d *Device) ScaledDecodes() int64 { return d.scaled.Load() }

// Instrument registers the board's telemetry under the given prefix
// (e.g. "fpga0"): command counters and a wedged gauge. All series are
// pull-based — the decode pipeline pays nothing until a snapshot is
// taken. The per-stage load-balance view of §3.3 is Stats, not a
// series. A nil registry is a no-op.
func (d *Device) Instrument(r *metrics.Registry, prefix string) {
	if !r.On() {
		return
	}
	r.RegisterCounterFunc(prefix+"_cmds_total", d.submitted.Load)
	r.RegisterCounterFunc(prefix+"_finishes_total", d.finished.Load)
	r.RegisterCounterFunc(prefix+"_cancels_total", d.cancelled.Load)
	r.RegisterCounterFunc(prefix+"_scaled_total", d.scaled.Load)
	r.RegisterGauge(prefix+"_wedged", func() float64 {
		if d.Wedged() {
			return 1
		}
		return 0
	})
}

// run carries one command on dec from its injector decision to its
// FINISH.
func (d *Device) run(dec Decoder, cmd Cmd, plan faults.Plan, pre parsed) {
	// Fault hooks run before the stage accounting so an injected stall
	// does not pollute the load-balance stats.
	if plan.Stuck {
		// A hung board swallows the command — no FINISH is ever raised.
		// The worker parks until Close so teardown still works.
		<-d.stuckc
		return
	}
	if plan.Delay > 0 {
		time.Sleep(plan.Delay)
	}
	if plan.Fail || plan.Drop {
		d.finish(Completion{ID: cmd.ID, Err: fmt.Errorf("fpga: decode cmd %d: %w", cmd.ID, faults.ErrInjected)})
		return
	}
	n, err := d.decode(dec, cmd, pre)
	d.finish(Completion{ID: cmd.ID, Err: err, Bytes: n})
}

// decode runs the four units back to back on dec, each on its own
// clock, and returns the bytes DMA-written; the parser is skipped when
// pop has run it. Every clock stops before the FINISH push, which may
// block: Busy is service, not back-pressure. The board's first command
// whose DMA write lands becomes its sample.
func (d *Device) decode(dec Decoder, cmd Cmd, pre parsed) (int, error) {
	t := time.Now()
	var data []byte
	err := pre.err
	if !pre.done {
		data, err = d.parseCmd(dec, cmd, false)
		t = d.parserSt.add(t)
	}
	if err != nil {
		return 0, err
	}
	err = dec.EntropyDecode()
	t = d.huffmanSt.add(t)
	if err != nil {
		return 0, err
	}
	img, scale, err := dec.Reconstruct(cmd.OutW, cmd.OutH)
	t = d.idctSt.add(t)
	if err != nil {
		return 0, err
	}
	if scale < 8 {
		d.scaled.Add(1)
	}
	err = d.resizeAndDMA(cmd, img)
	d.resizeSt.add(t)
	if err != nil {
		return 0, err
	}
	if data != nil && d.sample.Load() == nil {
		d.sample.CompareAndSwap(nil, &Cmd{Data: DataRef{Inline: bytes.Clone(data)}, OutW: cmd.OutW, OutH: cmd.OutH})
	}
	return cmd.OutW * cmd.OutH * cmd.Channels, nil
}

// parseCmd is the parser unit proper: command validation, the payload
// fetch, an injected corruption and the mirror's Parse on dec. It
// returns the payload dec parsed.
func (d *Device) parseCmd(dec Decoder, cmd Cmd, corrupt bool) ([]byte, error) {
	if (cmd.Channels != 1 && cmd.Channels != 3) || cmd.OutW <= 0 || cmd.OutH <= 0 {
		return nil, errBadGeometry
	}
	// Validate the DMA window up front, like the MMU of Figure 4.
	if _, err := d.window(cmd); err != nil {
		return nil, err
	}
	data, err := cmd.Data.Bytes(d.source)
	if err != nil {
		return nil, err
	}
	if corrupt {
		// Corrupt a copy (the caller's payload may be shared) so the
		// real decode-error path downstream is exercised end to end.
		data = d.cfg.Inject.CorruptBytes(append([]byte(nil), data...))
	}
	return data, dec.Parse(data)
}

// window resolves the command's DMA target to the bytes it covers.
func (d *Device) window(cmd Cmd) ([]byte, error) {
	need := cmd.OutW * cmd.OutH * cmd.Channels
	w, err := d.arena.Phy2Virt(cmd.DMAAddr+hugepage.PhysAddr(cmd.DMAOff), need)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTarget, err)
	}
	return w, nil
}

func (d *Device) resizeAndDMA(cmd Cmd, img *pix.Image) error {
	window, err := d.window(cmd)
	if err != nil {
		return err
	}
	dst, err := pix.View(cmd.OutW, cmd.OutH, cmd.Channels, window)
	if err != nil {
		return err
	}
	// The resizer writes straight into the DMA window: no intermediate
	// buffer, matching the hardware data path. The write is fenced by
	// the revocation registry: once the host has cancelled the command
	// (it timed out and its slot was settled, possibly recycled), the
	// write must not land.
	if !d.dmaBegin(cmd.ID) {
		return ErrRevoked
	}
	defer d.dmaEnd(cmd.ID)
	return resizeInto(img, &dst)
}
