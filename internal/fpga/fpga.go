// Package fpga simulates DLBooster's FPGA-based decoder (paper §3.3,
// Figure 4) as a functionally real device: a FIFO command queue feeds a
// parser, which feeds an N-way Huffman decoding unit, an iDCT & RGB unit
// and an M-way resizer, and finished batches are written by "DMA" into
// HugePage physical addresses before a FINISH completion is raised.
//
// Every stage performs the real computation (via internal/jpeg and
// internal/imageproc) on real bytes, with stage parallelism configured
// the way the paper configures CLBs (4-way Huffman, 2-way resize), so the
// pipelining, load-balance and error behaviour of the hardware design are
// exercised — only the clock is the host's, not an Arria 10's. The
// decoding logic itself is a pluggable Mirror, mirroring the paper's
// downloadable decoder images for different workloads.
package fpga

import (
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

// Mirror is a pluggable decoder image. Stages correspond to the units of
// Figure 4: Parse runs in the parser, EntropyDecode in the Huffman unit,
// Reconstruct in the iDCT & RGB unit. The resizer stage is
// format-independent and owned by the device.
type Mirror interface {
	Name() string
	Parse(data []byte) (job any, err error)
	EntropyDecode(job any) (any, error)
	Reconstruct(job any) (*pix.Image, error)
}

// ScaledMirror is an optional capability of a Mirror: reconstruct the
// job directly at a reduced scale sized for the command's resize target
// (the libjpeg scale_denom trick applied inside the iDCT unit). The
// returned scale is 8 for a full-resolution reconstruction —
// byte-identical to Reconstruct — and 1, 2 or 4 when the fast path
// engaged, in which case the device's resizer only runs the residual
// ratio. Mirrors without natural scaling (raw passthrough, audio) simply
// do not implement this.
type ScaledMirror interface {
	Mirror
	ReconstructScaled(job any, outW, outH int) (img *pix.Image, scale int, err error)
}

// Config sets the device geometry. The CLB budget enforces the paper's
// resource constraint: stage widths must fit the fabric, which is why
// offloading is selective (§3.1) and the chosen widths are 4/2 (§4.1).
type Config struct {
	HuffmanWays int // parallel Huffman channels (default 4)
	ResizeWays  int // parallel resizers (default 2)
	IDCTWays    int // parallel iDCT lanes (default 1 wide unit)
	CmdQueueCap int // FIFO depth (default 64)

	// CLBBudget is the number of configurable logic blocks available;
	// 0 means DefaultCLBBudget.
	CLBBudget int

	// Inject hooks a fault injector into the command path (nil = no
	// faults). Each command consumes one injector decision in the
	// parser: a latency spike stalls the front-end, Fail raises a
	// FINISH carrying ErrInjected, Corrupt flips payload bytes before
	// parsing (exercising the real decode-error path), and Stuck wedges
	// the board permanently — submitted commands are swallowed and
	// never finish, exactly like a hung device, until Close.
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

	mu     sync.Mutex
	mirror Mirror

	cmds        *queue.Queue[Cmd]
	completions *queue.Queue[Completion]

	// The revocation fence (Cancel): every submitted command is tracked
	// until its FINISH is raised, and the resizer's DMA write holds
	// dmaActive under regMu's happens-before so a host Cancel can
	// guarantee no write lands after it returns.
	regMu   sync.Mutex
	regCond *sync.Cond
	reg     map[uint64]cmdState

	// stuckc is closed by Close; a wedged parser parks on it so a
	// stuck device still tears down cleanly.
	stuckc chan struct{}
	wedged atomic.Bool

	// Inter-stage channels sized like small hardware FIFOs.
	toHuffman chan stageJob
	toIDCT    chan stageJob
	toResize  chan stageJob

	wg     sync.WaitGroup
	closed sync.Once

	statMu    sync.Mutex
	parserSt  StageStats
	huffmanSt StageStats
	idctSt    StageStats
	resizeSt  StageStats

	// Board-level command accounting: always maintained (cheap atomics),
	// surfaced per board by Instrument.
	submitted atomic.Int64
	finished  atomic.Int64
	cancelled atomic.Int64
	scaled    atomic.Int64 // commands reconstructed below full scale
}

type stageJob struct {
	cmd Cmd
	job any        // mirror-specific intermediate
	img *pix.Image // after Reconstruct
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
		toHuffman:   make(chan stageJob, cfg.HuffmanWays*2),
		toIDCT:      make(chan stageJob, cfg.IDCTWays*2),
		toResize:    make(chan stageJob, cfg.ResizeWays*2),
		stuckc:      make(chan struct{}),
		reg:         make(map[uint64]cmdState),
	}
	d.regCond = sync.NewCond(&d.regMu)
	d.start()
	return d, nil
}

// Mirror returns the loaded decoder image name.
func (d *Device) Mirror() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mirror.Name()
}

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
// command is still inside the board (queued, parked in a wedged parser,
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
// state (not the mutex) across the write keeps concurrent resize ways
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
	d.statMu.Lock()
	defer d.statMu.Unlock()
	return d.parserSt, d.huffmanSt, d.idctSt, d.resizeSt
}

// Close shuts the pipeline down. In-flight commands complete; pending
// completions remain readable until drained.
func (d *Device) Close() {
	d.closed.Do(func() {
		close(d.stuckc) // release a wedged parser
		d.cmds.Close()
		d.wg.Wait()
		d.completions.Close()
	})
}

func (d *Device) start() {
	// Parser: single front-end, like the hardware's.
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer close(d.toHuffman)
		for {
			cmd, err := d.cmds.Pop()
			if err != nil {
				return
			}
			d.parse(cmd)
		}
	}()
	// Huffman unit: N ways.
	var huffWG sync.WaitGroup
	for i := 0; i < d.cfg.HuffmanWays; i++ {
		d.wg.Add(1)
		huffWG.Add(1)
		go func() {
			defer d.wg.Done()
			defer huffWG.Done()
			for j := range d.toHuffman {
				d.huffman(j)
			}
		}()
	}
	d.wg.Add(1)
	go func() { defer d.wg.Done(); huffWG.Wait(); close(d.toIDCT) }()
	// iDCT & RGB unit.
	var idctWG sync.WaitGroup
	for i := 0; i < d.cfg.IDCTWays; i++ {
		d.wg.Add(1)
		idctWG.Add(1)
		go func() {
			defer d.wg.Done()
			defer idctWG.Done()
			for j := range d.toIDCT {
				d.idct(j)
			}
		}()
	}
	d.wg.Add(1)
	go func() { defer d.wg.Done(); idctWG.Wait(); close(d.toResize) }()
	// Resizer: M ways, ending at the FINISH arbiter (completions queue).
	for i := 0; i < d.cfg.ResizeWays; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for j := range d.toResize {
				d.resize(j)
			}
		}()
	}
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
// (e.g. "fpga0"): command counters, per-stage busy seconds and job
// counts (the load-balance view of §3.3), and a wedged gauge. All
// series are pull-based — the decode pipeline pays nothing until a
// snapshot is taken. A nil registry is a no-op.
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
	stage := func(name string, pick func(p, h, i, z StageStats) StageStats) {
		r.RegisterGauge(prefix+"_"+name+"_busy_seconds", func() float64 {
			return pick(d.Stats()).Busy.Seconds()
		})
		r.RegisterGauge(prefix+"_"+name+"_jobs", func() float64 {
			return float64(pick(d.Stats()).Jobs)
		})
	}
	stage("parser", func(p, _, _, _ StageStats) StageStats { return p })
	stage("huffman", func(_, h, _, _ StageStats) StageStats { return h })
	stage("idct", func(_, _, i, _ StageStats) StageStats { return i })
	stage("resize", func(_, _, _, z StageStats) StageStats { return z })
}

func (d *Device) parse(cmd Cmd) {
	// Fault hooks run before the stage accounting so an injected stall
	// does not pollute the load-balance stats.
	plan := d.cfg.Inject.Next()
	if d.wedged.Load() || plan.Stuck {
		// A hung board swallows the command — no FINISH is ever raised.
		// The parser parks until Close so teardown still works.
		d.wedged.Store(true)
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
	start := time.Now()
	defer func() {
		d.statMu.Lock()
		d.parserSt.Jobs++
		d.parserSt.Busy += time.Since(start)
		d.statMu.Unlock()
	}()
	if cmd.Channels != 1 && cmd.Channels != 3 {
		d.finish(Completion{ID: cmd.ID, Err: errBadGeometry})
		return
	}
	if cmd.OutW <= 0 || cmd.OutH <= 0 {
		d.finish(Completion{ID: cmd.ID, Err: errBadGeometry})
		return
	}
	// Validate the DMA window up front, like the MMU of Figure 4.
	need := cmd.OutW * cmd.OutH * cmd.Channels
	if _, err := d.arena.Phy2Virt(cmd.DMAAddr+hugepage.PhysAddr(cmd.DMAOff), need); err != nil {
		d.finish(Completion{ID: cmd.ID, Err: fmt.Errorf("%w: %v", ErrBadTarget, err)})
		return
	}
	data := cmd.Data.Inline
	if data == nil {
		if d.source == nil {
			d.finish(Completion{ID: cmd.ID, Err: ErrNoData})
			return
		}
		var err error
		data, err = d.source.Fetch(cmd.Data)
		if err != nil {
			d.finish(Completion{ID: cmd.ID, Err: err})
			return
		}
	}
	if plan.Corrupt {
		// Corrupt a copy (the caller's payload may be shared) so the
		// real decode-error path downstream is exercised end to end.
		data = d.cfg.Inject.CorruptBytes(append([]byte(nil), data...))
	}
	job, err := d.currentMirror().Parse(data)
	if err != nil {
		d.finish(Completion{ID: cmd.ID, Err: err})
		return
	}
	d.toHuffman <- stageJob{cmd: cmd, job: job}
}

func (d *Device) huffman(j stageJob) {
	start := time.Now()
	out, err := d.currentMirror().EntropyDecode(j.job)
	d.statMu.Lock()
	d.huffmanSt.Jobs++
	d.huffmanSt.Busy += time.Since(start)
	d.statMu.Unlock()
	if err != nil {
		d.finish(Completion{ID: j.cmd.ID, Err: err})
		return
	}
	j.job = out
	d.toIDCT <- j
}

func (d *Device) idct(j stageJob) {
	start := time.Now()
	var img *pix.Image
	var err error
	m := d.currentMirror()
	if sm, ok := m.(ScaledMirror); ok {
		var scale int
		img, scale, err = sm.ReconstructScaled(j.job, j.cmd.OutW, j.cmd.OutH)
		if err == nil && scale < 8 {
			d.scaled.Add(1)
		}
	} else {
		img, err = m.Reconstruct(j.job)
	}
	d.statMu.Lock()
	d.idctSt.Jobs++
	d.idctSt.Busy += time.Since(start)
	d.statMu.Unlock()
	if err != nil {
		d.finish(Completion{ID: j.cmd.ID, Err: err})
		return
	}
	j.job = nil
	j.img = img
	d.toResize <- j
}

func (d *Device) resize(j stageJob) {
	start := time.Now()
	err := d.resizeAndDMA(j)
	d.statMu.Lock()
	d.resizeSt.Jobs++
	d.resizeSt.Busy += time.Since(start)
	d.statMu.Unlock()
	if err != nil {
		d.finish(Completion{ID: j.cmd.ID, Err: err})
		return
	}
	n := j.cmd.OutW * j.cmd.OutH * j.cmd.Channels
	d.finish(Completion{ID: j.cmd.ID, Bytes: n})
}

func (d *Device) resizeAndDMA(j stageJob) error {
	cmd := j.cmd
	if j.img.C != cmd.Channels {
		return fmt.Errorf("fpga: decoded %d channels, command wants %d: %w", j.img.C, cmd.Channels, errBadGeometry)
	}
	need := cmd.OutW * cmd.OutH * cmd.Channels
	window, err := d.arena.Phy2Virt(cmd.DMAAddr+hugepage.PhysAddr(cmd.DMAOff), need)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadTarget, err)
	}
	dst, err := pix.FromBytes(cmd.OutW, cmd.OutH, cmd.Channels, window)
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
	return imageproc.ResizeInto(j.img, dst, imageproc.Bilinear)
}

func (d *Device) currentMirror() Mirror {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mirror
}
