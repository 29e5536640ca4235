package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dlbooster/internal/gpu"
	"dlbooster/internal/metrics"
	"dlbooster/internal/queue"
)

// Solver is one registered compute engine: a GPU, its copy stream, and
// the pair of Trans Queues connecting it to the global Dispatcher
// (§3.4.3: "each GPU engine communicates with the global Dispatcher
// using a pair of Trans Queues").
type Solver struct {
	Device *gpu.Device
	Stream *gpu.Stream
	// Free holds device-side batch buffers the engine has released;
	// Full carries filled device batches to the engine.
	Free *queue.Queue[*gpu.Buffer]
	Full *queue.Queue[*DeviceBatch]
}

// NewSolver allocates a solver with depth device-side batch buffers of
// batchBytes each. On failure it frees the buffers it took and closes
// its stream, so the device is left as it was found.
func NewSolver(dev *gpu.Device, depth, batchBytes int) (*Solver, error) {
	if depth < 1 {
		return nil, errors.New("core: solver depth must be >= 1")
	}
	stream, err := dev.NewStream()
	if err != nil {
		return nil, err
	}
	s := &Solver{
		Device: dev,
		Stream: stream,
		Free:   queue.New[*gpu.Buffer](depth),
		Full:   queue.New[*DeviceBatch](depth),
	}
	bufs := make([]*gpu.Buffer, 0, depth)
	for i := 0; i < depth; i++ {
		buf, err := dev.Malloc(batchBytes)
		if err == nil {
			bufs = append(bufs, buf)
			err = s.Free.Push(buf)
		}
		if err != nil {
			for _, b := range bufs {
				_ = b.Free() // each was taken above and freed once here
			}
			stream.Close()
			return nil, fmt.Errorf("core: allocating device batch %d: %w", i, err)
		}
	}
	return s, nil
}

// DispatcherConfig tunes dispatch behaviour.
type DispatcherConfig struct {
	// PerItemCopy switches from one large-block copy per batch to one
	// copy per image — the baseline behaviour whose ≈20 % overhead §5.2
	// attributes to "copying small pieces". It exists for the ablation
	// benchmark; DLBooster proper keeps it false.
	PerItemCopy bool
	// Metrics, when non-nil, registers the dispatcher's telemetry with
	// the registry: per-solver Trans Queue depths (trans<i>_free,
	// trans<i>_full) and the batches_dispatched_total counter. Pass the
	// Booster's Registry() so everything lands in one snapshot. All
	// probes are pull-based; span stamps on traced batches are the only
	// per-batch work and they cost two timestamps per round.
	Metrics *metrics.Registry
}

// Dispatcher moves processed batches from host memory to the registered
// GPU engines with round-robin scheduling and asynchronous copies —
// Algorithm 3 of the paper.
type Dispatcher struct {
	cfg     DispatcherConfig
	batches *queue.Queue[*Batch]
	recycle func(*Batch) error
	solvers []*Solver

	dispatched atomic.Int64
}

// NewDispatcher builds a dispatcher over the backend's batch queue. The
// recycle function returns a host buffer to the MemManager after stream
// synchronisation (Algorithm 3 line 18).
func NewDispatcher(batches *queue.Queue[*Batch], recycle func(*Batch) error, solvers []*Solver, cfg DispatcherConfig) (*Dispatcher, error) {
	if batches == nil || recycle == nil {
		return nil, errors.New("core: nil batch source")
	}
	if len(solvers) == 0 {
		return nil, errors.New("core: no solvers registered")
	}
	d := &Dispatcher{cfg: cfg, batches: batches, recycle: recycle, solvers: solvers}
	if r := cfg.Metrics; r.On() {
		r.RegisterCounterFunc("batches_dispatched_total", d.dispatched.Load)
		for i, s := range solvers {
			r.RegisterQueue(fmt.Sprintf("trans%d_free", i), s.Free.Len, s.Free.Cap)
			r.RegisterQueue(fmt.Sprintf("trans%d_full", i), s.Full.Len, s.Full.Cap)
		}
	}
	return d, nil
}

// Dispatched returns the number of batches moved to devices.
func (d *Dispatcher) Dispatched() int64 { return d.dispatched.Load() }

// inflight is one copy submitted in the current dispatch round.
type inflight struct {
	solver *Solver
	host   *Batch
	dev    *gpu.Buffer
}

// Run executes dispatch rounds until the batch queue closes, then closes
// every solver's Full queue. Each round is Algorithm 3: submit one
// asynchronous copy per solver (lines 1–11), then synchronise all
// streams and recycle the buffers (lines 12–18).
func (d *Dispatcher) Run() error {
	defer func() {
		for _, s := range d.solvers {
			s.Full.Close()
		}
	}()
	for {
		var round []inflight
		for _, s := range d.solvers {
			hostBatch, err := d.batches.Pop() // line 2–3: blocking wait
			if err != nil {
				// Stream over: synchronise what this round already
				// submitted, then exit.
				return d.finishRound(round)
			}
			if tr := hostBatch.Trace; tr != nil {
				tr.Dispatched = time.Now()
			}
			devBuf, err := s.Free.Pop() // lines 4–6
			if err != nil {
				return fmt.Errorf("core: solver free queue closed: %w", err)
			}
			if err := d.copyAsync(s, hostBatch, devBuf); err != nil { // line 9
				return err
			}
			round = append(round, inflight{solver: s, host: hostBatch, dev: devBuf})
		}
		if err := d.finishRound(round); err != nil {
			return err
		}
	}
}

// copyAsync submits the host→device transfer on the solver's stream.
func (d *Dispatcher) copyAsync(s *Solver, host *Batch, dev *gpu.Buffer) error {
	if d.cfg.PerItemCopy {
		stride := host.ImageBytes()
		for i := 0; i < host.Images; i++ {
			if err := s.Stream.MemcpyHtoDAsync(dev, i*stride, host.Image(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return s.Stream.MemcpyHtoDAsync(dev, 0, host.Bytes())
}

// finishRound synchronises the round's streams, recycles host buffers,
// and hands device batches to the engines (Algorithm 3 lines 12–18).
func (d *Dispatcher) finishRound(round []inflight) error {
	for _, f := range round {
		if err := f.solver.Stream.Synchronize(); err != nil {
			return err
		}
		if tr := f.host.Trace; tr != nil {
			tr.Synced = time.Now()
		}
	}
	for _, f := range round {
		db := &DeviceBatch{
			Buf:    f.dev,
			Images: f.host.Images,
			W:      f.host.W, H: f.host.H, C: f.host.C,
			Metas: f.host.Metas,
			Valid: f.host.Valid,
			Seq:   f.host.Seq,
		}
		if err := d.recycle(f.host); err != nil {
			return err
		}
		if err := f.solver.Full.Push(db); err != nil {
			return err
		}
		d.dispatched.Add(1)
	}
	return nil
}
