// The serving path. dlserve is always a fleet: -shards N independent
// Booster shards — each with its own decoder boards, HugePage arena,
// dispatcher, batch engine and admission-controlled ingest queue —
// behind the internal/fleet router, and the default -shards 1 is a
// fleet of one. One shard's board failures degrade that shard alone;
// the stealer drains its backlog into healthy shards, and every
// response frame names the shard that served it so clients can
// attribute per-shard sheds and latency. Telemetry is the rollup
// (metrics.FleetSnapshot) for every shard count: /metrics.json carries
// per-shard snapshots plus totals, /metrics the fleet-total Prometheus
// text, and /trace.json a timeline with one process track per shard.

package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"dlbooster/internal/control"
	"dlbooster/internal/core"
	"dlbooster/internal/engine"
	"dlbooster/internal/faults"
	"dlbooster/internal/fleet"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/metrics"
	"dlbooster/internal/nvme"
	"dlbooster/internal/perf"
)

// serveConfig carries the server-mode flags.
type serveConfig struct {
	addr      string
	backend   string
	batch     int
	size      int
	pace      bool
	faultFPGA string
	res       core.Resilience

	// shards independent pipeline shards sit behind the placement
	// policy, each with its own ingest queue of queueCap slots.
	shards    int
	placement string

	// batchTimeout is the dynamic-batching deadline (0 = strict
	// batches); queueCap bounds the ingest queue for admission control.
	batchTimeout time.Duration
	queueCap     int

	// Telemetry: metricsAddr serves /metrics, /metrics.json,
	// /history.json and /trace.json over HTTP; traceFile receives a
	// Chrome trace timeline on shutdown. Either of them enables full
	// tracing on the pipeline. flightDir enables the always-on flight
	// recorder independently.
	metricsAddr string
	traceFile   string
	flightDir   string

	// historyEvery > 0 runs the windowed-telemetry samplers at that
	// interval into rings of historySamples samples (0 = default);
	// sloSpec, when set, is judged over the window at shutdown (and
	// turns the samplers on at 1s if historyEvery is 0). autotuneSpec
	// runs the internal/control feedback loop against its SLO at the
	// sampling interval (and doubles as the shutdown -slo when none was
	// given). pprof mounts net/http/pprof on the metricsAddr mux.
	historyEvery   time.Duration
	historySamples int
	sloSpec        string
	autotuneSpec   string
	pprof          bool

	// cacheMB > 0 gives the fleet one shared decoded-tensor
	// ReplayCache: a RAM tier of that size, plus an NVMe spill tier of
	// cacheSpillMB when set (optionally flate-compressed). Serving is a
	// stream, not an epoch, so the cache is a capture surface here — its
	// counters and doctor verdicts show up in the telemetry endpoints.
	cacheMB       int
	cacheSpillMB  int
	cacheCompress bool
}

// cacheConfig translates the -cache-* flags into a core.CacheConfig,
// backing the spill tier with its own paced simulated NVMe device.
func (cfg serveConfig) cacheConfig() core.CacheConfig {
	if cfg.cacheMB <= 0 {
		return core.CacheConfig{}
	}
	cc := core.CacheConfig{
		RAMBytes: int64(cfg.cacheMB) << 20,
		Compress: cfg.cacheCompress,
	}
	if cfg.cacheSpillMB > 0 {
		cc.Spill = nvme.New(nvme.Config{
			ReadBandwidth:  perf.NVMeReadBandwidth,
			ReadLatency:    time.Duration(perf.NVMeReadLatency * float64(time.Second)),
			WriteBandwidth: perf.NVMeWriteBandwidth,
			WriteLatency:   time.Duration(perf.NVMeWriteLatency * float64(time.Second)),
		})
		cc.SpillBytes = int64(cfg.cacheSpillMB) << 20
	}
	return cc
}

// telemetryPlan resolves the windowed-telemetry flags: the parsed
// shutdown SLO (nil when unset), the autotuner's SLO (nil when
// -autotune is unset), and the effective history sampling interval —
// -history as given, forced to 1s when an SLO or the autotuner needs a
// window and no interval was chosen. -autotune without -slo also judges
// its own spec at shutdown, so the scorecard reports the objective the
// controller steered toward.
func (cfg serveConfig) telemetryPlan() (slo, ctlSLO *metrics.SLO, histEvery time.Duration, err error) {
	if cfg.sloSpec != "" {
		if slo, err = metrics.ParseSLO(cfg.sloSpec); err != nil {
			return nil, nil, 0, err
		}
	}
	if cfg.autotuneSpec != "" {
		if ctlSLO, err = metrics.ParseSLO(cfg.autotuneSpec); err != nil {
			return nil, nil, 0, fmt.Errorf("-autotune: %w", err)
		}
		if slo == nil {
			slo = ctlSLO
		}
	}
	histEvery = cfg.historyEvery
	if (slo != nil || ctlSLO != nil) && histEvery <= 0 {
		histEvery = time.Second
	}
	if cfg.historySamples > 0 && histEvery <= 0 {
		fmt.Fprintf(os.Stderr, "dlserve: warning: -history-samples %d has no effect without -history or -slo\n", cfg.historySamples)
	}
	return slo, ctlSLO, histEvery, nil
}

// serve builds the fleet, serves connections until the listener closes
// (SIGINT/SIGTERM), then drains it and prints the shutdown report.
func serve(cfg serveConfig) error {
	if cfg.queueCap < 1 {
		return fmt.Errorf("-queue %d: ingest queue needs at least one slot", cfg.queueCap)
	}
	if cfg.shards < 1 {
		return fmt.Errorf("-shards %d: need at least one shard", cfg.shards)
	}
	var placement fleet.Placement
	switch cfg.placement {
	case "", "least-loaded":
		placement = fleet.PlacementLeastLoaded
	case "hash":
		placement = fleet.PlacementHash
	default:
		return fmt.Errorf("-placement %q: want least-loaded or hash", cfg.placement)
	}
	if cfg.backend != "dlbooster" && cfg.backend != "cpu" {
		return fmt.Errorf("unknown backend %q", cfg.backend)
	}
	// The cpu backend is the same pipeline with the offload knob pinned:
	// every item goes to its shard's GOMAXPROCS host decode lanes, and
	// the boards sit idle.
	cpuOnly := cfg.backend == "cpu"
	faultCfg, err := faults.ParseSpec(cfg.faultFPGA)
	if err != nil {
		return err
	}
	var inject *faults.Injector
	if faultCfg.Enabled() {
		if cpuOnly {
			return fmt.Errorf("-fault-fpga targets the decoder; the cpu backend has none")
		}
		// Faults target shard 0 only: the point of injecting against a
		// fleet is watching one shard degrade while the rest carry on.
		inject = faults.New(faultCfg)
	}
	slo, ctlSLO, histEvery, err := cfg.telemetryPlan()
	if err != nil {
		return err
	}
	if ctlSLO != nil && cpuOnly {
		return fmt.Errorf("-autotune retunes the CPU-offload share; the cpu backend pins it at 1")
	}
	telemetry := cfg.metricsAddr != "" || cfg.traceFile != "" || histEvery > 0
	var flight *metrics.FlightRecorder
	if cfg.flightDir != "" {
		flight = metrics.NewFlightRecorder(metrics.FlightConfig{DumpDir: cfg.flightDir})
		// Injected faults land in the recorder's timeline; the first
		// wedged-device fault ("fault_stuck") triggers an automatic dump.
		inject.SetHook(func(kind string, op int64) {
			if path := flight.Note("fault_"+kind, fmt.Sprintf("injected %s fault at decoder op %d", kind, op)); path != "" {
				fmt.Fprintf(os.Stderr, "dlserve: flight recorder dumped to %s\n", path)
			}
		})
	}

	batch, size := cfg.batch, cfg.size
	grace := cfg.batchTimeout
	if grace <= 0 {
		grace = time.Millisecond
	}
	// One shared tiered cache across the fleet: every shard captures
	// into and replays from the same tiers, so a tensor decoded on any
	// shard is readable by all of them.
	var shared *core.TieredCache
	if cacheCfg := cfg.cacheConfig(); cacheCfg.RAMBytes > 0 {
		shared, err = fleet.SharedCacheFor(cacheCfg)
		if err != nil {
			return err
		}
	}
	fl, err := fleet.New(fleet.Config{
		Shards:    cfg.shards,
		Placement: placement,
		QueueCap:  cfg.queueCap,
		Grace:     grace,
		NewBooster: func(shard int) (*core.Booster, error) {
			// A registry of the operator's asking turns full tracing on;
			// without one the Booster's internal registry still answers
			// every snapshot (counters, queue depths, events).
			var reg *metrics.Registry
			if telemetry {
				reg = metrics.NewRegistry()
				if shard == 0 {
					// Runtime health gauges are process-wide: register
					// them on exactly one shard so the fleet rollup
					// (which sums gauges) doesn't count them ×N.
					metrics.RegisterRuntimeGauges(reg)
				}
			}
			bcfg := core.Config{
				BatchSize: batch, OutW: size, OutH: size, Channels: 3, PoolBatches: 8,
				Resilience:   cfg.res,
				BatchTimeout: cfg.batchTimeout,
				Metrics:      reg,
				Flight:       flight,
				SharedCache:  shared,
			}
			if shard == 0 {
				bcfg.FPGA = fpga.Config{Inject: inject}
			}
			b, err := core.New(bcfg)
			if err == nil && cpuOnly {
				b.SetCPUShare(1)
			}
			return b, err
		},
	})
	if err != nil {
		return err
	}
	defer fl.Close()

	// Per-shard compute tail: its own simulated GPU, solver, dispatcher
	// and inference engine, with Emit stamping the shard id into every
	// response frame.
	cs := &conns{byID: make(map[int]net.Conn)}
	var engines []chan struct{}
	for _, s := range fl.Shards() {
		id, b := s.ID(), s.Booster()
		dev, err := gpu.NewDevice(id, 1<<31)
		if err != nil {
			return err
		}
		defer dev.Close()
		solver, err := core.NewSolver(dev, 2, batch*size*size*3)
		if err != nil {
			return err
		}
		disp, err := core.NewDispatcher(b.Batches(), b.RecycleBatch, []*core.Solver{solver}, core.DispatcherConfig{Metrics: b.Registry()})
		if err != nil {
			return err
		}
		inf, err := engine.NewInference(engine.InferenceConfig{
			Profile: perf.GoogLeNet, Solver: solver, Classes: 1000,
			PaceCompute: cfg.pace,
			Emit:        cs.emit(id),
			Metrics:     b.Registry(),
		})
		if err != nil {
			return err
		}
		done := make(chan struct{})
		engines = append(engines, done)
		go func() {
			if err := disp.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "dlserve: shard %d dispatcher: %v\n", id, err)
			}
		}()
		go func() {
			defer close(done)
			if _, err := inf.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "dlserve: shard %d engine: %v\n", id, err)
			}
		}()
	}

	if cfg.metricsAddr != "" {
		if err := serveTelemetry(cfg.metricsAddr, fl, histEvery > 0, cfg.pprof); err != nil {
			return err
		}
	}
	if flight != nil {
		// Sample the registry of the faulted shard — the one whose
		// degradation the recorder exists to explain.
		s := flight.Sampler(fl.Shards()[0].Booster().Registry(), time.Second)
		s.Start()
		defer s.Stop()
	}
	if histEvery > 0 {
		// Per-shard history rings behind the merged fleet view; Drain
		// joins the samplers.
		fl.StartSampler(metrics.SamplerConfig{Interval: histEvery, Capacity: cfg.historySamples})
	}

	// One autotuner per shard, each closing the loop over that shard's
	// own history and knob block — a degraded shard retunes alone
	// instead of dragging the fleet's operating point with it. The
	// throughput target divides across shards (each holds its slice);
	// latency and shed objectives are per-request and apply as given.
	var ctls []*control.Controller
	if ctlSLO != nil {
		shardSLO := *ctlSLO
		shardSLO.TargetThroughput /= float64(cfg.shards)
		for i, s := range fl.Shards() {
			c, err := control.New(
				control.PipelinePlant{Booster: s.Booster(), Admission: s},
				fl.Histories()[i],
				control.Config{
					SLO:      &shardSLO,
					Interval: histEvery,
					Registry: s.Booster().Registry(),
					Name:     fmt.Sprintf("shard %d", s.ID()),
				})
			if err != nil {
				return err
			}
			ctls = append(ctls, c)
		}
	}

	fl.Start()
	for _, c := range ctls {
		c.Start()
	}
	if ctlSLO != nil {
		fmt.Printf("dlserve: autotune steering toward %s every %v, one controller per shard\n", ctlSLO.String(), histEvery)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM closes the listener; the accept loop then runs the
	// drain path below — the operator (and chaos-test) exit path.
	var closing atomic.Bool
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		// Back to the default disposition: the drain waits for every
		// epoch, so a board wedged without -cmd-timeout stalls it, and
		// a second signal must still end the process.
		signal.Stop(sig)
		closing.Store(true)
		_ = ln.Close()
	}()
	fmt.Printf("dlserve: %s backend, shards %d (%s placement), batch %d (timeout %v), queue %d per shard, listening on %s\n",
		cfg.backend, cfg.shards, placement, batch, cfg.batchTimeout, cfg.queueCap, ln.Addr())
	for {
		nc, err := ln.Accept()
		if err == nil {
			go handleConn(nc, cs, fl)
			continue
		}
		// Drain: stop the autotuners first (no retuning a pipeline that
		// is shutting down), then the fleet stops the stealer, closes
		// every ingest queue — handlers blocked in Submit unblock — and
		// waits for the epochs to seal their last batches; each shard's
		// engine then finishes its in-flight predictions before
		// connections drop.
		for i, c := range ctls {
			c.Stop()
			reportAutotune(c, i)
		}
		if derr := fl.Drain(); derr != nil {
			fmt.Fprintf(os.Stderr, "dlserve: drain: %v\n", derr)
		}
		waitEngines(engines, 3*time.Second)
		cs.closeAll()
		reportShards(fl)
		// One doctor: over the samplers' histories with -history, over
		// each shard's final snapshot without.
		fmt.Fprintf(os.Stderr, "dlserve: doctor %s", fl.Diagnose().Report())
		if slo != nil {
			fmt.Fprintf(os.Stderr, "dlserve: %s", slo.Evaluate(fl.History()).Report())
		}
		if cfg.traceFile != "" {
			writeTrace(cfg.traceFile, fl)
		}
		if flight != nil {
			if path, derr := flight.Dump("shutdown"); derr == nil {
				fmt.Fprintf(os.Stderr, "dlserve: flight recorder dumped to %s\n", path)
			}
		}
		if closing.Load() {
			return nil
		}
		return err
	}
}

// waitEngines blocks until every shard engine finished or the timeout
// passes, so a stalled engine cannot hold the shutdown report hostage.
func waitEngines(engines []chan struct{}, timeout time.Duration) {
	deadline := time.After(timeout)
	for _, done := range engines {
		select {
		case <-done:
		case <-deadline:
			return
		}
	}
}

// reportAutotune prints one shard controller's shutdown summary: the
// decision ledger and the operating point it converged to.
func reportAutotune(ctl *control.Controller, shard int) {
	base, cur := ctl.Base(), ctl.Current()
	fmt.Fprintf(os.Stderr, "dlserve: autotune: shard %d: %d retunes / %d holds over %d decisions; batch_timeout %v→%v, queue_cap %d→%d, cpu_share %.3f→%.3f\n",
		shard, ctl.Retunes(), ctl.Holds(), ctl.Decisions(),
		base.BatchTimeout, cur.BatchTimeout, base.QueueCap, cur.QueueCap, base.CPUShare, cur.CPUShare)
}

// reportShards prints each shard's event log and degradation summary.
func reportShards(fl *fleet.Fleet) {
	for _, s := range fl.Shards() {
		b := s.Booster()
		for _, e := range b.Events() {
			fmt.Fprintf(os.Stderr, "dlserve: shard %d: %s: %s\n", s.ID(), e.Name, e.Detail)
		}
		if b.Degraded() {
			fmt.Fprintf(os.Stderr, "dlserve: shard %d served %d images on the CPU fallback path (%d stolen away, %d retries, %d command timeouts)\n",
				s.ID(), b.FallbackDecodes(), s.StolenOut(), b.Retries(), b.CmdTimeouts())
		}
	}
	if st := fl.Steals(); st > 0 {
		fmt.Fprintf(os.Stderr, "dlserve: work stealer moved %d queued requests off degraded shards\n", st)
	}
}

// serveTelemetry exposes the fleet rollup over HTTP: /metrics is the
// fleet-total Prometheus exposition, /metrics.json the full
// FleetSnapshot (per-shard snapshots plus totals), /history.json the
// merged fleet telemetry ring (404 without -history, so scrapers can
// tell "off" from "empty"), /trace.json a Chrome trace timeline with
// one process track per shard. With pprofOn, net/http/pprof mounts
// under /debug/pprof/ — the profiling workflow docs/METRICS.md
// describes (CPU: curl /debug/pprof/profile?seconds=10; heap:
// /debug/pprof/heap).
func serveTelemetry(addr string, fl *fleet.Fleet, histOn, pprofOn bool) error {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, data []byte, err error) {
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = fl.Snapshot().Total.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		data, err := fl.Snapshot().JSON()
		writeJSON(w, data, err)
	})
	mux.HandleFunc("/history.json", func(w http.ResponseWriter, _ *http.Request) {
		if !histOn {
			http.Error(w, "windowed telemetry is off; start the server with -history or -slo", http.StatusNotFound)
			return
		}
		// Merged per request: shard rings roll up the way snapshots do.
		data, err := fl.History().JSON()
		writeJSON(w, data, err)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = fl.Snapshot().WriteChromeTrace(w)
	})
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("dlserve: telemetry on http://%s/metrics\n", ln.Addr())
	go func() { _ = http.Serve(ln, mux) }()
	return nil
}

// writeTrace renders the fleet's recent spans and events as a Chrome
// trace timeline, one process track per shard, and writes it atomically.
func writeTrace(path string, fl *fleet.Fleet) {
	var buf bytes.Buffer
	if err := fl.Snapshot().WriteChromeTrace(&buf); err != nil {
		fmt.Fprintf(os.Stderr, "dlserve: trace export: %v\n", err)
		return
	}
	if err := metrics.WriteFileAtomic(path, buf.Bytes()); err != nil {
		fmt.Fprintf(os.Stderr, "dlserve: writing %s: %v\n", path, err)
		return
	}
	fmt.Fprintf(os.Stderr, "dlserve: wrote trace timeline to %s\n", path)
}
