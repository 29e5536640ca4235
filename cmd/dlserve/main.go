// Command dlserve demonstrates the online-inference workflow of paper
// Figure 1 over real TCP: clients send JPEG frames, the server decodes
// them through the DLBooster pipeline (on its decoder boards, or with
// -backend cpu on the host CPU), runs the batch inference engine on a
// simulated GPU, and returns per-image predictions with
// receipt-to-prediction latency.
//
// Server:  dlserve -listen :7878 -backend dlbooster -batch 8
// Client:  dlserve -connect 127.0.0.1:7878 -n 64
//
// Wire protocol, both directions big-endian:
//
//	request:  uint32 payloadLen | payload (one JPEG)
//	response: uint32 seq | uint32 status | uint32 label | uint32 shard | uint64 latencyNanos
//
// Every request gets exactly one response. Status 0 (ok) carries a
// prediction; status 1 (shed) means admission control refused the
// request because the ingest queue stayed full past its grace period
// (label and latency are zero); status 2 (bad frame) reports a
// malformed request header — zero or oversized length — after which
// the server closes the connection. shard names the pipeline shard
// that served (or shed) the request — always 0 on a single-shard
// server — so a client can attribute sheds and latency per shard.
//
// The server is always a fleet (server.go): -shards N independent
// Booster shards — each with its own decoder boards, HugePage arena,
// batch engine and admission control — behind the internal/fleet
// router, the default -shards 1 being a fleet of one. Requests place
// by least-loaded queue or consistent client hash, a shard whose
// boards degrade to CPU is rung off the hash ring, and the work
// stealer drains its backlog into healthy shards.
//
// Batching is dynamic: a partial batch is sealed once its oldest
// request has waited -batch-timeout, so any request count gets its
// predictions without waiting for a full batch or server shutdown.
// Each shard's ingest is bounded by -queue; an overloaded server sheds
// with status frames instead of queueing without bound.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/engine"
	"dlbooster/internal/faults"
	"dlbooster/internal/fleet"
	"dlbooster/internal/fpga"
)

const maxFrame = 32 << 20

// respLen is the response frame size: seq, status, label, shard,
// latencyNanos.
const respLen = 24

// Response status codes (the uint32 after seq in every response frame).
const (
	statusOK       = 0 // prediction follows in label/latency
	statusShed     = 1 // admission control refused the request
	statusBadFrame = 2 // malformed request header; connection closes
)

func main() {
	listen := flag.String("listen", "", "serve on this address (server mode)")
	connect := flag.String("connect", "", "send to this address (client mode)")
	backendName := flag.String("backend", "dlbooster", "server backend: dlbooster, or cpu — the same pipeline with every decode offloaded to the host CPU, GOMAXPROCS host decode lanes per shard")
	batch := flag.Int("batch", 8, "server batch size")
	shards := flag.Int("shards", 1, "server: number of independent pipeline shards (1 = a fleet of one)")
	placement := flag.String("placement", "least-loaded", "server: shard placement policy with -shards > 1: least-loaded or hash (consistent hash of the client id)")
	batchTimeout := flag.Duration("batch-timeout", 5*time.Millisecond, "server: seal a partial batch once its oldest request has waited this long (0 = strict batches)")
	queueCap := flag.Int("queue", 256, "server: per-shard ingest queue capacity; requests beyond it are shed with status frames")
	n := flag.Int("n", 64, "client: number of images to send")
	wait := flag.Duration("wait", 0, "client: give up on outstanding responses this long after the last send (0 = wait forever)")
	size := flag.Int("size", 224, "server decoder output edge")
	pace := flag.Bool("pace", false, "server: pace GPU compute at the calibrated GoogLeNet rate")
	faultFPGA := flag.String("fault-fpga", "", "server: inject decoder faults, e.g. fail-rate=0.3,seed=7 or stuck-after=64 (keys: "+strings.Join(faults.SpecKeys(), " ")+")")
	decodeRetries := flag.Int("decode-retries", 0, "server: resubmit a failed decode command up to N times")
	cmdTimeout := flag.Duration("cmd-timeout", 0, "server: per-command decode timeout (0 = wait forever)")
	fallbackAfter := flag.Int("fallback-after", 0, "server: reroute decoding to the CPU after N consecutive FPGA failures (0 = never)")
	metricsAddr := flag.String("metrics-addr", "", "server: serve telemetry on this address — /metrics (Prometheus text), /metrics.json (snapshot) and /history.json (windowed telemetry ring when -history is on)")
	history := flag.Duration("history", 0, "server: sample windowed telemetry at this interval into a bounded history ring (0 = off; enabled at 1s automatically by -slo)")
	historySamples := flag.Int("history-samples", 0, "server: history ring capacity in samples (0 = default 120)")
	sloSpec := flag.String("slo", "", "server: judge this SLO spec over the telemetry window at shutdown, e.g. tput=900,p99ms=250,shed=0.001,window=60s (keys: tput p99ms stage shed window)")
	autotuneSpec := flag.String("autotune", "", "server: run the adaptive SLO autotuner against this spec (same keys as -slo), actuating each shard's batch-timeout, CPU-offload and admission knobs each sampling interval; dlbooster backend only, implies -history")
	pprofOn := flag.Bool("pprof", false, "server: mount net/http/pprof under /debug/pprof/ on the -metrics-addr mux")
	traceFile := flag.String("trace-file", "", "server: write a Chrome trace_event timeline (Perfetto-loadable) to this file on shutdown; also serves /trace.json when -metrics-addr is set")
	flightDir := flag.String("flight-dir", "", "server: enable the flight recorder, dumping its rings into this directory on degradation, wedged-device faults, backend errors and shutdown")
	cacheMB := flag.Int("cache-mb", 0, "server: RAM tier of the decoded-tensor ReplayCache in MiB (0 = no cache); the tiers are shared across shards")
	cacheSpillMB := flag.Int("cache-spill-mb", 0, "server: NVMe spill tier of the ReplayCache in MiB (0 = RAM tier only)")
	cacheCompress := flag.Bool("cache-compress", false, "server: flate-compress tensors spilled to the NVMe tier")
	flag.Parse()

	var err error
	switch {
	case *listen != "":
		err = serve(serveConfig{
			addr: *listen, backend: *backendName, batch: *batch, size: *size,
			shards: *shards, placement: *placement,
			batchTimeout: *batchTimeout, queueCap: *queueCap,
			pace: *pace, faultFPGA: *faultFPGA,
			res: core.Resilience{
				MaxRetries:    *decodeRetries,
				CmdTimeout:    *cmdTimeout,
				FallbackAfter: *fallbackAfter,
			},
			metricsAddr:    *metricsAddr,
			historyEvery:   *history,
			historySamples: *historySamples,
			sloSpec:        *sloSpec,
			autotuneSpec:   *autotuneSpec,
			pprof:          *pprofOn,
			traceFile:      *traceFile,
			flightDir:      *flightDir,
			cacheMB:        *cacheMB,
			cacheSpillMB:   *cacheSpillMB,
			cacheCompress:  *cacheCompress,
		})
	case *connect != "":
		err = client(*connect, *n, *wait)
	default:
		err = fmt.Errorf("pass -listen (server) or -connect (client)")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlserve: %v\n", err)
		os.Exit(1)
	}
}

// conns routes predictions back to their connection.
type conns struct {
	mu     sync.Mutex
	byID   map[int]net.Conn
	nextID int
}

func (c *conns) add(nc net.Conn) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	c.byID[c.nextID] = nc
	return c.nextID
}

func (c *conns) remove(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.byID, id)
}

// emit returns the prediction callback for one shard's engine: every
// response frame names the shard that served it.
func (c *conns) emit(shard int) func(engine.Prediction) {
	return func(p engine.Prediction) {
		c.write(p.ClientID, p.Seq, statusOK, p.Label, shard, p.Latency)
	}
}

// sendStatus writes a non-OK response frame (shed, bad frame) for one
// request, so the client always hears back before anything closes.
func (c *conns) sendStatus(id, seq int, status uint32, shard int) {
	c.write(id, seq, status, 0, shard, 0)
}

func (c *conns) write(id, seq int, status uint32, label, shard int, latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nc := c.byID[id]
	if nc == nil {
		return
	}
	var buf [respLen]byte
	binary.BigEndian.PutUint32(buf[0:], uint32(seq))
	binary.BigEndian.PutUint32(buf[4:], status)
	binary.BigEndian.PutUint32(buf[8:], uint32(label))
	binary.BigEndian.PutUint32(buf[12:], uint32(shard))
	binary.BigEndian.PutUint64(buf[16:], uint64(latency))
	_, _ = nc.Write(buf[:])
}

// closeAll drops every live connection so handler goroutines blocked in
// reads unwind at shutdown.
func (c *conns) closeAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, nc := range c.byID {
		_ = nc.Close()
	}
}

// handleConn reads one connection's request frames and submits each to
// the fleet, keying consistent-hash placement by the connection id so
// one client's frames keep shard affinity while the ring is stable.
func handleConn(nc net.Conn, cs *conns, fl *fleet.Fleet) {
	id := cs.add(nc)
	defer func() {
		cs.remove(id)
		_ = nc.Close()
	}()
	seq := 0
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(nc, hdr[:]); err != nil {
			return
		}
		length := binary.BigEndian.Uint32(hdr[:])
		if length == 0 || length > maxFrame {
			// Tell the client why before closing: a status frame beats
			// a silent close when debugging a protocol mismatch.
			fmt.Fprintf(os.Stderr, "dlserve: conn %d: bad frame length %d (max %d), closing\n", id, length, maxFrame)
			cs.sendStatus(id, seq, statusBadFrame, 0)
			return
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(nc, payload); err != nil {
			return
		}
		item := core.Item{
			Ref:  fpga.DataRef{Inline: payload},
			Meta: core.ItemMeta{ClientID: id, Seq: seq, ReceivedAt: time.Now()},
		}
		shard, adm := fl.Submit(item, uint64(id))
		switch adm {
		case fleet.AdmitShed:
			cs.sendStatus(id, seq, statusShed, shard)
		case fleet.AdmitClosed:
			// Draining: the refusal is already on the routed shard's shed
			// books; tell the client with a shed status frame before
			// dropping the connection, so it isn't left waiting on a
			// silent close.
			cs.sendStatus(id, seq, statusShed, shard)
			return
		}
		seq++
	}
}

// clientStats is what the reader goroutine tallies from response
// frames; the sender reads it only after joining the reader. Tallies
// are kept per shard — a sharded server interleaves status streams
// from every shard onto the one connection, and attributing a shed to
// the wrong shard would misreport which shard is overloaded.
type clientStats struct {
	ok        int
	shed      int
	latencies []float64
	shards    map[int]*shardTally
}

type shardTally struct {
	ok, shed  int
	latencies []float64
}

func (st *clientStats) tally(shard int) *shardTally {
	if st.shards == nil {
		st.shards = make(map[int]*shardTally)
	}
	t := st.shards[shard]
	if t == nil {
		t = &shardTally{}
		st.shards[shard] = t
	}
	return t
}

func client(addr string, n int, wait time.Duration) error {
	spec := dataset.ILSVRCLike(minInt(n, 64))
	payloads := make([][]byte, spec.Count)
	for i := range payloads {
		data, err := spec.JPEG(i)
		if err != nil {
			return err
		}
		payloads[i] = data
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()

	var st clientStats
	done := make(chan error, 1)
	go func() {
		var buf [respLen]byte
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(nc, buf[:]); err != nil {
				done <- err
				return
			}
			shard := int(binary.BigEndian.Uint32(buf[12:]))
			switch status := binary.BigEndian.Uint32(buf[4:]); status {
			case statusOK:
				st.ok++
				ms := float64(binary.BigEndian.Uint64(buf[16:])) / 1e6
				st.latencies = append(st.latencies, ms)
				sh := st.tally(shard)
				sh.ok++
				sh.latencies = append(sh.latencies, ms)
			case statusShed:
				st.shed++
				st.tally(shard).shed++
			case statusBadFrame:
				done <- fmt.Errorf("server reported a malformed request frame (seq %d)", binary.BigEndian.Uint32(buf[0:]))
				return
			default:
				done <- fmt.Errorf("unknown response status %d", status)
				return
			}
		}
		done <- nil
	}()

	start := time.Now()
	var sendErr error
	var hdr [4]byte
	for i := 0; i < n && sendErr == nil; i++ {
		p := payloads[i%len(payloads)]
		binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
		if _, err := nc.Write(hdr[:]); err != nil {
			sendErr = err
		} else if _, err := nc.Write(p); err != nil {
			sendErr = err
		}
	}
	// Join the reader on every exit path — a mid-stream send error or a
	// -wait bound sets a read deadline so it cannot be left behind, and
	// the partial stats it gathered still get reported.
	if sendErr != nil {
		_ = nc.SetReadDeadline(time.Now())
	} else if wait > 0 {
		_ = nc.SetReadDeadline(time.Now().Add(wait))
	}
	readErr := <-done
	elapsed := time.Since(start)

	fmt.Printf("sent %d images in %v (%.0f images/s): %d predictions, %d shed\n",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(), st.ok, st.shed)
	if len(st.latencies) > 0 {
		sort.Float64s(st.latencies)
		q := func(p int) float64 { return st.latencies[minInt(len(st.latencies)*p/100, len(st.latencies)-1)] }
		fmt.Printf("server-side receipt→prediction latency: p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
			q(50), q(95), q(99), st.latencies[len(st.latencies)-1])
	}
	// Against a sharded server, break the report down per shard so an
	// overloaded or degraded shard's sheds and latency stand out. A
	// single-shard server answers everything from shard 0 and keeps
	// the classic report.
	ids := make([]int, 0, len(st.shards))
	for id := range st.shards {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) > 1 || (len(ids) == 1 && ids[0] != 0) {
		for _, id := range ids {
			sh := st.shards[id]
			line := fmt.Sprintf("  shard %d: %d predictions, %d shed", id, sh.ok, sh.shed)
			if len(sh.latencies) > 0 {
				sort.Float64s(sh.latencies)
				p50 := sh.latencies[minInt(len(sh.latencies)/2, len(sh.latencies)-1)]
				p95 := sh.latencies[minInt(len(sh.latencies)*95/100, len(sh.latencies)-1)]
				line += fmt.Sprintf(", p50=%.2fms p95=%.2fms", p50, p95)
			}
			fmt.Println(line)
		}
	}
	if sendErr != nil {
		return fmt.Errorf("send: %w (%d of %d responses received)", sendErr, st.ok+st.shed, n)
	}
	if readErr != nil {
		if wait > 0 && errors.Is(readErr, os.ErrDeadlineExceeded) {
			fmt.Printf("gave up after %v with %d of %d responses outstanding\n", wait, n-st.ok-st.shed, n)
			return nil
		}
		return readErr
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
