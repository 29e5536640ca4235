package dlbooster

// Exec-level smoke tests: build each command once and drive its primary
// flow, so flag wiring and main-package glue stay working.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildCmds compiles every command into a temp dir once per test run.
func buildCmds(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"dlbench", "dlgen", "dltrain", "dlserve"} {
		bin := filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}
	return bins
}

// buildCmd compiles a single command, for tests that only need one
// binary (the CI flaky-guard runs these under -race -count=3).
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// startServe launches a dlserve server and returns its binary path and
// combined output buffer; the server is killed at test cleanup.
func startServe(t *testing.T, bin string, args ...string) *bytes.Buffer {
	t.Helper()
	srv := exec.Command(bin, args...)
	var srvOut bytes.Buffer
	srv.Stdout, srv.Stderr = &srvOut, &srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = srv.Process.Kill()
		_, _ = srv.Process.Wait()
	})
	return &srvOut
}

// runClient retries a dlserve client until the server is listening.
func runClient(t *testing.T, bin string, srvOut *bytes.Buffer, args ...string) string {
	t.Helper()
	var out []byte
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		out, err = exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			return string(out)
		}
	}
	t.Fatalf("client: %v\n%s\nserver:\n%s", err, out, srvOut.String())
	return ""
}

// fleetRollup is the part of dlserve's /metrics.json the exec tests
// read: per-shard counters plus the fleet totals.
type fleetRollup struct {
	Shards []struct {
		Counters map[string]int64 `json:"counters"`
	} `json:"shards"`
	Total struct {
		Counters map[string]int64 `json:"counters"`
	} `json:"total"`
}

// httpGet returns the body of a telemetry endpoint.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return body
}

// getRollup fetches and decodes /metrics.json from a telemetry address.
func getRollup(t *testing.T, addr string) fleetRollup {
	t.Helper()
	body := httpGet(t, "http://"+addr+"/metrics.json")
	var snap fleetRollup
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics.json: %v\n%s", err, body)
	}
	return snap
}

// TestServePartialBatch is the ISSUE-4 acceptance scenario: 5 images
// into a -batch 8 server must yield 5 predictions via the deadline
// flush — no full batch ever forms and the server never shuts down.
func TestServePartialBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("exec test in -short mode")
	}
	bin := buildCmd(t, "dlserve")
	srvOut := startServe(t, bin,
		"-listen", "127.0.0.1:39474", "-batch", "8", "-batch-timeout", "50ms", "-size", "64")
	out := runClient(t, bin, srvOut, "-connect", "127.0.0.1:39474", "-n", "5")
	if !strings.Contains(out, "5 predictions, 0 shed") {
		t.Fatalf("client output:\n%s\nserver:\n%s", out, srvOut.String())
	}
	if !strings.Contains(out, "receipt→prediction latency") {
		t.Fatalf("no latency stats:\n%s", out)
	}
}

// TestServeOverload wedges the decoder so the pipeline absorbs almost
// nothing: a tiny ingest queue must shed the flood with status frames
// (bounded memory) instead of blocking ingest, and the client's -wait
// bound must turn the never-arriving predictions into a clean exit.
func TestServeOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("exec test in -short mode")
	}
	bin := buildCmd(t, "dlserve")
	srvOut := startServe(t, bin,
		"-listen", "127.0.0.1:39475", "-batch", "4", "-size", "64",
		"-queue", "2", "-batch-timeout", "5ms", "-fault-fpga", "stuck-after=1")
	out := runClient(t, bin, srvOut,
		"-connect", "127.0.0.1:39475", "-n", "160", "-wait", "2s")
	m := regexp.MustCompile(`(\d+) shed`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no shed count in client output:\n%s\nserver:\n%s", out, srvOut.String())
	}
	if shed, _ := strconv.Atoi(m[1]); shed == 0 {
		t.Fatalf("overloaded server shed nothing:\n%s\nserver:\n%s", out, srvOut.String())
	}
}

// TestServeShards is the ISSUE-6 acceptance scenario: a closed-loop
// client over a 2-shard server with a request count no batch divides
// evenly must get every prediction back (deadline flush per shard), and
// /metrics.json must serve the fleet rollup — per-shard snapshots plus
// counter totals — with /trace.json carrying one process track per
// shard.
func TestServeShards(t *testing.T) {
	if testing.Short() {
		t.Skip("exec test in -short mode")
	}
	bin := buildCmd(t, "dlserve")
	srvOut := startServe(t, bin,
		"-listen", "127.0.0.1:39476", "-shards", "2", "-batch", "8",
		"-batch-timeout", "50ms", "-size", "64",
		"-metrics-addr", "127.0.0.1:39477")
	out := runClient(t, bin, srvOut, "-connect", "127.0.0.1:39476", "-n", "13")
	if !strings.Contains(out, "13 predictions, 0 shed") {
		t.Fatalf("client output:\n%s\nserver:\n%s", out, srvOut.String())
	}
	if !strings.Contains(out, "receipt→prediction latency") {
		t.Fatalf("no latency stats:\n%s", out)
	}

	// The fleet rollup: per-shard snapshots plus totals that conserve
	// the counters.
	snap := getRollup(t, "127.0.0.1:39477")
	if len(snap.Shards) != 2 {
		t.Fatalf("fleet snapshot has %d shards: %+v", len(snap.Shards), snap)
	}
	if got := snap.Total.Counters["images_decoded_total"]; got != 13 {
		t.Fatalf("fleet total images_decoded_total = %d, want 13: %+v", got, snap)
	}
	var sum int64
	for _, s := range snap.Shards {
		sum += s.Counters["images_decoded_total"]
	}
	if sum != snap.Total.Counters["images_decoded_total"] {
		t.Fatalf("rollup total %d != shard sum %d", snap.Total.Counters["images_decoded_total"], sum)
	}

	// Per-shard process tracks in the trace timeline.
	trace := httpGet(t, "http://127.0.0.1:39477/trace.json")
	for _, track := range []string{`"shard 0"`, `"shard 1"`} {
		if !bytes.Contains(trace, []byte(track)) {
			t.Fatalf("/trace.json missing %s track:\n%.400s", track, trace)
		}
	}
}

// TestServeCPUBackend drives -backend cpu across two shards: the cpu
// backend is the same fleet with every decode offloaded to the host
// CPU, so every prediction must arrive and the rollup must count each
// image as an offload decode.
func TestServeCPUBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("exec test in -short mode")
	}
	bin := buildCmd(t, "dlserve")
	srvOut := startServe(t, bin,
		"-listen", "127.0.0.1:39481", "-backend", "cpu", "-shards", "2",
		"-batch", "4", "-batch-timeout", "50ms", "-size", "64",
		"-metrics-addr", "127.0.0.1:39482")
	out := runClient(t, bin, srvOut, "-connect", "127.0.0.1:39481", "-n", "21")
	if !strings.Contains(out, "21 predictions, 0 shed") {
		t.Fatalf("client output:\n%s\nserver:\n%s", out, srvOut.String())
	}
	snap := getRollup(t, "127.0.0.1:39482")
	if len(snap.Shards) != 2 {
		t.Fatalf("fleet snapshot has %d shards: %+v", len(snap.Shards), snap)
	}
	if got := snap.Total.Counters["offload_decodes_total"]; got != 21 {
		t.Fatalf("fleet total offload_decodes_total = %d, want all 21 images: %+v", got, snap)
	}
}

// TestServeHistorySLO is the ISSUE-8 acceptance scenario: a dlserve
// run with windowed telemetry on must serve the sampled history ring at
// /history.json, and the shutdown report must include the doctor's
// verdict and the SLO scorecard judged over the window.
func TestServeHistorySLO(t *testing.T) {
	if testing.Short() {
		t.Skip("exec test in -short mode")
	}
	bin := buildCmd(t, "dlserve")
	srv := exec.Command(bin,
		"-listen", "127.0.0.1:39478", "-batch", "4", "-size", "64",
		"-history", "25ms", "-history-samples", "2000", "-slo", "tput=0.1,shed=0.5",
		"-metrics-addr", "127.0.0.1:39479")
	var srvOut bytes.Buffer
	srv.Stdout, srv.Stderr = &srvOut, &srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = srv.Process.Kill()
		_, _ = srv.Process.Wait()
	}()
	out := runClient(t, bin, &srvOut, "-connect", "127.0.0.1:39478", "-n", "16")
	if !strings.Contains(out, "16 predictions, 0 shed") {
		t.Fatalf("client output:\n%s\nserver:\n%s", out, srvOut.String())
	}

	// The ring has had time to collect several 25ms samples by the time
	// the client round trip finished; /history.json serves the dump.
	var dump struct {
		Capacity int `json:"capacity"`
		Recorded int `json:"recorded"`
		Samples  []struct {
			Delta struct {
				Counters map[string]int64 `json:"counters"`
			} `json:"delta"`
		} `json:"samples"`
	}
	// The ring lags decode completion by up to one sampling interval, so
	// poll until the interval deltas account for every decoded image.
	var decoded int64
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://127.0.0.1:39479/history.json")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := json.Unmarshal(body, &dump); err != nil {
				t.Fatalf("/history.json: %v\n%s", err, body)
			}
			decoded = 0
			for _, s := range dump.Samples {
				decoded += s.Delta.Counters["images_decoded_total"]
			}
			if len(dump.Samples) >= 3 && decoded == 16 {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(dump.Samples) < 3 || dump.Recorded < 3 {
		t.Fatalf("history ring has %d samples (%d recorded)\nserver:\n%s",
			len(dump.Samples), dump.Recorded, srvOut.String())
	}
	if decoded != 16 {
		t.Fatalf("history deltas sum to %d decoded images, want 16", decoded)
	}

	// A single-shard server is a fleet of one and serves the same
	// rollup shape: one shard entry whose counters are the total, one
	// "shard 0" process track in the timeline.
	snap := getRollup(t, "127.0.0.1:39479")
	if len(snap.Shards) != 1 {
		t.Fatalf("fleet-of-one snapshot has %d shards: %+v", len(snap.Shards), snap)
	}
	if got, want := snap.Total.Counters["images_decoded_total"], snap.Shards[0].Counters["images_decoded_total"]; got != want || got != 16 {
		t.Fatalf("total images_decoded_total = %d, shard 0 = %d, want both 16", got, want)
	}
	if trace := httpGet(t, "http://127.0.0.1:39479/trace.json"); !bytes.Contains(trace, []byte(`"shard 0"`)) {
		t.Fatalf("/trace.json missing the shard 0 track:\n%.400s", trace)
	}

	// Shutdown: the drain report includes the doctor's verdict and the
	// scorecard (16 images at any rate beats tput=0.1, nothing shed).
	// Join the process before reading the buffer — exec's output copier
	// writes into srvOut until the child exits.
	if err := srv.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if s, ok := waitOutput(t, srv, &srvOut); ok {
		if strings.Contains(s, "SLO") && strings.Contains(s, "dlserve: doctor verdict:") {
			if !strings.Contains(s, "MET") {
				t.Fatalf("scorecard not MET:\n%s", s)
			}
			return
		}
	}
	t.Fatalf("shutdown report lacks doctor verdict + scorecard:\n%s", srvOut.String())
}

// TestServeAutotune is the ISSUE-9 acceptance scenario: a dlserve run
// with the adaptive autotuner on must serve normally, and the shutdown
// report must include the controller's decision ledger and knob
// trajectory.
func TestServeAutotune(t *testing.T) {
	if testing.Short() {
		t.Skip("exec test in -short mode")
	}
	bin := buildCmd(t, "dlserve")
	srv := exec.Command(bin,
		"-listen", "127.0.0.1:39480", "-batch", "4", "-size", "64",
		"-batch-timeout", "50ms", "-queue", "64",
		"-history", "25ms", "-autotune", "tput=0.1,window=1s")
	var srvOut bytes.Buffer
	srv.Stdout, srv.Stderr = &srvOut, &srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = srv.Process.Kill()
		_, _ = srv.Process.Wait()
	}()
	out := runClient(t, bin, &srvOut, "-connect", "127.0.0.1:39480", "-n", "16")
	if !strings.Contains(out, "16 predictions, 0 shed") {
		t.Fatalf("client output:\n%s", out)
	}
	// Shutdown, then read the full transcript: the startup banner names
	// the steering target, and the drain report includes the decision
	// ledger with the knob trajectory.
	if err := srv.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	s, ok := waitOutput(t, srv, &srvOut)
	if !ok {
		t.Fatalf("server did not exit after SIGINT:\n%s", s)
	}
	if !strings.Contains(s, "autotune steering toward") {
		t.Fatalf("no autotune banner:\n%s", s)
	}
	if !strings.Contains(s, "autotune:") || !strings.Contains(s, "decisions") ||
		!strings.Contains(s, "batch_timeout") {
		t.Fatalf("shutdown report lacks the autotune ledger:\n%s", s)
	}
}

// waitOutput joins the server process after a shutdown signal — exec's
// output copier writes into buf until the child exits, so reading the
// buffer before Wait races with it — and returns the full transcript.
// ok is false when the process outlived the drain deadline.
func waitOutput(t *testing.T, srv *exec.Cmd, buf *bytes.Buffer) (string, bool) {
	t.Helper()
	done := make(chan struct{})
	go func() { _ = srv.Wait(); close(done) }()
	select {
	case <-done:
		return buf.String(), true
	case <-time.After(15 * time.Second):
		_ = srv.Process.Kill()
		<-done
		return buf.String(), false
	}
}

func TestCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("exec smoke tests in -short mode")
	}
	bins := buildCmds(t)

	t.Run("dlbench", func(t *testing.T) {
		out, err := exec.Command(bins["dlbench"], "-fig", "econ").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "cores replaced per FPGA") {
			t.Fatalf("unexpected output:\n%s", out)
		}
		out, err = exec.Command(bins["dlbench"], "-list").CombinedOutput()
		if err != nil || !strings.Contains(string(out), "fig7a") {
			t.Fatalf("dlbench -list: %v\n%s", err, out)
		}
		if out, err := exec.Command(bins["dlbench"], "-fig", "nope").CombinedOutput(); err == nil {
			t.Fatalf("unknown figure accepted:\n%s", out)
		}
	})

	t.Run("dlgen", func(t *testing.T) {
		dir := t.TempDir()
		lmdbPath := filepath.Join(dir, "snap.lmdb")
		out, err := exec.Command(bins["dlgen"],
			"-kind", "mnist", "-count", "6",
			"-out", filepath.Join(dir, "jpgs"),
			"-lmdb", lmdbPath, "-outw", "28", "-outh", "28").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		files, err := os.ReadDir(filepath.Join(dir, "jpgs"))
		if err != nil || len(files) != 6 {
			t.Fatalf("jpgs: %v, %d files", err, len(files))
		}
		if fi, err := os.Stat(lmdbPath); err != nil || fi.Size() == 0 {
			t.Fatalf("lmdb snapshot: %v", err)
		}
		if out, err := exec.Command(bins["dlgen"], "-kind", "bogus").CombinedOutput(); err == nil {
			t.Fatalf("bogus kind accepted:\n%s", out)
		}
	})

	t.Run("dltrain", func(t *testing.T) {
		out, err := exec.Command(bins["dltrain"],
			"-backend", "dlbooster", "-images", "64", "-batch", "16",
			"-gpus", "2", "-epochs", "2").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		s := string(out)
		if !strings.Contains(s, "hybrid mode") {
			t.Fatalf("epoch 2 did not use the cache:\n%s", s)
		}
		if !strings.Contains(s, "images trained:    128") {
			t.Fatalf("wrong image count:\n%s", s)
		}
	})

	t.Run("dlserve", func(t *testing.T) {
		// Server in background on a fixed local port, then the client.
		srv := exec.Command(bins["dlserve"], "-listen", "127.0.0.1:39471", "-batch", "4", "-size", "64")
		var srvOut bytes.Buffer
		srv.Stdout, srv.Stderr = &srvOut, &srvOut
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			_ = srv.Process.Kill()
			_, _ = srv.Process.Wait()
		}()
		// The client retries until the server listens.
		var out []byte
		var err error
		for attempt := 0; attempt < 50; attempt++ {
			out, err = exec.Command(bins["dlserve"], "-connect", "127.0.0.1:39471", "-n", "16").CombinedOutput()
			if err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("client: %v\n%s\nserver:\n%s", err, out, srvOut.String())
		}
		if !strings.Contains(string(out), "receipt→prediction latency") {
			t.Fatalf("client output:\n%s", out)
		}
	})

	t.Run("dlserve-chaos-flight", func(t *testing.T) {
		// A wedged decoder board under command timeouts: the server must
		// degrade to CPU decode, the flight recorder must dump, and the
		// trace endpoints must serve/flush a Chrome trace timeline.
		flightDir := t.TempDir()
		traceFile := filepath.Join(t.TempDir(), "trace.json")
		srv := exec.Command(bins["dlserve"],
			"-listen", "127.0.0.1:39472", "-batch", "4", "-size", "64",
			"-fault-fpga", "stuck-after=1", "-cmd-timeout", "50ms", "-fallback-after", "2",
			"-flight-dir", flightDir, "-trace-file", traceFile,
			"-metrics-addr", "127.0.0.1:39473")
		var srvOut bytes.Buffer
		srv.Stdout, srv.Stderr = &srvOut, &srvOut
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			_ = srv.Process.Kill()
			_, _ = srv.Process.Wait()
		}()
		var out []byte
		var err error
		for attempt := 0; attempt < 50; attempt++ {
			out, err = exec.Command(bins["dlserve"], "-connect", "127.0.0.1:39472", "-n", "16").CombinedOutput()
			if err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("client: %v\n%s\nserver:\n%s", err, out, srvOut.String())
		}

		// Degradation must have produced at least one flight dump.
		var dumps []string
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			dumps, _ = filepath.Glob(filepath.Join(flightDir, "flight-*.json"))
			if len(dumps) > 0 {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if len(dumps) == 0 {
			t.Fatalf("no flight dump in %s\nserver:\n%s", flightDir, srvOut.String())
		}
		data, err := os.ReadFile(dumps[0])
		if err != nil || !strings.Contains(string(data), `"reason"`) {
			t.Fatalf("flight dump unreadable: %v\n%s", err, data)
		}

		// /trace.json serves a timeline next to /metrics.json.
		if body := httpGet(t, "http://127.0.0.1:39473/trace.json"); !bytes.Contains(body, []byte("traceEvents")) {
			t.Fatalf("/trace.json:\n%s", body)
		}

		// SIGINT flushes the trace file before exit.
		if err := srv.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		deadline = time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if data, err := os.ReadFile(traceFile); err == nil && strings.Contains(string(data), "traceEvents") {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("trace file never written\nserver:\n%s", srvOut.String())
	})
}
