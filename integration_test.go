package dlbooster

// Cross-layer integration tests: the full functional stack (disk → FPGA
// decode → HugePage batches → Dispatcher → GPU engines) driven end to
// end, including the online-inference workflow over a real TCP socket —
// the complete Figure 1 loop of the paper.

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"dlbooster/internal/audio"
	"dlbooster/internal/backends"
	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/engine"
	"dlbooster/internal/fpga"
	"dlbooster/internal/gpu"
	"dlbooster/internal/lmdb"
	"dlbooster/internal/metrics"
	"dlbooster/internal/nvme"
	"dlbooster/internal/perf"
	"dlbooster/internal/queue"
)

// TestEndToEndTrainingAcrossBackends trains the same corpus through all
// four backends on two GPUs and requires identical training digests —
// the full-stack form of the paper's §4.2 interchangeability claim.
func TestEndToEndTrainingAcrossBackends(t *testing.T) {
	const (
		images = 64
		batch  = 16
		edge   = 28
		gpus   = 2
	)
	spec := dataset.MNISTLike(images)
	disk := nvme.New(nvme.Config{})
	if _, err := spec.WriteToNVMe(disk); err != nil {
		t.Fatal(err)
	}
	db := lmdb.New()
	if err := dataset.ConvertToLMDB(spec, db, edge, edge); err != nil {
		t.Fatal(err)
	}
	nvDev, err := gpu.NewDevice(9, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	defer nvDev.Close()

	cfg := core.Config{BatchSize: batch, OutW: edge, OutH: edge, Channels: 1, PoolBatches: 4, Source: disk}
	builders := map[string]func() (*core.Booster, error){
		"dlbooster": func() (*core.Booster, error) {
			boards := cfg
			boards.FPGADevices = 2
			return core.New(boards)
		},
		"cpu":    func() (*core.Booster, error) { return backends.NewCPU(cfg, backends.CPUConfig{Workers: 2}) },
		"lmdb":   func() (*core.Booster, error) { return backends.NewLMDB(cfg, backends.LMDBConfig{DB: db}) },
		"nvjpeg": func() (*core.Booster, error) { return backends.NewNvJPEG(cfg, backends.NvJPEGConfig{Device: nvDev}) },
	}
	digests := map[string]uint64{}
	for name, build := range builders {
		backend, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		solvers := make([]*core.Solver, gpus)
		devs := make([]*gpu.Device, gpus)
		for g := range solvers {
			devs[g], err = gpu.NewDevice(g, 1<<26)
			if err != nil {
				t.Fatal(err)
			}
			solvers[g], err = core.NewSolver(devs[g], 2, batch*edge*edge)
			if err != nil {
				t.Fatal(err)
			}
		}
		disp, err := core.NewDispatcher(backend.Batches(), backend.RecycleBatch, solvers, core.DispatcherConfig{})
		if err != nil {
			t.Fatal(err)
		}
		trainer, err := engine.NewTrainer(engine.TrainerConfig{Profile: perf.LeNet5, Solvers: solvers})
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 2)
		go func() { errc <- disp.Run() }()
		go func() {
			col, err := core.LoadFromDisk(disk, func(string, int) int { return 0 })
			if err != nil {
				errc <- err
				return
			}
			if err := backend.RunEpoch(col); err != nil {
				errc <- err
				return
			}
			backend.CloseBatches()
			errc <- nil
		}()
		st, err := trainer.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 2; i++ {
			if err := <-errc; err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if st.Images != images {
			t.Fatalf("%s: trained %d images", name, st.Images)
		}
		digests[name] = st.LossProxy
		backend.Close()
		for _, d := range devs {
			d.Close()
		}
	}
	want := digests["dlbooster"]
	for name, d := range digests {
		if d != want {
			t.Fatalf("digest mismatch: %s=%x dlbooster=%x", name, d, want)
		}
	}
}

// TestEndToEndInferenceOverTCP runs the Figure 1 workflow over a real
// socket: a client sends JPEG frames, the server pipeline decodes on the
// simulated FPGA, infers on the simulated GPU, and returns predictions.
func TestEndToEndInferenceOverTCP(t *testing.T) {
	const (
		batch = 4
		n     = 16
		edge  = 64
	)
	backend, err := core.New(core.Config{
		BatchSize: batch, OutW: edge, OutH: edge, Channels: 3, PoolBatches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	dev, err := gpu.NewDevice(0, 1<<27)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	solver, err := core.NewSolver(dev, 2, batch*edge*edge*3)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := core.NewDispatcher(backend.Batches(), backend.RecycleBatch, []*core.Solver{solver}, core.DispatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	items := queue.New[core.Item](64)
	type pred struct {
		seq, label int
		latency    time.Duration
	}
	preds := make(chan pred, n)
	lat := &metrics.Histogram{}
	inf, err := engine.NewInference(engine.InferenceConfig{
		Profile: perf.GoogLeNet, Solver: solver, Classes: 100, Latency: lat,
		Emit: func(p engine.Prediction) {
			preds <- pred{seq: p.Seq, label: p.Label, latency: p.Latency}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = backend.RunEpoch(core.CollectorFromQueue(items))
		backend.CloseBatches()
	}()
	go func() { _ = disp.Run() }()
	go func() { _, _ = inf.Run() }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Server: read length-prefixed JPEG frames, push items; reply with
	// predictions as they emerge.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() { // reply path
			for p := range preds {
				var buf [16]byte
				binary.BigEndian.PutUint32(buf[0:], uint32(p.seq))
				binary.BigEndian.PutUint32(buf[4:], uint32(p.label))
				binary.BigEndian.PutUint64(buf[8:], uint64(p.latency))
				if _, err := conn.Write(buf[:]); err != nil {
					return
				}
			}
		}()
		seq := 0
		var hdr [4]byte
		for {
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(conn, payload); err != nil {
				return
			}
			if err := items.Push(core.Item{
				Ref:  fpga.DataRef{Inline: payload},
				Meta: core.ItemMeta{Seq: seq, ReceivedAt: time.Now()},
			}); err != nil {
				return
			}
			seq++
		}
	}()

	// Client.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	spec := dataset.ILSVRCLike(n)
	go func() {
		var hdr [4]byte
		for i := 0; i < n; i++ {
			data, err := spec.JPEG(i)
			if err != nil {
				t.Errorf("encode: %v", err)
				return
			}
			binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
			if _, err := conn.Write(hdr[:]); err != nil {
				return
			}
			if _, err := conn.Write(data); err != nil {
				return
			}
		}
	}()
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	seen := map[int]bool{}
	var resp [16]byte
	for len(seen) < n {
		if _, err := io.ReadFull(conn, resp[:]); err != nil {
			t.Fatalf("after %d predictions: %v", len(seen), err)
		}
		seq := int(binary.BigEndian.Uint32(resp[0:]))
		label := int(binary.BigEndian.Uint32(resp[4:]))
		latency := time.Duration(binary.BigEndian.Uint64(resp[8:]))
		if seen[seq] {
			t.Fatalf("duplicate prediction for %d", seq)
		}
		seen[seq] = true
		if label < 0 || label >= 100 {
			t.Fatalf("label %d out of range", label)
		}
		if latency <= 0 || latency > time.Minute {
			t.Fatalf("implausible latency %v", latency)
		}
	}
	if lat.Summarize().Count != n {
		t.Fatalf("latency samples = %d", lat.Summarize().Count)
	}
	items.Close()
}

// TestMirrorSwapEndToEnd runs the speech workload through the identical
// backend pipeline by loading a different decoder image (§3.1).
func TestMirrorSwapEndToEnd(t *testing.T) {
	const clips = 6
	b, err := core.New(core.Config{
		BatchSize: 3, OutW: 32, OutH: 32, Channels: 1, PoolBatches: 2,
		Mirror: "speech",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	items := make([]core.Item, clips)
	for i := range items {
		wav, err := audio.EncodeWAV(audio.Synth(int64(i), 16000, 32000))
		if err != nil {
			t.Fatal(err)
		}
		items[i] = core.Item{Ref: fpga.DataRef{Inline: wav}, Meta: core.ItemMeta{Seq: i}}
	}
	done := make(chan int, 1)
	go func() {
		total := 0
		for {
			batch, err := b.Batches().Pop()
			if err != nil {
				done <- total
				return
			}
			total += batch.ValidCount()
			_ = b.RecycleBatch(batch)
		}
	}()
	if err := b.RunEpoch(core.CollectorFromItems(items)); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	if got := <-done; got != clips {
		t.Fatalf("decoded %d clips, want %d", got, clips)
	}
}
