package fpga

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dlbooster/internal/faults"
	"dlbooster/internal/hugepage"
	"dlbooster/internal/imageproc"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/pix"
)

func testImage(w, h, c int, seed int64) *pix.Image {
	rng := rand.New(rand.NewSource(seed))
	img := pix.New(w, h, c)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base := 40 + (x*160)/w + (y*50)/h
			for ch := 0; ch < c; ch++ {
				img.Set(x, y, ch, byte(base+ch*10+rng.Intn(5)))
			}
		}
	}
	return img
}

func newTestDevice(t *testing.T, cfg Config) (*Device, *hugepage.Pool) {
	t.Helper()
	pool, err := hugepage.NewPool(256*256*3, 16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadMirror("jpeg")
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(cfg, pool.Arena(), nil, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, pool
}

func TestDecodeIntoDMAWindow(t *testing.T) {
	d, pool := newTestDevice(t, DefaultConfig())
	src := testImage(100, 80, 3, 1)
	data, err := jpeg.Encode(src, jpeg.EncodeOptions{Quality: 92})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	cmd := Cmd{
		ID:       7,
		Data:     DataRef{Inline: data},
		DMAAddr:  buf.PhysAddr(),
		OutW:     64,
		OutH:     64,
		Channels: 3,
	}
	if err := d.Submit(cmd); err != nil {
		t.Fatal(err)
	}
	comp, err := d.WaitCompletion()
	if err != nil {
		t.Fatal(err)
	}
	if comp.ID != 7 || comp.Err != nil {
		t.Fatalf("completion = %+v", comp)
	}
	if comp.Bytes != 64*64*3 {
		t.Fatalf("bytes = %d", comp.Bytes)
	}
	// The DMA window must contain the bilinear-resized decode.
	decoded, err := jpeg.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := imageproc.Resize(decoded, 64, 64, imageproc.Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pix.View(64, 64, 3, buf.Bytes()[:64*64*3])
	if err != nil {
		t.Fatal(err)
	}
	if maxd, _ := got.MaxAbsDiff(want); maxd != 0 {
		t.Fatalf("DMA contents differ from reference by %d", maxd)
	}
}

func TestManyCommandsAllComplete(t *testing.T) {
	d, pool := newTestDevice(t, DefaultConfig())
	const n = 64
	// Pre-encode all inputs; the submitter goroutine then only reads.
	payloads := make([][]byte, n)
	for i := 0; i < n; i++ {
		img := testImage(60+i%30, 40+i%20, 3, int64(i))
		data, err := jpeg.Encode(img, jpeg.EncodeOptions{Quality: 85, Subsample420: i%2 == 0})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		payloads[i] = data
	}
	// Each command gets its own DMA window, as the host's slots do: the
	// 64 windows of 32×32×3 fill one buffer exactly.
	buf, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < n; i++ {
			if err := d.Submit(Cmd{ID: uint64(i), Data: DataRef{Inline: payloads[i]}, DMAAddr: buf.PhysAddr(), DMAOff: i * 32 * 32 * 3, OutW: 32, OutH: 32, Channels: 3}); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
		}
	}()
	seen := make(map[uint64]bool)
	for len(seen) < n {
		comp, err := d.WaitCompletion()
		if err != nil {
			t.Fatal(err)
		}
		if comp.Err != nil {
			t.Fatalf("cmd %d failed: %v", comp.ID, comp.Err)
		}
		if seen[comp.ID] {
			t.Fatalf("duplicate completion %d", comp.ID)
		}
		seen[comp.ID] = true
	}
	parser, huff, idct, resize := d.Stats()
	for name, st := range map[string]StageStats{"parser": parser, "huffman": huff, "idct": idct, "resize": resize} {
		if st.Jobs != n {
			t.Fatalf("%s processed %d jobs, want %d", name, st.Jobs, n)
		}
	}
}

func TestCorruptInputRaisesErrorCompletion(t *testing.T) {
	d, pool := newTestDevice(t, DefaultConfig())
	buf, _ := pool.Get()
	cases := []struct {
		name string
		cmd  Cmd
	}{
		{"garbage data", Cmd{ID: 1, Data: DataRef{Inline: []byte{1, 2, 3}}, DMAAddr: buf.PhysAddr(), OutW: 8, OutH: 8, Channels: 3}},
		{"no data source", Cmd{ID: 2, Data: DataRef{Path: "x"}, DMAAddr: buf.PhysAddr(), OutW: 8, OutH: 8, Channels: 3}},
		{"bad channels", Cmd{ID: 3, Data: DataRef{Inline: []byte{1}}, DMAAddr: buf.PhysAddr(), OutW: 8, OutH: 8, Channels: 2}},
		{"zero output", Cmd{ID: 4, Data: DataRef{Inline: []byte{1}}, DMAAddr: buf.PhysAddr(), OutW: 0, OutH: 8, Channels: 3}},
		{"bad DMA", Cmd{ID: 5, Data: DataRef{Inline: []byte{1}}, DMAAddr: 1, OutW: 8, OutH: 8, Channels: 3}},
	}
	for _, tc := range cases {
		if err := d.Submit(tc.cmd); err != nil {
			t.Fatalf("%s: submit: %v", tc.name, err)
		}
		comp, err := d.WaitCompletion()
		if err != nil {
			t.Fatal(err)
		}
		if comp.ID != tc.cmd.ID {
			t.Fatalf("%s: completion for %d, want %d", tc.name, comp.ID, tc.cmd.ID)
		}
		if comp.Err == nil {
			t.Fatalf("%s: no error reported", tc.name)
		}
	}
}

func TestTruncatedJPEGThroughPipeline(t *testing.T) {
	// A stream that parses but dies in the Huffman unit must surface as
	// an error completion from a later stage, not a hang.
	d, pool := newTestDevice(t, DefaultConfig())
	img := testImage(64, 64, 3, 3)
	data, err := jpeg.Encode(img, jpeg.EncodeOptions{Quality: 85})
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := pool.Get()
	trunc := data[:len(data)-len(data)/3]
	if err := d.Submit(Cmd{ID: 9, Data: DataRef{Inline: trunc}, DMAAddr: buf.PhysAddr(), OutW: 16, OutH: 16, Channels: 3}); err != nil {
		t.Fatal(err)
	}
	comp, err := d.WaitCompletion()
	if err != nil {
		t.Fatal(err)
	}
	if comp.Err == nil {
		t.Fatal("truncated stream decoded successfully")
	}
}

func TestChannelMismatchCompletesWithError(t *testing.T) {
	// Grayscale JPEG, command asks for 3 channels: caught at the resize
	// stage boundary.
	d, pool := newTestDevice(t, DefaultConfig())
	img := testImage(32, 32, 1, 4)
	data, err := jpeg.Encode(img, jpeg.EncodeOptions{Quality: 85})
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := pool.Get()
	if err := d.Submit(Cmd{ID: 11, Data: DataRef{Inline: data}, DMAAddr: buf.PhysAddr(), OutW: 16, OutH: 16, Channels: 3}); err != nil {
		t.Fatal(err)
	}
	comp, _ := d.WaitCompletion()
	if comp.Err == nil {
		t.Fatal("channel mismatch not reported")
	}
}

func TestCLBBudgetEnforced(t *testing.T) {
	pool, _ := hugepage.NewPool(1024, 2)
	m, _ := LoadMirror("jpeg")
	// 8-way Huffman exceeds the default fabric (8*5000+8000+2*3000 = 54k).
	_, err := New(Config{HuffmanWays: 8}, pool.Arena(), nil, m)
	if err == nil {
		t.Fatal("over-budget configuration accepted")
	}
	// It fits on a larger fabric.
	d, err := New(Config{HuffmanWays: 8, CLBBudget: 60000}, pool.Arena(), nil, m)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Default config fits the default fabric (the paper's deployment).
	if DefaultConfig().CLBUsage() > DefaultCLBBudget {
		t.Fatal("paper configuration does not fit default fabric")
	}
}

func TestNewRejectsBadArguments(t *testing.T) {
	pool, _ := hugepage.NewPool(1024, 2)
	m, _ := LoadMirror("jpeg")
	if _, err := New(DefaultConfig(), nil, nil, m); err == nil {
		t.Fatal("nil arena accepted")
	}
	if _, err := New(DefaultConfig(), pool.Arena(), nil, nil); err == nil {
		t.Fatal("nil mirror accepted")
	}
	if _, err := New(Config{HuffmanWays: -1}, pool.Arena(), nil, m); err == nil {
		t.Fatal("negative ways accepted")
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	d, pool := newTestDevice(t, DefaultConfig())
	d.Close()
	d.Close() // idempotent
	buf, _ := pool.Get()
	err := d.Submit(Cmd{ID: 1, Data: DataRef{Inline: []byte{1}}, DMAAddr: buf.PhysAddr(), OutW: 1, OutH: 1, Channels: 1})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
	if _, err := d.WaitCompletion(); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitCompletion after Close: %v", err)
	}
}

func TestDrainNonBlocking(t *testing.T) {
	d, pool := newTestDevice(t, DefaultConfig())
	if got := d.Drain(); got != nil {
		t.Fatalf("Drain on idle device = %v", got)
	}
	img := testImage(16, 16, 3, 5)
	data, _ := jpeg.Encode(img, jpeg.EncodeOptions{Quality: 85})
	buf, _ := pool.Get()
	_ = d.Submit(Cmd{ID: 1, Data: DataRef{Inline: data}, DMAAddr: buf.PhysAddr(), OutW: 8, OutH: 8, Channels: 3})
	// Wait for the completion then drain it.
	comp, err := d.WaitCompletion()
	if err != nil || comp.Err != nil {
		t.Fatalf("completion: %v %v", err, comp.Err)
	}
	if got := d.Drain(); len(got) != 0 {
		t.Fatalf("Drain after Wait = %v", got)
	}
}

type fetchSource map[string][]byte

func (f fetchSource) Fetch(ref DataRef) ([]byte, error) {
	b, ok := f[ref.Path]
	if !ok {
		return nil, fmt.Errorf("no object %q", ref.Path)
	}
	if ref.Offset != 0 || (ref.Length != 0 && ref.Length != int64(len(b))) {
		return nil, fmt.Errorf("bad range")
	}
	return b, nil
}

func TestDiskPathViaDataSource(t *testing.T) {
	pool, _ := hugepage.NewPool(64*64*3, 4)
	m, _ := LoadMirror("jpeg")
	img := testImage(48, 48, 3, 6)
	data, _ := jpeg.Encode(img, jpeg.EncodeOptions{Quality: 85})
	src := fetchSource{"train/000.jpg": data}
	d, err := New(DefaultConfig(), pool.Arena(), src, m)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf, _ := pool.Get()
	_ = d.Submit(Cmd{ID: 1, Data: DataRef{Path: "train/000.jpg", Length: int64(len(data))}, DMAAddr: buf.PhysAddr(), OutW: 24, OutH: 24, Channels: 3})
	comp, err := d.WaitCompletion()
	if err != nil || comp.Err != nil {
		t.Fatalf("disk-path completion: %v %v", err, comp.Err)
	}
	_ = d.Submit(Cmd{ID: 2, Data: DataRef{Path: "missing"}, DMAAddr: buf.PhysAddr(), OutW: 24, OutH: 24, Channels: 3})
	comp, _ = d.WaitCompletion()
	if comp.Err == nil {
		t.Fatal("missing object decoded")
	}
}

func TestRawMirror(t *testing.T) {
	pool, _ := hugepage.NewPool(32*32*3, 4)
	m, err := LoadMirror("raw")
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(DefaultConfig(), pool.Arena(), nil, m)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Mirror() != "raw" {
		t.Fatalf("Mirror = %q", d.Mirror())
	}
	img := testImage(20, 10, 3, 7)
	buf, _ := pool.Get()
	_ = d.Submit(Cmd{ID: 1, Data: DataRef{Inline: EncodeRaw(img)}, DMAAddr: buf.PhysAddr(), OutW: 20, OutH: 10, Channels: 3})
	comp, err := d.WaitCompletion()
	if err != nil || comp.Err != nil {
		t.Fatalf("raw completion: %v %v", err, comp.Err)
	}
	got, _ := pix.View(20, 10, 3, buf.Bytes()[:20*10*3])
	if maxd, _ := got.MaxAbsDiff(img); maxd != 0 {
		t.Fatalf("raw passthrough differs by %d", maxd)
	}
	// Malformed raw frames error out.
	for _, bad := range [][]byte{nil, {1, 2}, EncodeRaw(img)[:20]} {
		_ = d.Submit(Cmd{ID: 2, Data: DataRef{Inline: bad}, DMAAddr: buf.PhysAddr(), OutW: 20, OutH: 10, Channels: 3})
		comp, _ := d.WaitCompletion()
		if comp.Err == nil {
			t.Fatal("malformed raw frame accepted")
		}
	}
}

func TestMirrorRegistry(t *testing.T) {
	for _, name := range []string{"jpeg", "raw"} {
		if m, err := LoadMirror(name); err != nil || m.Name() != name {
			t.Fatalf("LoadMirror(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := LoadMirror("nope"); err == nil {
		t.Fatal("unknown mirror loaded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration did not panic")
			}
		}()
		RegisterMirror(JPEGMirror{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil registration did not panic")
			}
		}()
		RegisterMirror(nil)
	}()
}

// encodeTestJPEG returns a small encoded image for revocation tests.
func encodeTestJPEG(t *testing.T, seed int64) []byte {
	t.Helper()
	data, err := jpeg.Encode(testImage(64, 64, 1, seed), jpeg.EncodeOptions{Quality: 90})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCancelFencesDelayedDMA is the revocation guarantee: the host
// cancels a command while the board is still working on it (an injected
// latency spike stalls its worker), and after Cancel returns true no
// byte of the command's DMA window may change and no FINISH may
// surface — the slot can be rescued and the buffer recycled safely.
func TestCancelFencesDelayedDMA(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Inject = faults.New(faults.Config{Delay: 150 * time.Millisecond, DelayEvery: 1, WindowStart: 1, WindowLen: 1})
	d, pool := newTestDevice(t, cfg)
	buf, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	window := buf.Bytes()[:28*28]
	for i := range window {
		window[i] = 0xAB
	}
	cmd := Cmd{
		ID:      1,
		Data:    DataRef{Inline: encodeTestJPEG(t, 3)},
		DMAAddr: buf.PhysAddr(),
		OutW:    28, OutH: 28, Channels: 1,
	}
	if err := d.Submit(cmd); err != nil {
		t.Fatal(err)
	}
	// Wait until a worker has consumed the injector decision (it is now
	// sleeping the delay), then revoke.
	for cfg.Inject.Ops() == 0 {
		time.Sleep(time.Millisecond)
	}
	if !d.Cancel(cmd.ID) {
		t.Fatal("Cancel lost against a board that cannot have finished")
	}
	if !d.Cancel(cmd.ID) {
		t.Fatal("Cancel is not idempotent while the command is in the board")
	}
	// Let the delayed pipeline run the revoked command to its end.
	time.Sleep(300 * time.Millisecond)
	for i, b := range window {
		if b != 0xAB {
			t.Fatalf("revoked command wrote DMA window at byte %d", i)
		}
	}
	if comps := d.Drain(); len(comps) != 0 {
		t.Fatalf("revoked command raised FINISH: %+v", comps)
	}
}

// TestInjectionFollowsFIFOOrder: a worker takes its command and its
// injector decision together, so a schedule lands on the same commands
// on every run — the k-th command submitted meets decision k, and
// FailEvery 3 fails IDs 2, 5, 8, …. With rates, the corruption's draws
// share the PRNG with the decisions, so they too must be taken in FIFO
// order. The reference injector replays the schedule in FIFO order.
// Every payload fails to parse at once, so the workers race each other
// back to the FIFO as often as they can.
func TestInjectionFollowsFIFOOrder(t *testing.T) {
	const n = 600
	data := make([]byte, 600)
	for _, tc := range []struct {
		name string
		cfg  faults.Config
	}{
		{"fail every 3", faults.Config{FailEvery: 3}},
		{"seeded rates", faults.Config{Seed: 3, FailRate: 0.3, CorruptRate: 0.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []uint64
			ref := faults.New(tc.cfg)
			for id := uint64(0); id < n; id++ {
				p := ref.Next()
				if p.Fail {
					want = append(want, id)
				}
				if p.Corrupt {
					ref.CorruptBytes(make([]byte, len(data)))
				}
			}
			cfg := DefaultConfig()
			cfg.Inject = faults.New(tc.cfg)
			d, pool := newTestDevice(t, cfg)
			buf, _ := pool.Get()
			go func() {
				for id := uint64(0); id < n; id++ {
					if err := d.Submit(Cmd{ID: id, Data: DataRef{Inline: data}, DMAAddr: buf.PhysAddr(), OutW: 28, OutH: 28, Channels: 1}); err != nil {
						t.Error(err)
					}
				}
			}()
			var got []uint64
			for i := 0; i < n; i++ {
				comp, err := d.WaitCompletion()
				if err != nil {
					t.Fatal(err)
				}
				if errors.Is(comp.Err, faults.ErrInjected) {
					got = append(got, comp.ID)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("injected failures hit %v, want %v", got, want)
			}
		})
	}
}

// TestWedgeSwallowsOnlyLaterCommands: a stuck decision wedges the board
// from its command on, and every command ahead of it in the FIFO still
// finishes, whichever worker carries it. Each round wedges a fresh board
// at its 4th command while the other workers race through the first
// three, which all fail to parse at once.
func TestWedgeSwallowsOnlyLaterCommands(t *testing.T) {
	pool, err := hugepage.NewPool(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	buf, _ := pool.Get()
	for round := 0; round < 200; round++ {
		cfg := DefaultConfig()
		cfg.Inject = faults.New(faults.Config{StuckAfter: 4})
		d, err := New(cfg, pool.Arena(), nil, RawMirror{})
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(0); id < 8; id++ {
			if err := d.Submit(Cmd{ID: id, Data: DataRef{Inline: []byte{0}}, DMAAddr: buf.PhysAddr(), OutW: 1, OutH: 1, Channels: 1}); err != nil {
				t.Fatal(err)
			}
		}
		// A swallowed early command would never finish: close the board
		// instead of waiting forever, which ends WaitCompletion.
		guard := time.AfterFunc(5*time.Second, d.Close)
		for i := 0; i < 3; i++ {
			if _, err := d.WaitCompletion(); err != nil {
				t.Fatalf("round %d: %d of the 3 commands ahead of the wedge finished", round, i)
			}
		}
		guard.Stop()
		d.Close()
		if comps := d.Drain(); len(comps) != 0 {
			t.Fatalf("round %d: a swallowed command finished: %+v", round, comps)
		}
	}
}

var errFetch = errors.New("fetch failed")

// countingSource counts its fetches and fails every path but "ok".
type countingSource struct{ fetches atomic.Int64 }

func (s *countingSource) Fetch(ref DataRef) ([]byte, error) {
	s.fetches.Add(1)
	if ref.Path != "ok" {
		return nil, errFetch
	}
	return []byte{1, 2, 3}, nil
}

// TestCorruptFetchesOncePerCommand: a corrupt-planned command is parsed
// as it leaves the FIFO, and still like any other: its payload is
// fetched once, only after its geometry passes, never once the board is
// wedged, and a failed fetch is its FINISH error.
func TestCorruptFetchesOncePerCommand(t *testing.T) {
	pool, err := hugepage.NewPool(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	buf, _ := pool.Get()
	cfg := DefaultConfig()
	cfg.Inject = faults.New(faults.Config{CorruptEvery: 1, StuckAfter: 5})
	src := &countingSource{}
	d, err := New(cfg, pool.Arena(), src, RawMirror{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// IDs 0-3 are parsed; 4 wedges the board and 5 is swallowed.
	paths := []string{"ok", "bad", "bad", "bad", "ok", "ok"}
	for id, path := range paths {
		ch := 1
		if id == 2 {
			ch = 2 // bad geometry: rejected before the fetch
		}
		if err := d.Submit(Cmd{ID: uint64(id), Data: DataRef{Path: path}, DMAAddr: buf.PhysAddr(), OutW: 1, OutH: 1, Channels: ch}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[uint64]error{1: errFetch, 2: errBadGeometry, 3: errFetch}
	for i := 0; i < 4; i++ {
		comp, err := d.WaitCompletion()
		if err != nil {
			t.Fatal(err)
		}
		if w, ok := want[comp.ID]; ok && !errors.Is(comp.Err, w) {
			t.Errorf("cmd %d finished with %v, want %v", comp.ID, comp.Err, w)
		}
	}
	for cfg.Inject.Ops() < int64(len(paths)) {
		time.Sleep(time.Millisecond)
	}
	if got := src.fetches.Load(); got != 3 {
		t.Errorf("%d fetches, want 3: one each for IDs 0, 1 and 3", got)
	}
	if parser, _, _, _ := d.Stats(); parser.Jobs != 4 {
		t.Errorf("parser booked %d jobs, want 4", parser.Jobs)
	}
}

// TestCancelLosesAfterFinish: once a command's FINISH has been raised,
// Cancel must report the revocation lost so the host consumes the
// completion instead of discarding the slot's real result.
func TestCancelLosesAfterFinish(t *testing.T) {
	d, pool := newTestDevice(t, DefaultConfig())
	buf, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	cmd := Cmd{
		ID:      9,
		Data:    DataRef{Inline: encodeTestJPEG(t, 4)},
		DMAAddr: buf.PhysAddr(),
		OutW:    28, OutH: 28, Channels: 1,
	}
	if err := d.Submit(cmd); err != nil {
		t.Fatal(err)
	}
	comp, err := d.WaitCompletion()
	if err != nil || comp.Err != nil {
		t.Fatalf("completion = %+v, err %v", comp, err)
	}
	if d.Cancel(cmd.ID) {
		t.Fatal("Cancel won against an already-finished command")
	}
}

// TestCancelStuckSwallowedCommand: a wedged board swallows commands
// without ever finishing them; the host's revocation must win so the
// swallowed command's slot can be settled and its buffer reused.
func TestCancelStuckSwallowedCommand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Inject = faults.New(faults.Config{StuckAfter: 1})
	d, pool := newTestDevice(t, cfg)
	buf, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	cmd := Cmd{
		ID:      5,
		Data:    DataRef{Inline: encodeTestJPEG(t, 5)},
		DMAAddr: buf.PhysAddr(),
		OutW:    28, OutH: 28, Channels: 1,
	}
	if err := d.Submit(cmd); err != nil {
		t.Fatal(err)
	}
	for !d.Wedged() {
		time.Sleep(time.Millisecond)
	}
	if !d.Cancel(cmd.ID) {
		t.Fatal("Cancel lost against a wedged board that swallowed the command")
	}
}
