package fpga

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dlbooster/internal/faults"
	"dlbooster/internal/hugepage"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/pix"
)

// stream is one encoded image plus the output geometry its commands ask
// for.
type stream struct {
	name    string
	data    []byte
	w, h, c int
}

// reuseStreams covers what one occupant of a stage buffer can leave for
// the next: a large 4:2:0 frame at a scaled and at the full iDCT, a small
// 4:4:4 one (fewer, differently shaped blocks), a single-component one
// (fewer components, other tables) and a restart-interval one that takes
// the segment-parallel entropy path.
func reuseStreams(t testing.TB) []stream {
	t.Helper()
	enc := func(img *pix.Image, opt jpeg.EncodeOptions) []byte {
		opt.Quality = 88
		data, err := jpeg.Encode(img, opt)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	big := enc(testImage(500, 375, 3, 11), jpeg.EncodeOptions{Subsample420: true})
	return []stream{
		{"420 scale 4", big, 96, 96, 3},
		{"420 scale 8", big, 224, 224, 3},
		{"444 scale 2", enc(testImage(40, 24, 3, 12), jpeg.EncodeOptions{}), 10, 6, 3},
		{"gray scale 1", enc(testImage(64, 48, 1, 13), jpeg.EncodeOptions{}), 8, 6, 1},
		{"dri scale 2", enc(testImage(256, 192, 3, 14), jpeg.EncodeOptions{Subsample420: true, RestartInterval: 16}), 64, 48, 3},
	}
}

// fresh decodes s with nothing reused: jpeg.DecodeScaledInto with a new
// Scratch into new memory.
func (s stream) fresh(t testing.TB) []byte {
	t.Helper()
	dst := pix.New(s.w, s.h, s.c)
	if _, err := jpeg.DecodeScaledInto(s.data, dst, new(jpeg.Scratch)); err != nil {
		t.Fatal(err)
	}
	return dst.Pix
}

// checkList asserts that nothing of l is handed out, that nothing was
// parked twice, and that its stock never outgrew the holders it serves.
func checkList[T any](t *testing.T, name string, l *freeList[T], holders int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.live != 0 {
		t.Errorf("%s: %d still held", name, l.live)
	}
	if len(l.free) > holders {
		t.Errorf("%s: stock of %d, at most %d can be held at once", name, len(l.free), holders)
	}
	seen := map[*T]bool{}
	for _, v := range l.free {
		if seen[v] {
			t.Errorf("%s: %p parked twice", name, v)
		}
		seen[v] = true
	}
}

// checkIdle is checkList over every buffer of a closed JPEG board. A list
// only makes a buffer when none is parked, so its stock is the most that
// were ever live at once: one per worker.
func checkIdle(t *testing.T, d *Device) {
	t.Helper()
	dec := d.pipe.dec.(*jpegDecoder)
	n := d.cfg.workers()
	checkList(t, "headers", &dec.jobs, n)
	checkList(t, "coefficient stores", &dec.stores, n)
	checkList(t, "planes", &dec.planes, n)
	checkList(t, "images", &d.pipe.images, n)
}

// TestReuseParity interleaves the streams in shuffled orders through one
// board, many in flight at once, and through one host Pipeline: every
// output must equal a decode that reused nothing, so no block, plane row
// or header table of a previous occupant can show. The submitter keeps
// the FIFO full, so this is also the saturated run after which no list's
// stock may exceed the worker count (checkIdle): at most 4 coefficient
// stores ever exist on a default board.
func TestReuseParity(t *testing.T) {
	streams := reuseStreams(t)
	want := make([][]byte, len(streams))
	slot := 0
	for i, s := range streams {
		want[i] = s.fresh(t)
		if n := len(want[i]); n > slot {
			slot = n
		}
	}
	const rounds = 6
	n := rounds * len(streams)
	pool, err := hugepage.NewPool(n*slot, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	buf, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(DefaultConfig(), pool.Arena(), nil, JPEGMirror{})
	if err != nil {
		t.Fatal(err)
	}
	host := NewPipeline(JPEGMirror{})
	for seed := int64(0); seed < 4; seed++ {
		order := rand.New(rand.NewSource(seed)).Perm(n)
		go func() {
			for i, k := range order {
				s := streams[k%len(streams)]
				if err := d.Submit(Cmd{
					ID: uint64(i), Data: DataRef{Inline: s.data},
					DMAAddr: buf.PhysAddr(), DMAOff: i * slot,
					OutW: s.w, OutH: s.h, Channels: s.c,
				}); err != nil {
					t.Error(err)
				}
			}
		}()
		for range order {
			comp, err := d.WaitCompletion()
			if err != nil || comp.Err != nil {
				t.Fatalf("seed %d: completion %+v, %v", seed, comp, err)
			}
		}
		for i, k := range order {
			s, ref := streams[k%len(streams)], want[k%len(streams)]
			if got := buf.Bytes()[i*slot : i*slot+len(ref)]; !bytes.Equal(got, ref) {
				t.Fatalf("seed %d: board output %d (%s) differs from a fresh decode", seed, i, s.name)
			}
			out := pix.New(s.w, s.h, s.c)
			if _, err := host.Decode(s.data, out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Pix, ref) {
				t.Fatalf("seed %d: host output %d (%s) differs from a fresh decode", seed, i, s.name)
			}
		}
	}
	d.Close()
	checkIdle(t, d)
	if got := d.ScaledDecodes(); got != 4*rounds*4 {
		t.Errorf("ScaledDecodes = %d, want %d (four of the five streams, every round)", got, 4*rounds*4)
	}
}

// TestBufferAccounting drives a JPEG board through every way a command
// can end and checks, once the board has closed, that each buffer came
// back exactly once.
func TestBufferAccounting(t *testing.T) {
	s := reuseStreams(t)[0]
	good := func(id uint64, buf *hugepage.Buffer) Cmd {
		return Cmd{ID: id, Data: DataRef{Inline: s.data}, DMAAddr: buf.PhysAddr(), DMAOff: int(id) * s.w * s.h * s.c, OutW: s.w, OutH: s.h, Channels: s.c}
	}
	for _, tc := range []struct {
		name     string
		inject   faults.Config
		spoil    func(*Cmd)    // what is wrong with every second command
		finishes int           // FINISH signals to wait for, of 8 commands
		lax      bool          // which commands fail is the injector's business
		during   func(*Device) // runs after the submissions
		wantErr  func(error) bool
	}{
		{name: "parse error", spoil: func(c *Cmd) { c.Data.Inline = []byte("not a jpeg") }, finishes: 8},
		{name: "entropy error", spoil: func(c *Cmd) { c.Data.Inline = s.data[:len(s.data)/2] }, finishes: 8},
		{name: "channel mismatch", spoil: func(c *Cmd) { c.Channels = 1 }, finishes: 8,
			wantErr: func(err error) bool { return errors.Is(err, errBadGeometry) }},
		{name: "bad DMA target", spoil: func(c *Cmd) { c.DMAOff = 1 << 40 }, finishes: 8,
			wantErr: func(err error) bool { return errors.Is(err, ErrBadTarget) }},
		{name: "injected fail and corrupt", inject: faults.Config{FailEvery: 3, CorruptEvery: 2}, finishes: 8, lax: true},
		{name: "revoked", inject: faults.Config{Delay: 50 * time.Millisecond, DelayEvery: 1, WindowStart: 1, WindowLen: 1},
			finishes: 7, during: func(d *Device) {
				if !d.Cancel(0) {
					t.Error("Cancel lost against a delayed worker")
				}
			}},
		{name: "wedged then closed", inject: faults.Config{StuckAfter: 4}, finishes: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := hugepage.NewPool(8*s.w*s.h*s.c, 1) // a window per command
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			buf, _ := pool.Get()
			cfg := DefaultConfig()
			if tc.inject.Enabled() {
				cfg.Inject = faults.New(tc.inject)
			}
			d, err := New(cfg, pool.Arena(), nil, JPEGMirror{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for id := uint64(0); id < 8; id++ {
				cmd := good(id, buf)
				if tc.spoil != nil && id%2 == 1 {
					tc.spoil(&cmd)
				}
				if err := d.Submit(cmd); err != nil {
					t.Fatal(err)
				}
			}
			if tc.during != nil {
				tc.during(d)
			}
			for i := 0; i < tc.finishes; i++ {
				comp, err := d.WaitCompletion()
				if err != nil {
					t.Fatal(err)
				}
				if spoiled := tc.spoil != nil && comp.ID%2 == 1; tc.lax {
				} else if spoiled != (comp.Err != nil) {
					t.Errorf("cmd %d: err = %v", comp.ID, comp.Err)
				} else if spoiled && tc.wantErr != nil && !tc.wantErr(comp.Err) {
					t.Errorf("cmd %d: unexpected error %v", comp.ID, comp.Err)
				}
			}
			d.Close()
			if comps := d.Drain(); len(comps) != 0 {
				t.Errorf("FINISH nobody expected: %+v", comps)
			}
			checkIdle(t, d)
		})
	}
}

// probeMirror counts what a board or a host Pipeline does with its jobs,
// failing every second command at one stage.
type probeMirror struct {
	failAt                  string
	parsed, made            atomic.Int64
	released, releasedTwice atomic.Int64
}

type probeJob struct {
	m        *probeMirror
	fail     bool
	released atomic.Int32
}

var errProbe = errors.New("probe: injected stage failure")

func (m *probeMirror) Name() string        { return "probe" }
func (m *probeMirror) NewDecoder() Decoder { return m }

func (m *probeMirror) Parse([]byte) (Job, error) {
	fail := m.parsed.Add(1)%2 == 0
	if fail && m.failAt == "parse" {
		return nil, errProbe
	}
	m.made.Add(1)
	return &probeJob{m: m, fail: fail}, nil
}

func (j *probeJob) EntropyDecode() error {
	if j.fail && j.m.failAt == "entropy" {
		return errProbe
	}
	return nil
}

func (j *probeJob) Reconstruct(img *pix.Image, outW, outH int) (int, error) {
	if j.fail && j.m.failAt == "reconstruct" {
		return 0, errProbe
	}
	img.Reset(2*outW, 2*outH, 1)
	return 8, nil
}

func (j *probeJob) Release() {
	j.m.released.Add(1)
	if j.released.Add(1) > 1 {
		j.m.releasedTwice.Add(1)
	}
}

// TestJobReleasedExactlyOnce: whichever stage ends a command, on a board
// and on the host path, its Job is released once and the scaled image
// goes back to the Pipeline.
func TestJobReleasedExactlyOnce(t *testing.T) {
	for _, failAt := range []string{"none", "parse", "entropy", "reconstruct"} {
		t.Run(failAt, func(t *testing.T) {
			m := &probeMirror{failAt: failAt}
			const n = 40
			pool, err := hugepage.NewPool(16*n, 1) // a window per command
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			buf, _ := pool.Get()
			d, err := New(DefaultConfig(), pool.Arena(), nil, m)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			host := NewPipeline(m)
			go func() {
				for id := uint64(0); id < n; id++ {
					if err := d.Submit(Cmd{ID: id, Data: DataRef{Inline: []byte{0}}, DMAAddr: buf.PhysAddr(), DMAOff: 16 * int(id), OutW: 4, OutH: 4, Channels: 1}); err != nil {
						t.Error(err)
					}
				}
			}()
			failed := 0
			for i := 0; i < n; i++ {
				comp, err := d.WaitCompletion()
				if err != nil {
					t.Fatal(err)
				}
				if comp.Err != nil {
					failed++
				}
			}
			for i := 0; i < n; i++ {
				if _, err := host.Decode(nil, pix.New(4, 4, 1)); err != nil {
					failed++
				}
			}
			d.Close()
			if want := n; failAt != "none" && failed != want {
				t.Errorf("%d commands failed, want %d", failed, want)
			}
			if made, rel := m.made.Load(), m.released.Load(); made != rel || m.releasedTwice.Load() != 0 {
				t.Errorf("%d jobs made, %d released, %d of them twice", made, rel, m.releasedTwice.Load())
			}
			checkList(t, "board images", &d.pipe.images, d.cfg.workers())
			checkList(t, "host images", &host.images, 1)
		})
	}
}

// TestDeviceSteadyStateAllocs pins the staged path of a warm board: a
// command costs at most 2 heap objects and 1 KiB from Submit to FINISH,
// whatever the image, the iDCT scale or the mirror.
func TestDeviceSteadyStateAllocs(t *testing.T) {
	type tcase struct {
		stream
		mirror Mirror
	}
	var cases []tcase
	for _, s := range reuseStreams(t)[:4] { // the restart-interval stream fans out goroutines by design
		cases = append(cases, tcase{s, JPEGMirror{}})
	}
	raw := testImage(200, 150, 3, 15)
	cases = append(cases, tcase{stream{"raw", EncodeRaw(raw), 96, 96, 3}, RawMirror{}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := hugepage.NewPool(tc.w*tc.h*tc.c, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			buf, _ := pool.Get()
			d, err := New(DefaultConfig(), pool.Arena(), nil, tc.mirror)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			id := uint64(0)
			objects, size := allocsPer(t, func() {
				id++
				if err := d.Submit(Cmd{ID: id, Data: DataRef{Inline: tc.data}, DMAAddr: buf.PhysAddr(), OutW: tc.w, OutH: tc.h, Channels: tc.c}); err != nil {
					t.Fatal(err)
				}
				if comp, err := d.WaitCompletion(); err != nil || comp.Err != nil {
					t.Fatalf("completion %+v, %v", comp, err)
				}
			})
			if objects > 2 || size > 1024 {
				t.Errorf("%.2f objects and %.0f bytes per command, want at most 2 and 1024", objects, size)
			}
		})
	}
}

// allocsPer warms run up and then reports the heap objects and bytes one
// call of it allocates, on whichever goroutine.
func allocsPer(t *testing.T, run func()) (objects, size float64) {
	t.Helper()
	const warm, runs = 8, 64
	for i := 0; i < warm; i++ {
		run()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestBoardWarmsFromLastClosed builds boards after a JPEG board closed:
// each decodes the closed board's first image once per worker before it
// opens, so its lists already hold the stock its workers grow (planes
// one) and even its first command allocates no stage buffer.
func TestBoardWarmsFromLastClosed(t *testing.T) {
	s := reuseStreams(t)[1] // full-scale 500×375: the biggest buffers
	const cmds = 8
	pool, err := hugepage.NewPool(cmds*s.w*s.h*s.c, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	buf, _ := pool.Get()
	board := func(cfg Config) *Device {
		d, err := New(cfg, pool.Arena(), nil, JPEGMirror{})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	decode := func(d *Device, n int) {
		for id := 0; id < n; id++ {
			if err := d.Submit(Cmd{ID: uint64(id), Data: DataRef{Inline: s.data}, DMAAddr: buf.PhysAddr(), DMAOff: id * s.w * s.h * s.c, OutW: s.w, OutH: s.h, Channels: s.c}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if comp, err := d.WaitCompletion(); err != nil || comp.Err != nil {
				t.Fatalf("completion %+v, %v", comp, err)
			}
		}
	}
	first := board(DefaultConfig())
	decode(first, cmds)
	first.Close()

	for _, cfg := range []Config{{HuffmanWays: 1, IDCTWays: 1, ResizeWays: 1}, DefaultConfig()} {
		d := board(cfg)
		dec, n := d.pipe.dec.(*jpegDecoder), d.cfg.workers()
		for name, stock := range map[string]int{"headers": len(dec.jobs.free), "stores": len(dec.stores.free), "images": len(d.pipe.images.free), "planes": len(dec.planes.free)} {
			if want := map[bool]int{true: 1, false: n}[name == "planes"]; stock != want {
				t.Errorf("%d workers: %d %s parked before the first command, want %d", n, stock, name, want)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode(d, 1)
		runtime.ReadMemStats(&after)
		// What it may allocate is its own sample: a copy of the payload.
		if size, most := after.TotalAlloc-before.TotalAlloc, uint64(len(s.data)+4<<10); size > most {
			t.Errorf("%d workers: first command allocated %d bytes, want at most %d", n, size, most)
		}
		d.Close()
		checkIdle(t, d)
	}
}

// runSlow pushes n one-byte commands through a default board loaded with
// m, each into its own window, and returns the wall time to the last
// FINISH and the board's stage stats.
func runSlow(t *testing.T, m *slowMirror, n int) (wall time.Duration, parser, huffman, idct StageStats) {
	t.Helper()
	pool, err := hugepage.NewPool(16*n, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	buf, _ := pool.Get()
	d, err := New(DefaultConfig(), pool.Arena(), nil, m)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	start := time.Now()
	go func() {
		for id := uint64(0); id < uint64(n); id++ {
			_ = d.Submit(Cmd{ID: id, Data: DataRef{Inline: []byte{0}}, DMAAddr: buf.PhysAddr(), DMAOff: 16 * int(id), OutW: 4, OutH: 4, Channels: 1})
		}
	}()
	for i := 0; i < n; i++ {
		if comp, err := d.WaitCompletion(); err != nil || comp.Err != nil {
			t.Fatalf("completion %+v, %v", comp, err)
		}
	}
	wall = time.Since(start)
	parser, huffman, idct, _ = d.Stats()
	return wall, parser, huffman, idct
}

// TestParserBusyIsServiceTime: the Huffman unit is far slower than the
// parser and runs right after it on the same worker, with no hand-off
// left to block on. The parser's Busy must still count only parsing.
func TestParserBusyIsServiceTime(t *testing.T) {
	const n = 20
	m := &slowMirror{entropy: 5 * time.Millisecond}
	_, parser, huffman, _ := runSlow(t, m, n)
	if parser.Jobs != n || huffman.Jobs != n {
		t.Fatalf("jobs: parser %d, huffman %d, want %d", parser.Jobs, huffman.Jobs, n)
	}
	if huffman.Busy < n*m.entropy {
		t.Errorf("huffman busy %v for %d jobs of %v", huffman.Busy, n, m.entropy)
	}
	if parser.Busy > n*m.entropy/10 {
		t.Errorf("parser busy %v for %d jobs: the clock ran into the Huffman unit", parser.Busy, n)
	}
}

// TestBoardIsWorkConserving: a default board has one iDCT way, yet no
// command waits for another's reconstruct: 16 commands of a 5 ms iDCT
// finish in less than half the 80 ms one lane would take, and the unit's
// Busy is its service time summed over the workers that ran it.
func TestBoardIsWorkConserving(t *testing.T) {
	const n = 16
	m := &slowMirror{reconstruct: 5 * time.Millisecond}
	wall, _, _, idct := runSlow(t, m, n)
	if lane := n * m.reconstruct; wall >= lane/2 {
		t.Errorf("%d commands took %v, one iDCT lane takes %v", n, wall, lane)
	}
	if idct.Jobs != n || idct.Busy < n*m.reconstruct {
		t.Errorf("idct: %d jobs, busy %v; want %d and at least %v", idct.Jobs, idct.Busy, n, n*m.reconstruct)
	}
}

// slowMirror is a probeMirror that never fails and takes a fixed time in
// the Huffman unit and in the iDCT unit.
type slowMirror struct {
	probeMirror
	entropy, reconstruct time.Duration
}

type slowJob struct {
	probeJob
	sm *slowMirror
}

func (m *slowMirror) NewDecoder() Decoder { return m }

func (m *slowMirror) Parse([]byte) (Job, error) {
	return &slowJob{probeJob{m: &m.probeMirror}, m}, nil
}

func (j *slowJob) EntropyDecode() error {
	time.Sleep(j.sm.entropy)
	return nil
}

func (j *slowJob) Reconstruct(img *pix.Image, outW, outH int) (int, error) {
	time.Sleep(j.sm.reconstruct)
	return j.probeJob.Reconstruct(img, outW, outH)
}
