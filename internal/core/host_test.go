package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"dlbooster/internal/dataset"
	"dlbooster/internal/faults"
	"dlbooster/internal/fpga"
	"dlbooster/internal/pix"
)

// pairMirror is the raw mirror behind a rendezvous: its decoders' Parse
// waits, up to a bound, until a second Parse is in flight at the same
// time. Once two have met, every later call passes straight through.
type pairMirror struct {
	mu       sync.Mutex
	inFlight int
	met      chan struct{}
}

var pairs = &pairMirror{met: make(chan struct{})}

func init() { fpga.RegisterMirror(pairs) }

func (*pairMirror) Name() string { return "pair" }

func (m *pairMirror) NewDecoder() fpga.Decoder {
	return pairDecoder{m, fpga.RawMirror{}.NewDecoder()}
}

// pairDecoder is one worker's raw decoder behind the mirror's rendezvous.
type pairDecoder struct {
	m *pairMirror
	fpga.Decoder
}

func (d pairDecoder) Parse(data []byte) error {
	m := d.m
	m.mu.Lock()
	m.inFlight++
	if m.inFlight == 2 {
		select {
		case <-m.met:
		default:
			close(m.met)
		}
	}
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.inFlight--
		m.mu.Unlock()
	}()
	select {
	case <-m.met:
		return d.Decoder.Parse(data)
	case <-time.After(2 * time.Second):
		return errors.New("no second decode came in flight")
	}
}

// TestOffloadedDecodesRunConcurrently: at share 1 every decode goes to
// the host lanes, which run them side by side; a decode that waited for
// the previous one to finish would never meet a second in flight, and
// its slot would fail.
func TestOffloadedDecodesRunConcurrently(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // two lanes
	b := newBooster(t, Config{BatchSize: 2, OutW: 4, OutH: 4, Channels: 1, Mirror: "pair"})
	b.SetCPUShare(1)
	img := pix.New(4, 4, 1)
	items := []Item{
		{Ref: fpga.DataRef{Inline: fpga.EncodeRaw(img)}, Meta: ItemMeta{Seq: 0}},
		{Ref: fpga.DataRef{Inline: fpga.EncodeRaw(img)}, Meta: ItemMeta{Seq: 1}},
	}
	results := drainAll(t, b)
	runEpochWatchdog(t, b, CollectorFromItems(items))
	b.CloseBatches()
	<-results
	if b.Images() != 2 || b.OffloadDecodes() != 2 {
		t.Fatalf("images=%d offloads=%d errors=%d, want 2/2/0: the offloaded decodes ran one at a time",
			b.Images(), b.OffloadDecodes(), b.DecodeErrors())
	}
}

func TestHostBoosterHasNoDevice(t *testing.T) {
	b, err := NewHost(Config{BatchSize: 1, OutW: 4, OutH: 4, Channels: 1}, 1,
		func(int, fpga.DataRef, *pix.Image) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Device() != nil || b.Channel() != nil {
		t.Fatal("a Booster without boards exposes a board")
	}
}

// BenchmarkEpochCPUShare runs a 1 024-item epoch of 500×375 JPEGs
// decoded to 96×96 (16 distinct images, cycled) with every decode on
// the boards (share=0), every decode offloaded to the host (share=1),
// and every decode on the host because the boards fail each command
// (degraded: fail rate 1, FallbackAfter 1). It reports img/s.
func BenchmarkEpochCPUShare(b *testing.B) {
	spec := dataset.ILSVRCLike(16)
	items := make([]Item, 1024)
	for i := range items {
		if i < spec.Count {
			data, err := spec.JPEG(i)
			if err != nil {
				b.Fatal(err)
			}
			items[i].Ref = fpga.DataRef{Inline: data}
		} else {
			items[i].Ref = items[i%spec.Count].Ref
		}
		items[i].Meta = ItemMeta{Seq: i}
	}
	for _, tc := range []struct {
		name  string
		share float64
		fail  bool
	}{{"share=0", 0, false}, {"share=1", 1, false}, {"degraded", 0, true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{BatchSize: 32, OutW: 96, OutH: 96, Channels: 3}
			if tc.fail {
				cfg.FPGA = fpga.Config{Inject: faults.New(faults.Config{FailRate: 1})}
				cfg.Resilience = Resilience{FallbackAfter: 1}
			}
			bo, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer bo.Close()
			bo.SetCPUShare(tc.share)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					batch, err := bo.Batches().Pop()
					if err != nil {
						return
					}
					_ = bo.RecycleBatch(batch)
				}
			}()
			defer func() { bo.CloseBatches(); <-done }()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bo.RunEpoch(CollectorFromItems(items)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(items))/b.Elapsed().Seconds(), "img/s")
			if bo.Images() != int64(b.N*len(items)) {
				b.Fatalf("%d of %d images decoded", bo.Images(), b.N*len(items))
			}
		})
	}
}
