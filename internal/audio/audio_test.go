package audio

import (
	"math"
	"testing"
	"testing/quick"

	"dlbooster/internal/fpga"
	"dlbooster/internal/hugepage"
)

func TestWAVRoundTrip(t *testing.T) {
	clip := Synth(7, 16000, 4000)
	data, err := EncodeWAV(clip)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeWAV(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.SampleRate != 16000 || len(back.Samples) != 4000 {
		t.Fatalf("clip = rate %d, %d samples", back.SampleRate, len(back.Samples))
	}
	for i := range clip.Samples {
		if clip.Samples[i] != back.Samples[i] {
			t.Fatalf("sample %d: %d != %d", i, clip.Samples[i], back.Samples[i])
		}
	}
	if d := back.Duration(); d != 0.25 {
		t.Fatalf("Duration = %v", d)
	}
}

// TestWAVRoundTripProperty: arbitrary PCM survives the codec exactly.
func TestWAVRoundTripProperty(t *testing.T) {
	f := func(samples []int16, rateSeed uint16) bool {
		if len(samples) == 0 {
			samples = []int16{0}
		}
		rate := int(rateSeed)%48000 + 8000
		clip := &Clip{SampleRate: rate, Samples: samples}
		data, err := EncodeWAV(clip)
		if err != nil {
			return false
		}
		back, err := DecodeWAV(data)
		if err != nil || back.SampleRate != rate || len(back.Samples) != len(samples) {
			return false
		}
		for i := range samples {
			if samples[i] != back.Samples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeWAVRejectsMalformed(t *testing.T) {
	good, _ := EncodeWAV(Synth(1, 8000, 1000))
	cases := map[string][]byte{
		"empty":       nil,
		"short":       good[:20],
		"bad magic":   append([]byte("JUNK"), good[4:]...),
		"no data":     good[:wavHeaderSize-8],
		"trunc data":  good[:len(good)-3],
		"stereo":      mutate(good, 22, 2),
		"8-bit":       mutate(good, 34, 8),
		"float fmt":   mutate(good, 20, 3),
		"zero rate":   mutateU32(good, 24, 0),
		"insane rate": mutateU32(good, 24, 1<<30),
	}
	for name, data := range cases {
		if _, err := DecodeWAV(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func mutate(data []byte, off int, v uint16) []byte {
	out := append([]byte(nil), data...)
	out[off] = byte(v)
	out[off+1] = byte(v >> 8)
	return out
}

func mutateU32(data []byte, off int, v uint32) []byte {
	out := append([]byte(nil), data...)
	out[off] = byte(v)
	out[off+1] = byte(v >> 8)
	out[off+2] = byte(v >> 16)
	out[off+3] = byte(v >> 24)
	return out
}

func TestDecodeWAVSkipsExtraChunks(t *testing.T) {
	clip := Synth(3, 8000, 500)
	good, _ := EncodeWAV(clip)
	// Splice a LIST chunk between fmt and data.
	list := append([]byte("LIST"), 0x04, 0, 0, 0, 'I', 'N', 'F', 'O')
	spliced := append([]byte(nil), good[:36]...)
	spliced = append(spliced, list...)
	spliced = append(spliced, good[36:]...)
	// Fix the RIFF size.
	spliced[4] = byte(len(spliced) - 8)
	spliced[5] = byte((len(spliced) - 8) >> 8)
	back, err := DecodeWAV(spliced)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != 500 {
		t.Fatalf("samples = %d", len(back.Samples))
	}
}

func TestSynthDeterministic(t *testing.T) {
	a := Synth(42, 16000, 2000)
	b := Synth(42, 16000, 2000)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("synth not deterministic")
		}
	}
	c := Synth(43, 16000, 2000)
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical clips")
	}
}

func TestSpectrogramParamsValidate(t *testing.T) {
	bad := []SpectrogramParams{
		{},
		{FrameLen: 0, Hop: 1, Coeffs: 1},
		{FrameLen: 8, Hop: 0, Coeffs: 1},
		{FrameLen: 8, Hop: 4, Coeffs: 0},
		{FrameLen: 8, Hop: 4, Coeffs: 9},
		{FrameLen: 8, Hop: 4, Coeffs: 4, MaxFrames: -1},
	}
	for i, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
	}
	if err := DefaultSpectrogramParams().validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPureToneConcentratesEnergy: a sinusoid's DCT energy concentrates
// near the expected coefficient bin, and silence produces none.
func TestPureToneConcentratesEnergy(t *testing.T) {
	const (
		rate     = 16000
		frameLen = 512
		coeffs   = 256
	)
	// DCT-II bin k corresponds to frequency k/(2N)·rate.
	wantBin := 64
	freq := float64(wantBin) / (2 * frameLen) * rate
	clip := &Clip{SampleRate: rate, Samples: make([]int16, 4*frameLen)}
	for i := range clip.Samples {
		clip.Samples[i] = int16(25000 * math.Sin(2*math.Pi*freq*float64(i)/rate))
	}
	fr, err := ExtractFrames(clip, SpectrogramParams{FrameLen: frameLen, Hop: frameLen, Coeffs: coeffs})
	if err != nil {
		t.Fatal(err)
	}
	row := fr.Coeffs[1] // interior frame
	best := 0
	for k := range row {
		if math.Abs(row[k]) > math.Abs(row[best]) {
			best = k
		}
	}
	if best < wantBin-2 || best > wantBin+2 {
		t.Fatalf("peak at bin %d, want ≈%d", best, wantBin)
	}
	// Silence → all-zero coefficients.
	silent := &Clip{SampleRate: rate, Samples: make([]int16, 2*frameLen)}
	fs, err := ExtractFrames(silent, SpectrogramParams{FrameLen: frameLen, Hop: frameLen, Coeffs: coeffs})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fs.Coeffs[0] {
		if v != 0 {
			t.Fatalf("silence produced energy %v", v)
		}
	}
}

func TestExtractFramesGeometry(t *testing.T) {
	clip := Synth(1, 16000, 512+3*256)
	p := SpectrogramParams{FrameLen: 512, Hop: 256, Coeffs: 32}
	fr, err := ExtractFrames(clip, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Coeffs) != 4 {
		t.Fatalf("frames = %d, want 4", len(fr.Coeffs))
	}
	// MaxFrames caps the count.
	p.MaxFrames = 2
	fr, _ = ExtractFrames(clip, p)
	if len(fr.Coeffs) != 2 {
		t.Fatalf("capped frames = %d", len(fr.Coeffs))
	}
	// Too-short clip errors.
	if _, err := ExtractFrames(&Clip{SampleRate: 16000, Samples: make([]int16, 100)}, p); err == nil {
		t.Fatal("short clip accepted")
	}
}

func TestSpectrogramImage(t *testing.T) {
	clip := Synth(5, 16000, 16000)
	wav, _ := EncodeWAV(clip)
	p := DefaultSpectrogramParams()
	decoded, err := DecodeWAV(wav)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := ExtractFrames(decoded, p)
	if err != nil {
		t.Fatal(err)
	}
	img := frames.ToImage()
	if img.W != p.MaxFrames || img.H != p.Coeffs || img.C != 1 {
		t.Fatalf("geometry %dx%dx%d", img.W, img.H, img.C)
	}
	// A harmonic-rich clip must produce a non-trivial raster.
	nonZero := 0
	for _, v := range img.Pix {
		if v != 0 {
			nonZero++
		}
	}
	if nonZero < len(img.Pix)/20 {
		t.Fatalf("spectrogram nearly empty: %d/%d non-zero", nonZero, len(img.Pix))
	}
	if _, err := DecodeWAV([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestSpeechMirrorThroughFPGADevice runs the speech workload through the
// real FPGA device pipeline — the §3.1 mirror-swap story end to end.
func TestSpeechMirrorThroughFPGADevice(t *testing.T) {
	pool, err := hugepage.NewPool(64*64, 4)
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := fpga.LoadMirror("speech")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := fpga.New(fpga.DefaultConfig(), pool.Arena(), nil, mirror)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if dev.Mirror() != "speech" {
		t.Fatalf("mirror = %q", dev.Mirror())
	}
	clip := Synth(9, 16000, 32000)
	wav, err := EncodeWAV(clip)
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := pool.Get()
	if err := dev.Submit(fpga.Cmd{
		ID: 1, Data: fpga.DataRef{Inline: wav},
		DMAAddr: buf.PhysAddr(), OutW: 64, OutH: 64, Channels: 1,
	}); err != nil {
		t.Fatal(err)
	}
	comp, err := dev.WaitCompletion()
	if err != nil {
		t.Fatal(err)
	}
	if comp.Err != nil {
		t.Fatalf("completion: %v", comp.Err)
	}
	if comp.Bytes != 64*64 {
		t.Fatalf("bytes = %d", comp.Bytes)
	}
	// Malformed WAV errors through the same FINISH path.
	if err := dev.Submit(fpga.Cmd{
		ID: 2, Data: fpga.DataRef{Inline: []byte("not audio")},
		DMAAddr: buf.PhysAddr(), OutW: 64, OutH: 64, Channels: 1,
	}); err != nil {
		t.Fatal(err)
	}
	comp, _ = dev.WaitCompletion()
	if comp.Err == nil {
		t.Fatal("garbage WAV decoded")
	}
}
