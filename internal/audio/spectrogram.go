package audio

import (
	"fmt"
	"math"
	"sync"

	"dlbooster/internal/pix"
)

// SpectrogramParams configures feature extraction. The zero value is not
// valid; use DefaultSpectrogramParams.
type SpectrogramParams struct {
	// FrameLen is the analysis window in samples (a power of two is not
	// required; the DCT is direct).
	FrameLen int
	// Hop is the frame step in samples.
	Hop int
	// Coeffs is how many leading DCT coefficients to keep per frame
	// (the spectrogram height).
	Coeffs int
	// MaxFrames caps the spectrogram width; 0 means unlimited. The
	// preprocessing pipeline needs fixed-size outputs per batch slot,
	// like the image resizer's fixed OutW×OutH.
	MaxFrames int
}

// DefaultSpectrogramParams matches a common speech front end: 32 ms
// windows at 16 kHz with 50 % overlap, 64 coefficients.
func DefaultSpectrogramParams() SpectrogramParams {
	return SpectrogramParams{FrameLen: 512, Hop: 256, Coeffs: 64, MaxFrames: 64}
}

func (p SpectrogramParams) validate() error {
	if p.FrameLen <= 0 || p.Hop <= 0 || p.Coeffs <= 0 {
		return fmt.Errorf("audio: invalid spectrogram params %+v", p)
	}
	if p.Coeffs > p.FrameLen {
		return fmt.Errorf("audio: %d coefficients from %d-sample frames", p.Coeffs, p.FrameLen)
	}
	if p.MaxFrames < 0 {
		return fmt.Errorf("audio: negative MaxFrames")
	}
	return nil
}

// dctPlan caches the window and basis for one (frameLen, coeffs) shape.
type dctPlan struct {
	window []float64
	basis  [][]float64 // basis[k][n], k < coeffs
}

var (
	planMu    sync.Mutex
	planCache = map[[2]int]*dctPlan{}
)

func planFor(frameLen, coeffs int) *dctPlan {
	planMu.Lock()
	defer planMu.Unlock()
	key := [2]int{frameLen, coeffs}
	if p, ok := planCache[key]; ok {
		return p
	}
	p := &dctPlan{window: make([]float64, frameLen), basis: make([][]float64, coeffs)}
	for n := 0; n < frameLen; n++ {
		// Hann window.
		p.window[n] = 0.5 - 0.5*math.Cos(2*math.Pi*float64(n)/float64(frameLen-1))
	}
	for k := 0; k < coeffs; k++ {
		row := make([]float64, frameLen)
		for n := 0; n < frameLen; n++ {
			// DCT-II basis.
			row[n] = math.Cos(math.Pi / float64(frameLen) * (float64(n) + 0.5) * float64(k))
		}
		p.basis[k] = row
	}
	planCache[key] = p
	return p
}

// Frames holds windowed DCT coefficients: the intermediate the FPGA's
// heavy compute stage produces, before image formation.
type Frames struct {
	Coeffs [][]float64 // Coeffs[frame][k]
	Params SpectrogramParams
}

// ExtractFrames windows the clip and applies the per-frame DCT-II (the
// §2.1 "discrete cosine transform to obtain the spectra data").
func ExtractFrames(c *Clip, p SpectrogramParams) (*Frames, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if c == nil || len(c.Samples) < p.FrameLen {
		return nil, fmt.Errorf("audio: clip shorter than one frame")
	}
	plan := planFor(p.FrameLen, p.Coeffs)
	n := (len(c.Samples)-p.FrameLen)/p.Hop + 1
	if p.MaxFrames > 0 && n > p.MaxFrames {
		n = p.MaxFrames
	}
	out := &Frames{Params: p, Coeffs: make([][]float64, n)}
	buf := make([]float64, p.FrameLen)
	for f := 0; f < n; f++ {
		off := f * p.Hop
		for i := 0; i < p.FrameLen; i++ {
			buf[i] = float64(c.Samples[off+i]) / 32768 * plan.window[i]
		}
		row := make([]float64, p.Coeffs)
		for k := 0; k < p.Coeffs; k++ {
			var s float64
			basis := plan.basis[k]
			for i := 0; i < p.FrameLen; i++ {
				s += buf[i] * basis[i]
			}
			row[k] = s
		}
		out.Coeffs[f] = row
	}
	return out, nil
}

// ToImage converts frames to a log-magnitude spectrogram raster:
// x = frame index, y = coefficient, 8-bit dynamic range of 60 dB. The
// output width is padded/truncated to MaxFrames when set, giving the
// fixed geometry batch slots require.
func (fr *Frames) ToImage() *pix.Image {
	img := new(pix.Image)
	fr.RenderInto(img)
	return img
}

// RenderInto is ToImage into a reused image (see pix.Image.Reset).
func (fr *Frames) RenderInto(img *pix.Image) {
	p := fr.Params
	w := len(fr.Coeffs)
	if p.MaxFrames > 0 {
		w = p.MaxFrames
	}
	img.Reset(w, p.Coeffs, 1)
	const floorDB = -60.0
	for x := 0; x < w; x++ {
		for k := 0; k < p.Coeffs; k++ {
			var mag float64 // columns past the clip's last frame are silence
			if x < len(fr.Coeffs) {
				mag = math.Abs(fr.Coeffs[x][k])
			}
			db := floorDB
			if mag > 0 {
				db = 20 * math.Log10(mag)
				if db < floorDB {
					db = floorDB
				}
				if db > 0 {
					db = 0
				}
			}
			img.Set(x, k, 0, byte((db-floorDB)/(-floorDB)*255))
		}
	}
}
