package audio

import (
	"dlbooster/internal/fpga"
	"dlbooster/internal/pix"
)

// SpeechMirror is the pluggable FPGA decoder image for speech workloads
// (§3.1): WAV parsing in the parser stage, framing + per-frame DCT in
// the heavy compute stage (where the JPEG mirror runs Huffman decoding),
// and log-magnitude image formation in the reconstruction stage. The
// device's resizer then scales the spectrogram to the model's input
// geometry exactly as it scales photos.
type SpeechMirror struct {
	Params SpectrogramParams
}

// Name implements fpga.Mirror.
func (SpeechMirror) Name() string { return "speech" }

// NewDecoder implements fpga.Mirror.
func (m SpeechMirror) NewDecoder() fpga.Decoder { return &speechDecoder{params: m.Params} }

// speechDecoder is one worker's clip, frames and spectrogram image.
type speechDecoder struct {
	params SpectrogramParams
	clip   *Clip
	frames *Frames
	img    pix.Image
}

// Parse implements fpga.Decoder: WAV header + PCM extraction.
func (d *speechDecoder) Parse(data []byte) (err error) {
	d.clip, err = DecodeWAV(data)
	return err
}

// EntropyDecode implements fpga.Decoder: the compute-heavy stage.
func (d *speechDecoder) EntropyDecode() (err error) {
	d.frames, err = ExtractFrames(d.clip, d.params)
	return err
}

// Reconstruct implements fpga.Decoder: spectrogram image formation.
func (d *speechDecoder) Reconstruct(_, _ int) (*pix.Image, int, error) {
	d.frames.RenderInto(&d.img)
	return &d.img, 8, nil
}

func init() {
	fpga.RegisterMirror(SpeechMirror{Params: DefaultSpectrogramParams()})
}
