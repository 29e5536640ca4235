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

// NewDecoder implements fpga.Mirror. A speech job keeps no buffers
// between commands, so the decoder is just the parameters.
func (m SpeechMirror) NewDecoder() fpga.Decoder { return m }

// Parse implements fpga.Decoder: WAV header + PCM extraction.
func (m SpeechMirror) Parse(data []byte) (fpga.Job, error) {
	clip, err := DecodeWAV(data)
	if err != nil {
		return nil, err
	}
	return &speechJob{params: m.Params, clip: clip}, nil
}

type speechJob struct {
	params SpectrogramParams
	clip   *Clip
	frames *Frames
}

// EntropyDecode implements fpga.Job: the compute-heavy stage.
func (j *speechJob) EntropyDecode() (err error) {
	j.frames, err = ExtractFrames(j.clip, j.params)
	return err
}

// Reconstruct implements fpga.Job: spectrogram image formation.
func (j *speechJob) Reconstruct(img *pix.Image, _, _ int) (int, error) {
	j.frames.RenderInto(img)
	return 8, nil
}

// Release implements fpga.Job.
func (j *speechJob) Release() {}

func init() {
	fpga.RegisterMirror(SpeechMirror{Params: DefaultSpectrogramParams()})
}
