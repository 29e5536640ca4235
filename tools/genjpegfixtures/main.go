// Command genjpegfixtures (re)generates the checked-in DRI test fixtures
// under internal/jpeg/testdata: restart-marker-encoded JPEGs in the three
// production layouts, plus truncated/corrupted-segment seed files for the
// FuzzDecodeScaledInto corpus. The images are pure deterministic
// functions of their geometry (no RNG, no time), so regeneration is
// byte-stable across runs and hosts as long as the encoder is.
//
// Run from the repository root:
//
//	go run ./tools/genjpegfixtures
package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"dlbooster/internal/jpeg"
	"dlbooster/internal/pix"
)

// synthImage renders a deterministic smooth field — low-frequency enough
// to compress like a photo, varied enough that every restart segment
// carries distinct data.
func synthImage(w, h, c int, phase float64) *pix.Image {
	img := pix.New(w, h, c)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx, fy := float64(x)/float64(w), float64(y)/float64(h)
			for ch := 0; ch < c; ch++ {
				v := 128 +
					60*math.Sin(2*math.Pi*(3*fx+phase)+float64(ch)) +
					50*math.Cos(2*math.Pi*(2*fy-phase)+2*float64(ch)) +
					15*math.Sin(2*math.Pi*(7*fx*fy))
				if v < 0 {
					v = 0
				}
				if v > 255 {
					v = 255
				}
				img.Pix[(y*w+x)*c+ch] = byte(v)
			}
		}
	}
	return img
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "genjpegfixtures:", err)
		os.Exit(1)
	}
}

func writeFile(path string, data []byte) {
	must(os.MkdirAll(filepath.Dir(path), 0o755))
	must(os.WriteFile(path, data, 0o644))
	fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
}

// fuzzSeed wraps raw bytes in the `go test fuzz v1` corpus format.
func fuzzSeed(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

func main() {
	driDir := filepath.Join("internal", "jpeg", "testdata", "dri")
	corpusDir := filepath.Join("internal", "jpeg", "testdata", "fuzz", "FuzzDecodeScaledInto")

	enc := func(img *pix.Image, opt jpeg.EncodeOptions) []byte {
		data, err := jpeg.Encode(img, opt)
		must(err)
		return data
	}
	d420 := enc(synthImage(512, 384, 3, 0.13), jpeg.EncodeOptions{Quality: 88, Subsample420: true, RestartInterval: 8})
	d422 := enc(synthImage(480, 320, 3, 0.47), jpeg.EncodeOptions{Quality: 90, Subsample422: true, RestartInterval: 12})
	dGray := enc(synthImage(320, 320, 1, 0.71), jpeg.EncodeOptions{Quality: 85, RestartInterval: 16})
	writeFile(filepath.Join(driDir, "dri-420.jpg"), d420)
	writeFile(filepath.Join(driDir, "dri-422.jpg"), d422)
	writeFile(filepath.Join(driDir, "dri-gray.jpg"), dGray)

	// Truncated/corrupted-segment corpus seeds: the restart-marker
	// shapes the entropy decoder must reject cleanly.
	rst3 := bytes.Index(d420, []byte{0xFF, 0xD3})
	if rst3 < 0 {
		must(fmt.Errorf("no RST3 marker in dri-420 fixture"))
	}
	writeFile(filepath.Join(corpusDir, "dri-420-truncated-mid-segment"), fuzzSeed(d420[:len(d420)*55/100]))
	writeFile(filepath.Join(corpusDir, "dri-420-truncated-after-rst3"), fuzzSeed(d420[:rst3+2]))
	outOfSeq := append([]byte(nil), d422...)
	if i := bytes.Index(outOfSeq, []byte{0xFF, 0xD0}); i >= 0 {
		outOfSeq[i+1] = 0xD6 // first restart marker out of sequence
	}
	writeFile(filepath.Join(corpusDir, "dri-422-marker-out-of-sequence"), fuzzSeed(outOfSeq))
	writeFile(filepath.Join(corpusDir, "dri-gray-truncated-tail"), fuzzSeed(dGray[:len(dGray)-7]))
}
