package main

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	stdjpeg "image/jpeg"
	"runtime"
	"sync"

	"dlbooster/internal/dataset"
	"dlbooster/internal/imageproc"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/pix"
)

const (
	// corpusImages is the number of distinct images every workload
	// cycles through. Closed-loop item counts are odd multiples of it so
	// that the trainer's XOR digest cannot cancel to zero.
	corpusImages = 128
	// classes is the label space of the inference engine's classifier
	// head (dlserve's value).
	classes = 1000
	// oraclePSNR is the least agreement, in dB, between the repo's own
	// decoder and the standard library's on every corpus image.
	oraclePSNR = 30.0
)

// corpus is the generated input of one run and what its outputs must
// be: the encoded images the program sees, and per image the digest and
// label the engines must report for it in the workload's geometry.
type corpus struct {
	jpegs     [][]byte
	digests   []uint64
	labels    []int
	jpegBytes int64
}

// forwardProxy is a bench-local copy of the engines' FNV-1a forward
// proxy (internal/engine keeps its own unexported): the reference must
// not be computed by the code under test.
func forwardProxy(img []byte) uint64 {
	var acc uint64 = 1469598103934665603
	for _, b := range img {
		acc ^= uint64(b)
		acc *= 1099511628211
	}
	return acc
}

// buildCorpus generates the seed's corpus — ILSVRC-like geometry
// (500×375×3, 4:2:0, q88, baseline, no restart markers), encoded once —
// and its reference outputs at outW×outH, each image decoded by one
// goroutine through jpeg.DecodeScaledInto with a private Scratch. Each
// reference image is also checked against the standard library's
// decoder, so a wrong codec cannot bless itself. Images are independent,
// so the work is split across the cores to keep set-up short.
func buildCorpus(seed int64, outW, outH int) (*corpus, error) {
	spec := dataset.ILSVRCLike(corpusImages)
	// dataset derives image i from Seed+i, so neighbouring seeds would
	// share all but one image; spread them apart.
	spec.Seed = seed * 1000003
	c := &corpus{
		jpegs:   make([][]byte, corpusImages),
		digests: make([]uint64, corpusImages),
		labels:  make([]int, corpusImages),
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc jpeg.Scratch
			ref := pix.New(outW, outH, 3)
			oracle := pix.New(outW, outH, 3)
			full := pix.New(spec.W, spec.H, 3)
			for i := w; i < corpusImages && errs[w] == nil; i += workers {
				errs[w] = c.buildImage(spec, i, &sc, ref, oracle, full)
			}
		}(w)
	}
	wg.Wait()
	for _, data := range c.jpegs {
		c.jpegBytes += int64(len(data))
	}
	return c, errors.Join(errs...)
}

// buildImage fills slot i of the corpus; the images are scratch space.
func (c *corpus) buildImage(spec dataset.Spec, i int, sc *jpeg.Scratch, ref, oracle, full *pix.Image) error {
	data, err := jpeg.Encode(spec.Image(i), jpeg.EncodeOptions{Quality: spec.Quality, Subsample420: spec.Sub420})
	if err != nil {
		return fmt.Errorf("encoding corpus image %d: %w", i, err)
	}
	c.jpegs[i] = data
	if _, err := jpeg.DecodeScaledInto(data, ref, sc); err != nil {
		return fmt.Errorf("reference decode of image %d: %w", i, err)
	}
	c.digests[i] = forwardProxy(ref.Pix)
	c.labels[i] = int(c.digests[i] % classes)

	if err := stdDecodeRGB(data, full); err != nil {
		return fmt.Errorf("oracle decode of image %d: %w", i, err)
	}
	if err := imageproc.ResizeInto(full, oracle, imageproc.Bilinear); err != nil {
		return fmt.Errorf("oracle resize of image %d: %w", i, err)
	}
	psnr, err := ref.PSNR(oracle)
	if err != nil {
		return err
	}
	if psnr < oraclePSNR {
		return fmt.Errorf("reference image %d disagrees with image/jpeg: PSNR %.1f dB < %.0f dB", i, psnr, oraclePSNR)
	}
	return nil
}

// stdDecodeRGB decodes data with the standard library into dst.
func stdDecodeRGB(data []byte, dst *pix.Image) error {
	img, err := stdjpeg.Decode(bytes.NewReader(data))
	if err != nil {
		return err
	}
	ycc, ok := img.(*image.YCbCr)
	if !ok {
		return fmt.Errorf("image/jpeg returned %T, want *image.YCbCr", img)
	}
	b := ycc.Bounds()
	if b.Dx() != dst.W || b.Dy() != dst.H {
		return fmt.Errorf("image/jpeg decoded %dx%d, want %dx%d", b.Dx(), b.Dy(), dst.W, dst.H)
	}
	o := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			c := ycc.YCbCrAt(x, y)
			r, g, bl, _ := c.RGBA()
			dst.Pix[o], dst.Pix[o+1], dst.Pix[o+2] = byte(r>>8), byte(g>>8), byte(bl>>8)
			o += 3
		}
	}
	return nil
}

// corrupt flips one byte in the middle of one image's entropy-coded
// data after the references were taken — the negative self-test: the
// gate must notice that the pipeline's output no longer matches.
func (c *corpus) corrupt() {
	const victim = 7
	data := append([]byte(nil), c.jpegs[victim]...)
	data[len(data)/2] ^= 0x55
	c.jpegs[victim] = data
}

// expectedXOR is the trainer's LossProxy after it has consumed items
// 0..n-1 (item i carries corpus image i mod corpusImages) passes times.
func (c *corpus) expectedXOR(n, passes int) uint64 {
	if passes%2 == 0 {
		return 0
	}
	var x uint64
	for i := 0; i < n; i++ {
		x ^= c.digests[i%corpusImages]
	}
	return x
}
