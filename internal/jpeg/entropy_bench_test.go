package jpeg_test

import (
	"testing"

	"dlbooster/internal/dataset"
	"dlbooster/internal/jpeg"
	"dlbooster/internal/pix"
)

// entropyBenchCorpus encodes n images of the bench corpus's geometry
// (dataset.ILSVRCLike: 500×375, q88, 4:2:0) with the given restart
// interval and returns them with their mean size.
func entropyBenchCorpus(b *testing.B, n, restartInterval int) (jpegs [][]byte, meanBytes int64) {
	b.Helper()
	spec := dataset.ILSVRCLike(n)
	var total int64
	for i := 0; i < n; i++ {
		data, err := jpeg.Encode(spec.Image(i), jpeg.EncodeOptions{
			Quality: spec.Quality, Subsample420: spec.Sub420, RestartInterval: restartInterval,
		})
		if err != nil {
			b.Fatal(err)
		}
		jpegs = append(jpegs, data)
		total += int64(len(data))
	}
	return jpegs, total / int64(n)
}

// BenchmarkEntropyDecode measures what bench/'s layer table measures, as
// a `go test -bench`: Parse + EntropyDecode of bench-corpus images is
// jpeg.parse_us + jpeg.entropy_us (MB/s of compressed input is
// jpeg.entropy_mb_s), Fused96 is jpeg.decode_fused_us on train-96 and
// Floor1x1 is jpeg.decode_floor_us. dri16 is the same images encoded
// with RestartInterval 16: it measures what restart markers cost the
// sequential entropy decoder, which no bench workload exercises, next to
// the plain stream's number.
func BenchmarkEntropyDecode(b *testing.B) {
	const images = 8
	staged := func(jpegs [][]byte, meanBytes int64) func(b *testing.B) {
		return func(b *testing.B) {
			b.SetBytes(meanBytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, err := jpeg.Parse(jpegs[i%len(jpegs)])
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.EntropyDecode(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	fused := func(jpegs [][]byte, meanBytes int64, size int) func(b *testing.B) {
		return func(b *testing.B) {
			var sc jpeg.Scratch
			dst := pix.New(size, size, 3)
			b.SetBytes(meanBytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := jpeg.DecodeScaledInto(jpegs[i%len(jpegs)], dst, &sc); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	base, baseBytes := entropyBenchCorpus(b, images, 0)
	dri, driBytes := entropyBenchCorpus(b, images, 16)
	b.Run("baseline", staged(base, baseBytes))
	b.Run("dri16", staged(dri, driBytes))
	b.Run("Fused96", fused(base, baseBytes, 96))
	b.Run("Floor1x1", fused(base, baseBytes, 1))
}
