package jpeg

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlbooster/internal/pix"
)

func encodeDRI(t *testing.T, w, h, c int, seed int64, opt EncodeOptions) []byte {
	t.Helper()
	data, err := Encode(smoothImage(w, h, c, seed), opt)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// TestRestartCorruptSegmentAttribution checks that a corrupt segment of
// a DRI stream surfaces a FormatError naming the restart interval it
// broke in.
func TestRestartCorruptSegmentAttribution(t *testing.T) {
	base := encodeDRI(t, 512, 384, 3, 27, EncodeOptions{Quality: 88, Subsample420: true, RestartInterval: 8})
	corrupt := func(t *testing.T, marker []byte, edit func(b []byte, idx int)) []byte {
		t.Helper()
		idx := bytes.Index(base, marker)
		if idx < 0 {
			t.Fatalf("no % X in test stream", marker)
		}
		b := append([]byte(nil), base...)
		edit(b, idx)
		return b
	}
	wantInterval := func(t *testing.T, data []byte, prefix string) {
		t.Helper()
		_, err := Decode(data)
		var fe FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("corrupt stream: got %v, want a FormatError", err)
		}
		if !strings.Contains(err.Error(), prefix) {
			t.Fatalf("error does not attribute %q: %s", prefix, err)
		}
	}

	t.Run("marker-out-of-sequence", func(t *testing.T) {
		// Replace the first RST3 with RST5.
		data := corrupt(t, []byte{0xFF, 0xD3}, func(b []byte, idx int) { b[idx+1] = 0xD5 })
		wantInterval(t, data, "restart interval 3:")
	})

	t.Run("marker-inside-segment", func(t *testing.T) {
		// Plant a non-RST marker just after RST0, truncating restart
		// interval 1's entropy data.
		data := corrupt(t, []byte{0xFF, 0xD0}, func(b []byte, idx int) { b[idx+4], b[idx+5] = 0xFF, 0xC4 })
		wantInterval(t, data, "restart interval 1:")
	})

	t.Run("bit-flip-outcome-parity", func(t *testing.T) {
		// Entropy bytes damaged with the marker layout intact: the decode
		// either succeeds or fails with a FormatError, and Decode and
		// DecodeScaledInto agree on which.
		idx := bytes.Index(base, []byte{0xFF, 0xD1})
		if idx < 0 {
			t.Fatal("no RST1 marker in test stream")
		}
		for _, off := range []int{idx + 7, idx + 64, idx + 301} {
			data := append([]byte(nil), base...)
			if data[off] == 0xFF || data[off-1] == 0xFF {
				off++ // don't manufacture or destroy marker prefixes
			}
			data[off] ^= 0x5B
			_, err := Decode(data)
			var fe FormatError
			if err != nil && !errors.As(err, &fe) {
				t.Fatalf("offset %d: got %v, want success or a FormatError", off, err)
			}
			_, scaledErr := DecodeScaledInto(data, pix.New(96, 96, 3), nil)
			if (err == nil) != (scaledErr == nil) || (err != nil && err.Error() != scaledErr.Error()) {
				t.Fatalf("offset %d: Decode returned %v, DecodeScaledInto %v", off, err, scaledErr)
			}
		}
	})

	t.Run("restart-interval-mismatch", func(t *testing.T) {
		// Lie in the DRI segment (8 → 7): the markers no longer fall where
		// the header says they do.
		data := corrupt(t, []byte{0xFF, 0xDD, 0x00, 0x04}, func(b []byte, idx int) { b[idx+4], b[idx+5] = 0, 7 })
		wantInterval(t, data, "restart interval")
	})
}

// TestDecodeScaledIntoRestartZeroAllocs extends the steady-state pin to
// DRI streams: restart markers cost the decoder no allocations.
func TestDecodeScaledIntoRestartZeroAllocs(t *testing.T) {
	for name, data := range driFixtures(t) {
		h, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		for _, side := range []int{96, 224} {
			var sc Scratch
			dst := pix.New(side, side, len(h.Components))
			if _, err := DecodeScaledInto(data, dst, &sc); err != nil {
				t.Fatalf("%s→%d: %v", name, side, err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := DecodeScaledInto(data, dst, &sc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s→%dx%d: %.1f allocs per decode, want 0", name, side, side, allocs)
			}
		}
	}
}

// TestRestartFixturesGeometry pins the checked-in DRI fixtures to the
// layouts they were generated with, so a stale regeneration is caught.
func TestRestartFixturesGeometry(t *testing.T) {
	cases := []struct {
		name       string
		w, h, c    int
		restartInt int
	}{
		{"dri-420.jpg", 512, 384, 3, 8},
		{"dri-422.jpg", 480, 320, 3, 12},
		{"dri-gray.jpg", 320, 320, 1, 16},
	}
	for _, tc := range cases {
		data, err := os.ReadFile(filepath.Join("testdata", "dri", tc.name))
		if err != nil {
			t.Fatalf("fixture %s: %v (regenerate with go run ./tools/genjpegfixtures)", tc.name, err)
		}
		h, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if h.Width != tc.w || h.Height != tc.h || len(h.Components) != tc.c {
			t.Fatalf("%s: got %dx%d c=%d, want %dx%d c=%d",
				tc.name, h.Width, h.Height, len(h.Components), tc.w, tc.h, tc.c)
		}
		if h.RestartInterval != tc.restartInt {
			t.Fatalf("%s: restart interval %d, want %d", tc.name, h.RestartInterval, tc.restartInt)
		}
	}
}
