package imageproc

import (
	"testing"
	"testing/quick"

	"dlbooster/internal/pix"
)

func gradient(w, h, c int) *pix.Image {
	img := pix.New(w, h, c)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for ch := 0; ch < c; ch++ {
				img.Set(x, y, ch, byte((x*255/maxInt(w-1, 1)+y*255/maxInt(h-1, 1))/2+ch))
			}
		}
	}
	return img
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestResizeIdentity(t *testing.T) {
	src := gradient(20, 30, 3)
	for _, ip := range []Interpolation{Nearest, Bilinear} {
		dst, err := Resize(src, 20, 30, ip)
		if err != nil {
			t.Fatal(err)
		}
		maxd, err := src.MaxAbsDiff(dst)
		if err != nil {
			t.Fatal(err)
		}
		if maxd > 0 {
			t.Errorf("%v identity resize differs by %d", ip, maxd)
		}
	}
}

func TestResizeGeometry(t *testing.T) {
	src := gradient(100, 80, 3)
	for _, tc := range []struct{ w, h int }{{50, 40}, {224, 224}, {1, 1}, {13, 99}} {
		for _, ip := range []Interpolation{Nearest, Bilinear} {
			dst, err := Resize(src, tc.w, tc.h, ip)
			if err != nil {
				t.Fatal(err)
			}
			if dst.W != tc.w || dst.H != tc.h || dst.C != 3 {
				t.Fatalf("%v: got %dx%dx%d", ip, dst.W, dst.H, dst.C)
			}
		}
	}
}

// TestResizeDownPreservesConstant: a flat image stays flat under both
// filters at any scale.
func TestResizeConstantProperty(t *testing.T) {
	f := func(v uint8, wSeed, hSeed, dwSeed, dhSeed uint8) bool {
		w, h := int(wSeed)%64+1, int(hSeed)%64+1
		dw, dh := int(dwSeed)%64+1, int(dhSeed)%64+1
		src := pix.New(w, h, 1)
		for i := range src.Pix {
			src.Pix[i] = v
		}
		for _, ip := range []Interpolation{Nearest, Bilinear} {
			dst, err := Resize(src, dw, dh, ip)
			if err != nil {
				return false
			}
			for _, s := range dst.Pix {
				if s != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBilinearMonotoneGradient: bilinear downsampling of a horizontal
// gradient stays monotone along x.
func TestBilinearMonotoneGradient(t *testing.T) {
	src := pix.New(128, 16, 1)
	for y := 0; y < 16; y++ {
		for x := 0; x < 128; x++ {
			src.Set(x, y, 0, byte(x*2))
		}
	}
	dst, err := Resize(src, 32, 8, Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < dst.H; y++ {
		for x := 1; x < dst.W; x++ {
			if dst.At(x, y, 0) < dst.At(x-1, y, 0) {
				t.Fatalf("non-monotone at (%d,%d): %d < %d", x, y, dst.At(x, y, 0), dst.At(x-1, y, 0))
			}
		}
	}
}

func TestResizeIntoChannelMismatch(t *testing.T) {
	src := gradient(8, 8, 3)
	dst := pix.New(4, 4, 1)
	if err := ResizeInto(src, dst, Nearest); err == nil {
		t.Fatal("channel mismatch accepted")
	}
	if err := ResizeInto(src, pix.New(4, 4, 3), Interpolation(99)); err == nil {
		t.Fatal("unknown interpolation accepted")
	}
}
