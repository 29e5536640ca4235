package pix

import (
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(4, 3, 3)
	if m.Size() != 36 || len(m.Pix) != 36 {
		t.Fatalf("size = %d", m.Size())
	}
	m.Set(1, 2, 0, 99)
	if m.At(1, 2, 0) != 99 {
		t.Fatal("Set/At mismatch")
	}
	if m.Pix[(2*4+1)*3] != 99 {
		t.Fatal("unexpected layout")
	}
}

func TestNewPanics(t *testing.T) {
	for _, tc := range [][3]int{{0, 1, 1}, {1, 0, 1}, {-1, 1, 3}, {1, 1, 2}, {1, 1, 0}, {1, 1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", tc)
				}
			}()
			New(tc[0], tc[1], tc[2])
		}()
	}
}

func TestView(t *testing.T) {
	buf := make([]byte, 12)
	m, err := View(2, 2, 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, 0, 7)
	if buf[0] != 7 {
		t.Fatal("View copied instead of wrapping")
	}
	if _, err := View(2, 2, 3, make([]byte, 11)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := View(0, 2, 3, nil); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := View(2, 2, 2, make([]byte, 8)); err == nil {
		t.Fatal("2 channels accepted")
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	m := New(4, 4, 3)
	first := &m.Pix[0]
	m.Reset(2, 3, 1)
	if m.W != 2 || m.H != 3 || m.C != 1 || len(m.Pix) != 6 || &m.Pix[0] != first {
		t.Fatalf("shrinking Reset: %dx%dx%d, %d samples, reused %v", m.W, m.H, m.C, len(m.Pix), &m.Pix[0] == first)
	}
	m.Reset(8, 8, 3)
	if len(m.Pix) != 192 || m.Size() != 192 {
		t.Fatalf("growing Reset: %d samples", len(m.Pix))
	}
	var zero Image
	zero.Reset(1, 2, 3)
	if len(zero.Pix) != 6 {
		t.Fatalf("Reset of the zero Image: %d samples", len(zero.Pix))
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New(2, 2, 1)
	m.Set(0, 0, 0, 5)
	c := m.Clone()
	c.Set(0, 0, 0, 9)
	if m.At(0, 0, 0) != 5 {
		t.Fatal("Clone shares storage")
	}
	if !m.EqualGeometry(c) {
		t.Fatal("Clone changed geometry")
	}
}

func TestMaxAbsDiffAndMSE(t *testing.T) {
	a := New(2, 1, 1)
	b := New(2, 1, 1)
	a.Pix[0], a.Pix[1] = 10, 20
	b.Pix[0], b.Pix[1] = 13, 16
	d, err := a.MaxAbsDiff(b)
	if err != nil || d != 4 {
		t.Fatalf("MaxAbsDiff = %d, %v", d, err)
	}
	mse, err := a.MeanSquaredError(b)
	if err != nil || mse != (9+16)/2.0 {
		t.Fatalf("MSE = %v, %v", mse, err)
	}
	c := New(3, 1, 1)
	if _, err := a.MaxAbsDiff(c); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if _, err := a.MeanSquaredError(c); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// TestDiffMetricsProperties: MaxAbsDiff and MSE are symmetric, zero on
// identical images, and MSE ≤ MaxAbsDiff².
func TestDiffMetricsProperties(t *testing.T) {
	f := func(p1, p2 [8]byte) bool {
		a := New(4, 2, 1)
		b := New(4, 2, 1)
		copy(a.Pix, p1[:])
		copy(b.Pix, p2[:])
		dab, _ := a.MaxAbsDiff(b)
		dba, _ := b.MaxAbsDiff(a)
		if dab != dba {
			return false
		}
		mab, _ := a.MeanSquaredError(b)
		mba, _ := b.MeanSquaredError(a)
		if mab != mba {
			return false
		}
		if mab > float64(dab*dab) {
			return false
		}
		saa, _ := a.MaxAbsDiff(a)
		maa, _ := a.MeanSquaredError(a)
		return saa == 0 && maa == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
