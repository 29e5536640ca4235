package jpeg

import "math"

// 8×8 forward DCT (T.81 §A.3.3), implemented as two passes of a
// precomputed 1-D basis: clarity over micro-optimisation, since only the
// encoder runs it. The decoder's inverse transforms are in kernels.go;
// their plain two-pass reference, idct, is in reference_test.go.

// cosBasis[u][x] = alpha(u)/2 * cos((2x+1)uπ/16), the 8-point scaledBasis,
// so that an 8-point transform is a plain matrix product.
var cosBasis = scaledBasis[8]

// block holds one 8×8 coefficient or sample block in natural (row-major)
// order.
type block [64]int32

// fdct transforms level-shifted samples into DCT coefficients.
func fdct(samples *[64]byte, out *block) {
	var shifted [64]float64
	for i, s := range samples {
		shifted[i] = float64(s) - 128
	}
	var tmp [64]float64
	// Columns: tmp[u][y] = Σ_x basis[u][x] · shifted[x][y]
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var s float64
			for x := 0; x < 8; x++ {
				s += cosBasis[u][x] * shifted[x*8+y]
			}
			tmp[u*8+y] = s
		}
	}
	// Rows: coef[u][v] = Σ_y basis[v][y] · tmp[u][y]
	for u := 0; u < 8; u++ {
		row := tmp[u*8 : u*8+8 : u*8+8]
		for v := 0; v < 8; v++ {
			var s float64
			for y := 0; y < 8; y++ {
				s += cosBasis[v][y] * row[y]
			}
			out[u*8+v] = int32(math.Round(s))
		}
	}
}

// quantize divides coefficients by the table with round-to-nearest,
// producing the levels the entropy coder transmits.
func quantize(coef *block, q *QuantTable, out *block) {
	for i := range coef {
		c := coef[i]
		d := int32(q[i])
		if c >= 0 {
			out[i] = (c + d/2) / d
		} else {
			out[i] = -((-c + d/2) / d)
		}
	}
}

// dequantize multiplies levels back into coefficient magnitudes.
func dequantize(levels *block, q *QuantTable, out *block) {
	for i := range levels {
		out[i] = levels[i] * int32(q[i])
	}
}

func clamp8(v int32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}
