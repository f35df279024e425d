//go:build !purego

package vec

import "repro/internal/simd"

func init() {
	if simd.AVX2 {
		axpyAxpyLanes = axpyAxpyAVX2
		axpbyLanes = axpbyAVX2
		dot2KLanes = dot2KAVX2
	}
}

// axpyAxpyAVX2 is axpyAxpyLanes in AVX2: eight elements per pass, y's
// update stored before u and v are read, then four, then one at a time.
//
//go:noescape
func axpyAxpyAVX2(a float64, x, y []float64, b float64, u, v []float64)

// axpbyAVX2 is axpbyLanes in AVX2: eight elements per pass, then four, then
// one at a time.
//
//go:noescape
func axpbyAVX2(a float64, x []float64, b float64, y []float64)

// dot2KAVX2 is dot2KLanes in AVX2: a group of four columns per pass over
// the rows, its two sums in two registers, eight rows per step, then four,
// then the last n%4 rows one at a time.
//
//go:noescape
func dot2KAVX2(s, t []float64, x, y, u, v [][]float64, n int)
