//go:build !purego

package localsolve

import "repro/internal/simd"

func init() {
	if simd.AVX2 {
		iluLanes = (*ILU0).sweepAVX2
	}
}

// sweepAVX2 is iluLanes in AVX2: four columns per YMM register, a row's
// 8-lane tiles and then its 4-lane tile before the next row.
func (f *ILU0) sweepAVX2(z, r [][]float64, w []float64) {
	iluLowerAVX2(w, r, f.rowPtr, f.diag, f.col, f.val)
	iluUpperAVX2(w, z, f.rowPtr, f.diag, f.col, f.val)
}

// iluLowerAVX2 is the forward sweep L y = r into the k-strided block w,
// k = len(r), gathering row i of r's columns as it starts row i.
//
//go:noescape
func iluLowerAVX2(w []float64, r [][]float64, rowPtr, diag, col []int, val []float64)

// iluUpperAVX2 is the backward sweep U x = y in place in w, scattering row i
// of the result to z's columns as it finishes row i.
//
//go:noescape
func iluUpperAVX2(w []float64, z [][]float64, rowPtr, diag, col []int, val []float64)
