//go:build !purego

package distmat

import "repro/internal/simd"

func init() {
	if simd.AVX2 {
		interleaveLanes = interleaveAVX2
		deinterleaveLanes = deinterleaveAVX2
	}
}

// interleaveAVX2 is interleaveLanes in AVX2: rows i…i+7 of four columns
// into rows i…i+7 of xb, every group of four columns before the next eight
// rows.
//
//go:noescape
func interleaveAVX2(xb []float64, cols [][]float64, k, bs int)

// deinterleaveAVX2 is deinterleaveLanes in AVX2: rows i…i+7 of yb out to
// rows i…i+7 of four columns, every group of four columns before the next
// eight rows.
//
//go:noescape
func deinterleaveAVX2(cols [][]float64, yb []float64, k, bs int)
