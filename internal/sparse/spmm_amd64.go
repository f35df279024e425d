//go:build !purego

package sparse

import "repro/internal/simd"

func init() {
	if simd.AVX2 {
		spmmLanes = spmmAVX2
	}
}

// spmmAVX2 is spmmLanes in AVX2: four columns per YMM register, the 8- and
// 4-column tiles of two rows in flight at once, so the two rows' independent
// add chains hide each other's latency.
//
//go:noescape
func spmmAVX2(y, x []float64, rowPtr, col []int, val []float64, rows []int, k, lo, hi int)
