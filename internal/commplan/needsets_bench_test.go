package commplan

import (
	"testing"

	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// BenchmarkNeedSets measures the ghost discovery of the symbolic phase: one
// op is NeedSets for each of 8 ranks on the repo benchmark's three workload
// matrices.
func BenchmarkNeedSets(b *testing.B) {
	const ranks = 8
	for _, bc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"elasticity14", matgen.Elasticity3D(14, 14, 14, 27, 8)},
		{"circuit12000", matgen.CircuitLike(12000, 2.9, 0.35, 3)},
		{"poisson64", matgen.Poisson2D(64, 64)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := partition.NewBlockRow(bc.a.Rows, ranks)
			blocks := make([]*sparse.CSR, ranks)
			for r := range blocks {
				lo, hi := p.Range(r)
				blocks[r] = bc.a.RowBlock(lo, hi)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, blk := range blocks {
					needSink = NeedSets(blk, p, r)
				}
			}
		})
	}
}

var needSink [][]int
