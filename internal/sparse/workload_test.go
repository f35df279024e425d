package sparse_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// workloadBlocks returns row block 0 of an 8-rank partition of each of the
// repo benchmark's three workload matrices: what one rank's SpMM walks.
func workloadBlocks() []struct {
	name string
	blk  *sparse.CSR
} {
	const ranks = 8
	out := []struct {
		name string
		blk  *sparse.CSR
	}{
		{"elasticity", matgen.Elasticity3D(14, 14, 14, 27, 8)},
		{"circuit", matgen.CircuitLike(12000, 2.9, 0.35, 3)},
		{"poisson", matgen.Poisson2D(64, 64)},
	}
	for i := range out {
		out[i].blk = out[i].blk.RowBlock(0, out[i].blk.Rows/ranks)
	}
	return out
}

// TestMulMatWorkloadBlocksBitwiseMulVec holds the SpMM determinism contract
// on the workload row blocks, whose size puts MulMatScatterPar on its
// pooled, row-chunked branch.
func TestMulMatWorkloadBlocksBitwiseMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, w := range workloadBlocks() {
		for _, k := range sparse.MulMatWidths {
			sparse.CheckMulMatBitwise(t, w.name, w.blk, k, rng)
		}
	}
}

// BenchmarkMulMat is the Go rung of sparse.spmm_s_per_col: one MulMat over
// a workload row block at width k, reported per stored entry and column.
func BenchmarkMulMat(b *testing.B) {
	for _, w := range workloadBlocks() {
		for _, k := range []int{1, 4, 8, 16, 32, 64} {
			b.Run(fmt.Sprintf("%s/k%d", w.name, k), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				x := make([]float64, w.blk.Cols*k)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				y := make([]float64, w.blk.Rows*k)
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					w.blk.MulMat(y, x, k)
				}
				elapsed := time.Since(start)
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*w.blk.NNZ()*k), "ns/entry-col")
			})
		}
	}
}
