package sparse_test

import (
	"fmt"
	"math"
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

// defaultNaN is the NaN x86 produces itself, from 0·Inf or Inf-Inf. When
// two NaNs meet, the hardware returns the first operand's, and the Go
// compiler orders a product's operands per site, so NaNs with different
// payloads would make even two Go kernels disagree in the payload: every NaN
// the kernel tests inject is this one, and so is every NaN a kernel forms.
var defaultNaN = math.Float64frombits(0xfff8000000000000)

// specialValue draws a value for the kernel tests: mostly normal, else one
// of ±0, ±Inf, NaN, a subnormal or a value whose products overflow.
func specialValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), defaultNaN, 5e-324, -5e-324, 1e308, -1e308}[rng.Intn(9)]
	case 1:
		return rng.NormFloat64() * 1e-310 // subnormal
	default:
		return rng.NormFloat64()
	}
}

// randomSpMMBlock returns an r×c CSR whose rows are empty, one-entry or
// random, with values drawn by val.
func randomSpMMBlock(rng *rand.Rand, r, c int, val func() float64) *sparse.CSR {
	a := sparse.NewCOO(r, c)
	for i := 0; i < r; i++ {
		switch rng.Intn(4) {
		case 0: // empty
		case 1:
			a.Add(i, rng.Intn(c), 1)
		default:
			for j := 0; j < c; j++ {
				if rng.Float64() < 0.3 {
					a.Add(i, j, 1)
				}
			}
		}
	}
	m := a.ToCSR()
	for t := range m.Val {
		m.Val[t] = val()
	}
	return m
}

// TestMulMatSIMDMatchesGo holds the SIMD SpMM kernel to the Go one bit for
// bit, at every width 1…40 (each tile and tail branch), on the workload row
// blocks and on random blocks with empty and one-entry rows, with ±0, ±Inf,
// NaN and subnormal values in the matrix and the block.
func TestMulMatSIMDMatchesGo(t *testing.T) {
	if !sparse.HasSIMDKernel() {
		t.Skip("no SIMD SpMM kernel on this platform and build")
	}
	rng := rand.New(rand.NewSource(11))
	normal := rng.NormFloat64
	special := func() float64 { return specialValue(rng) }
	type block struct {
		name string
		m    *sparse.CSR
		val  func() float64
	}
	var blocks []block
	for _, w := range workloadBlocks() {
		blocks = append(blocks, block{w.name, w.blk, normal})
	}
	for trial := 0; trial < 4; trial++ {
		r, c := 1+rng.Intn(50), 1+rng.Intn(50)
		blocks = append(blocks, block{fmt.Sprintf("random %d", trial), randomSpMMBlock(rng, r, c, special), special})
	}
	for _, b := range blocks {
		for k := 1; k <= 40; k++ {
			x := make([]float64, b.m.Cols*k)
			for i := range x {
				x[i] = b.val()
			}
			want := make([]float64, b.m.Rows*k)
			sparse.GoMulMat(b.m, want, x, k)
			got := make([]float64, b.m.Rows*k)
			b.m.MulMat(got, x, k)
			// The scatter kernel with the rows reversed.
			rows := make([]int, b.m.Rows)
			for i := range rows {
				rows[i] = b.m.Rows - 1 - i
			}
			scat := make([]float64, b.m.Rows*k)
			b.m.MulMatScatterPar(scat, x, rows, k)
			for i := 0; i < b.m.Rows; i++ {
				for j := 0; j < k; j++ {
					w := math.Float64bits(want[i*k+j])
					if g := math.Float64bits(got[i*k+j]); g != w {
						t.Fatalf("%s k=%d row %d column %d: SIMD %#x, Go %#x", b.name, k, i, j, g, w)
					}
					if s := math.Float64bits(scat[rows[i]*k+j]); s != w {
						t.Fatalf("%s k=%d row %d column %d: SIMD scatter %#x, Go %#x", b.name, k, i, j, s, w)
					}
				}
			}
		}
	}
}

// BenchmarkMulMat is the Go rung of sparse.spmm_s_per_col: one MulMat over
// a workload row block at width k, reported per stored entry and column,
// on the Go kernel and on the SIMD kernel MulMat dispatches to where there
// is one.
func BenchmarkMulMat(b *testing.B) {
	type kernel struct {
		name string
		mul  func(m *sparse.CSR, y, x []float64, k int)
	}
	kernels := []kernel{{"go", sparse.GoMulMat}}
	if sparse.HasSIMDKernel() {
		kernels = append(kernels, kernel{"simd", (*sparse.CSR).MulMat})
	}
	for _, w := range workloadBlocks() {
		for _, k := range []int{4, 8, 16} {
			for _, kern := range kernels {
				b.Run(fmt.Sprintf("%s/k%d/%s", w.name, k, kern.name), func(b *testing.B) {
					rng := rand.New(rand.NewSource(1))
					x := make([]float64, w.blk.Cols*k)
					for i := range x {
						x[i] = rng.NormFloat64()
					}
					y := make([]float64, w.blk.Rows*k)
					b.ResetTimer()
					start := time.Now()
					for i := 0; i < b.N; i++ {
						kern.mul(w.blk, y, x, k)
					}
					elapsed := time.Since(start)
					b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*w.blk.NNZ()*k), "ns/entry-col")
				})
			}
		}
	}
}
