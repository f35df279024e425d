package localsolve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// diagBlock returns the principal submatrix of rows and columns [0, n/8):
// rank 0's diagonal block of an 8-rank partition, the block its ILU(0)
// factor is built from.
func diagBlock(a *sparse.CSR) *sparse.CSR {
	idx := make([]int, a.Rows/8)
	for i := range idx {
		idx[i] = i
	}
	return a.Submatrix(idx, idx)
}

// TestILU0SolveKBitwiseSolve pins the fused sweep's contract: column c of
// SolveK is bitwise identical to Solve(z[c], r[c]), across widths that
// exercise the 8- and 4-column tiles and every remainder branch, on a Poisson
// factor and on diagonal blocks of the elasticity and circuit workloads.
func TestILU0SolveKBitwiseSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson", matgen.Poisson2D(13, 11)},
		{"elasticity", diagBlock(matgen.Elasticity3D(14, 14, 14, 27, 8))},
		{"circuit", diagBlock(matgen.CircuitLike(12000, 2.9, 0.35, 3))},
	} {
		a := tc.a
		f, err := NewILU0(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 16, 17, 32} {
			r := make([][]float64, k)
			zFused := make([][]float64, k)
			zSolo := make([][]float64, k)
			for c := range r {
				r[c] = make([]float64, a.Rows)
				for i := range r[c] {
					r[c][i] = rng.NormFloat64()
				}
				zFused[c] = make([]float64, a.Rows)
				zSolo[c] = make([]float64, a.Rows)
			}
			f.SolveK(zFused, r, make([]float64, k*a.Rows))
			for c := range r {
				f.Solve(zSolo[c], r[c])
				for i := range zSolo[c] {
					if zFused[c][i] != zSolo[c][i] {
						t.Fatalf("%s k=%d column %d: SolveK[%d] = %x, Solve = %x",
							tc.name, k, c, i, zFused[c][i], zSolo[c][i])
					}
				}
			}
		}
	}
}

// workloadDiagBlocks are rank 0's diagonal blocks of the repo benchmark's
// three workload matrices: the blocks its ILU(0) factors are built from.
func workloadDiagBlocks() []struct {
	name string
	a    *sparse.CSR
} {
	return []struct {
		name string
		a    *sparse.CSR
	}{
		{"elasticity", diagBlock(matgen.Elasticity3D(14, 14, 14, 27, 8))},
		{"circuit", diagBlock(matgen.CircuitLike(12000, 2.9, 0.35, 3))},
		{"poisson", diagBlock(matgen.Poisson2D(64, 64))},
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

// randomILU0 factors a random n×n block whose rows are diagonal-only or
// random, then overwrites its factor with values drawn by val: pivots and
// multipliers alike, so the sweeps meet every special value.
func randomILU0(t *testing.T, rng *rand.Rand, n int, val func() float64) *ILU0 {
	a := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
		if rng.Intn(3) == 0 {
			continue // a one-entry row
		}
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < 0.2 {
				a.Add(i, j, -1)
			}
		}
	}
	f, err := NewILU0(a.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	for p := range f.val {
		f.val[p] = val()
	}
	return f
}

// TestILU0SolveKSIMDMatchesGo holds the SIMD sweep to the Go sweep bit for
// bit, at every width 1…40 (each tile and the Go tail), on the workload
// diagonal blocks and on random blocks with one-entry rows, with ±0, ±Inf,
// NaN and subnormal values in the factor and the right-hand sides, and with
// z separate from r or aliasing it.
func TestILU0SolveKSIMDMatchesGo(t *testing.T) {
	if iluLanes == nil {
		t.Skip("no SIMD sweep on this platform and build")
	}
	rng := rand.New(rand.NewSource(17))
	special := func() float64 { return specialValue(rng) }
	type factor struct {
		name string
		f    *ILU0
		val  func() float64
	}
	var factors []factor
	for _, w := range workloadDiagBlocks() {
		f, err := NewILU0(w.a)
		if err != nil {
			t.Fatal(err)
		}
		factors = append(factors, factor{w.name, f, rng.NormFloat64})
	}
	for trial := 0; trial < 4; trial++ {
		factors = append(factors, factor{fmt.Sprintf("random %d", trial), randomILU0(t, rng, 1+rng.Intn(60), special), special})
	}
	for _, fc := range factors {
		n := fc.f.n
		for k := 1; k <= 40; k++ {
			r := make([][]float64, k)
			want := make([][]float64, k)
			got := make([][]float64, k)
			inPlace := make([][]float64, k)
			for c := range r {
				r[c] = make([]float64, n)
				for i := range r[c] {
					r[c][i] = fc.val()
				}
				want[c] = make([]float64, n)
				got[c] = make([]float64, n)
				inPlace[c] = append([]float64(nil), r[c]...)
			}
			fc.f.solveGo(want, r)
			fc.f.SolveK(got, r, make([]float64, n*k))
			fc.f.SolveK(inPlace, inPlace, make([]float64, n*k))
			for c := range r {
				for i := range r[c] {
					w := math.Float64bits(want[c][i])
					if g := math.Float64bits(got[c][i]); g != w {
						t.Fatalf("%s k=%d column %d row %d: SIMD %#x, Go %#x", fc.name, k, c, i, g, w)
					}
					if g := math.Float64bits(inPlace[c][i]); g != w {
						t.Fatalf("%s k=%d column %d row %d: SIMD in place %#x, Go %#x", fc.name, k, c, i, g, w)
					}
				}
			}
		}
	}
}

// BenchmarkILU0SolveK is the Go rung of precond.apply_s at width k: one
// SolveK on a workload diagonal block's factor, on the Go sweep and on the
// SIMD sweep SolveK dispatches to where there is one.
func BenchmarkILU0SolveK(b *testing.B) {
	type sweep struct {
		name  string
		solve func(f *ILU0, z, r [][]float64, work []float64)
	}
	sweeps := []sweep{{"go", func(f *ILU0, z, r [][]float64, _ []float64) { f.solveGo(z, r) }}}
	if iluLanes != nil {
		sweeps = append(sweeps, sweep{"simd", (*ILU0).SolveK})
	}
	for _, w := range workloadDiagBlocks() {
		f, err := NewILU0(w.a)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{4, 8, 16} {
			rng := rand.New(rand.NewSource(1))
			z := make([][]float64, k)
			r := make([][]float64, k)
			for c := range z {
				z[c] = make([]float64, w.a.Rows)
				r[c] = make([]float64, w.a.Rows)
				for i := range r[c] {
					r[c][i] = rng.NormFloat64()
				}
			}
			work := make([]float64, k*w.a.Rows)
			for _, s := range sweeps {
				b.Run(fmt.Sprintf("%s/k%d/%s", w.name, k, s.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						s.solve(f, z, r, work)
					}
				})
			}
		}
	}
}

// TestIC0SolveInPlace: Solve runs both sweeps in z, bit-identical to the
// forward sweep into a separate vector followed by the backward sweep from
// it, with z separate from r or aliasing it — and allocates nothing.
func TestIC0SolveInPlace(t *testing.T) {
	f, err := NewIC0(diagBlock(matgen.Elasticity3D(14, 14, 14, 27, 8)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	r := make([]float64, f.n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	y := make([]float64, f.n)
	want := make([]float64, f.n)
	f.SolveL(y, r)
	f.SolveLT(want, y)
	got := make([]float64, f.n)
	f.Solve(got, r)
	alias := append([]float64(nil), r...)
	f.Solve(alias, alias)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(alias[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: Solve = %x, aliased = %x, through a scratch vector %x", i, got[i], alias[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(10, func() { f.Solve(got, r) }); n != 0 {
		t.Fatalf("IC0.Solve allocates %v times per call, want 0", n)
	}
}

// solveIndexed is ILU0.Solve as it was before the rows were sliced: every
// factor access indexes val[k], col[k] through the struct. Kept as the
// reference the bounds-check-free sweeps must match bit for bit.
func (f *ILU0) solveIndexed(z, r []float64) {
	n := f.n
	for i := 0; i < n; i++ {
		s := r[i]
		for k := f.rowPtr[i]; k < f.diag[i]; k++ {
			s -= f.val[k] * z[f.col[k]]
		}
		z[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for k := f.diag[i] + 1; k < f.rowPtr[i+1]; k++ {
			s -= f.val[k] * z[f.col[k]]
		}
		z[i] = s / f.val[f.diag[i]]
	}
}

// elasticityBlock is a 1 152-row diagonal block's worth of the 27-point
// elasticity generator the elasticity-kernel workload runs (68 nnz/row).
func elasticityBlock(tb testing.TB) (*ILU0, []float64) {
	a := matgen.Elasticity3D(8, 8, 6, 27, 8)
	f, err := NewILU0(a)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	r := make([]float64, a.Rows)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	return f, r
}

// TestILU0SolveBitwiseIndexedLoop: slicing each row once performs the same
// operations in the same order, separately and with z aliasing r.
func TestILU0SolveBitwiseIndexedLoop(t *testing.T) {
	f, r := elasticityBlock(t)
	want := make([]float64, len(r))
	f.solveIndexed(want, r)
	got := make([]float64, len(r))
	f.Solve(got, r)
	alias := append([]float64(nil), r...)
	f.Solve(alias, alias)
	for i := range want {
		if got[i] != want[i] || alias[i] != want[i] {
			t.Fatalf("row %d: Solve = %x, aliased = %x, indexed loop = %x", i, got[i], alias[i], want[i])
		}
	}
}

// BenchmarkILU0Solve is one preconditioner application on the elasticity
// block, sliced rows against the indexed loop.
func BenchmarkILU0Solve(b *testing.B) {
	f, r := elasticityBlock(b)
	z := make([]float64, len(r))
	b.Run("sliced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.Solve(z, r)
		}
	})
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.solveIndexed(z, r)
		}
	})
}

// factorBranching is NewILU0's row update as it was before the dummy slot:
// a column absent from row i is skipped by a test on colPos. Kept as the
// reference the branchless factorisation must match bit for bit.
func factorBranching(a *sparse.CSR) []float64 {
	f, err := NewILU0(a) // for the diagonal positions only
	if err != nil {
		panic(err)
	}
	val := append([]float64(nil), a.Val...)
	var maxAbs float64
	for _, v := range val {
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	eps := 1e-12 * (maxAbs + 1)
	colPos := make([]int, a.Rows)
	for j := range colPos {
		colPos[j] = -1
	}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			colPos[a.Col[k]] = k
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1] && a.Col[k] < i; k++ {
			j := a.Col[k]
			piv := val[f.diag[j]]
			if math.Abs(piv) < eps {
				piv = eps
			}
			lij := val[k] / piv
			val[k] = lij
			for kk := f.diag[j] + 1; kk < a.RowPtr[j+1]; kk++ {
				if p := colPos[a.Col[kk]]; p >= 0 {
					val[p] -= lij * val[kk]
				}
			}
		}
		if math.Abs(val[f.diag[i]]) < eps {
			val[f.diag[i]] = eps
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			colPos[a.Col[k]] = -1
		}
	}
	return val
}

// TestNewILU0BitwiseBranchingUpdate: routing absent columns to a dummy slot
// performs the same operations on the same real slots, so every factor value
// is bit-identical to the branching update's, on all eight diagonal blocks of
// the benchmark workloads' generators.
func TestNewILU0BitwiseBranchingUpdate(t *testing.T) {
	const ranks = 8
	for name, a := range map[string]*sparse.CSR{
		"elasticity": matgen.Elasticity3D(14, 14, 14, 27, 8),
		"circuit":    matgen.CircuitLike(12000, 2.9, 0.35, 3),
		"poisson":    matgen.Poisson2D(64, 64),
	} {
		for r := 0; r < ranks; r++ {
			lo, hi := r*a.Rows/ranks, (r+1)*a.Rows/ranks
			idx := make([]int, hi-lo)
			for i := range idx {
				idx[i] = lo + i
			}
			blk := a.Submatrix(idx, idx)
			f, err := NewILU0(blk)
			if err != nil {
				t.Fatal(err)
			}
			want := factorBranching(blk)
			if len(f.val) != len(want) {
				t.Fatalf("%s block %d: %d factor values, want %d", name, r, len(f.val), len(want))
			}
			for k := range want {
				if math.Float64bits(f.val[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s block %d: value %d = %x, branching update %x", name, r, k, f.val[k], want[k])
				}
			}
		}
	}
}
