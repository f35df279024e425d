package localsolve

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matgen"
	"repro/internal/partition"
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

// workloadMatrices are the repo benchmark's three workload matrices.
func workloadMatrices() []struct {
	name string
	a    *sparse.CSR
} {
	return []struct {
		name string
		a    *sparse.CSR
	}{
		{"elasticity", matgen.Elasticity3D(14, 14, 14, 27, 8)},
		{"circuit", matgen.CircuitLike(12000, 2.9, 0.35, 3)},
		{"poisson", matgen.Poisson2D(64, 64)},
	}
}

// rankBlocks returns the diagonal blocks of a's block-row partition over
// the given number of ranks: the blocks the ranks' ILU(0) factors are built
// from.
func rankBlocks(a *sparse.CSR, ranks int) []*sparse.CSR {
	p := partition.NewBlockRow(a.Rows, ranks)
	blocks := make([]*sparse.CSR, ranks)
	for r := range blocks {
		lo, hi := p.Range(r)
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		blocks[r] = a.Submatrix(idx, idx)
	}
	return blocks
}

// workloadDiagBlocks are rank 0's diagonal blocks of the repo benchmark's
// three workload matrices: the blocks its ILU(0) factors are built from.
func workloadDiagBlocks() []struct {
	name string
	a    *sparse.CSR
} {
	ws := workloadMatrices()
	for i := range ws {
		ws[i].a = diagBlock(ws[i].a)
	}
	return ws
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

// TestILU0LevelSweepMatchesNatural holds the level-scheduled sweep to the
// indexed reference sweep bit for bit, whatever levelRule says of the block:
// on every rank block of the catalogue at tiny scale and of the benchmark's
// three workload matrices over 8 ranks, on empty, one-row and one-level
// blocks and on random blocks whose factor holds special values, with r
// holding normal values or ±0, ±Inf, NaN and subnormals, and with z separate
// from r or aliasing it. Solve, which picks its sweep by the rule, must
// match too.
func TestILU0LevelSweepMatchesNatural(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type block struct {
		name string
		a    *sparse.CSR
	}
	var blocks []block
	for _, e := range matgen.Catalogue() {
		for r, a := range rankBlocks(e.Build(matgen.ScaleTiny), 8) {
			blocks = append(blocks, block{fmt.Sprintf("%s block %d", e.ID, r), a})
		}
	}
	for _, w := range workloadMatrices() {
		for r, a := range rankBlocks(w.a, 8) {
			blocks = append(blocks, block{fmt.Sprintf("%s block %d", w.name, r), a})
		}
	}
	one, diagonal := sparse.NewCOO(1, 1), sparse.NewCOO(17, 17)
	one.Add(0, 0, 3)
	for i := 0; i < 17; i++ {
		diagonal.Add(i, i, float64(i)-8.5)
	}
	blocks = append(blocks,
		block{"empty", sparse.NewCOO(0, 0).ToCSR()},
		block{"one row", one.ToCSR()},
		block{"one level", diagonal.ToCSR()})
	var factors []*ILU0
	var names []string
	for _, b := range blocks {
		f, err := NewILU0(b.a)
		if err != nil {
			t.Fatal(err)
		}
		factors, names = append(factors, f), append(names, b.name)
	}
	special := func() float64 { return specialValue(rng) }
	for trial := 0; trial < 4; trial++ {
		factors = append(factors, randomILU0(t, rng, 1+rng.Intn(60), special))
		names = append(names, fmt.Sprintf("random %d", trial))
	}
	for b, f := range factors {
		sched := f.schedule()
		for _, draw := range []func() float64{rng.NormFloat64, special} {
			r := make([]float64, f.n)
			for i := range r {
				r[i] = draw()
			}
			want := make([]float64, f.n)
			f.solveIndexed(want, r)
			got := make([]float64, f.n)
			f.solveLevels(sched, got, r)
			alias := append([]float64(nil), r...)
			f.solveLevels(sched, alias, alias)
			solved := make([]float64, f.n)
			f.Solve(solved, r)
			for i := range want {
				w := math.Float64bits(want[i])
				if g := math.Float64bits(got[i]); g != w {
					t.Fatalf("%s row %d: level sweep %#x, natural %#x", names[b], i, g, w)
				}
				if g := math.Float64bits(alias[i]); g != w {
					t.Fatalf("%s row %d: level sweep in place %#x, natural %#x", names[b], i, g, w)
				}
				if g := math.Float64bits(solved[i]); g != w {
					t.Fatalf("%s row %d: Solve %#x, natural %#x", names[b], i, g, w)
				}
			}
		}
	}
}

// TestILU0LevelRule pins the blocks the rules send to the level sweep:
// every rank block over 8 ranks of Poisson 2D 64², of the circuit workload
// and of M3, and none of the elasticity workload's, M2's or M4–M8's. M4 is
// sized at small scale, where its blocks hold 2.74 strictly-lower entries
// per row: a tiny block is a single plane of the mesh, a 2D pattern like
// Poisson's. A Poisson strip 4 points wide passes the entry count but has
// 4 rows per level, too few for levelWidthRule. A steady-state Solve on a
// scheduled factor allocates nothing.
func TestILU0LevelRule(t *testing.T) {
	cases := []struct {
		name   string
		a      *sparse.CSR
		levels bool
	}{
		{"poisson", matgen.Poisson2D(64, 64), true},
		{"circuit", matgen.CircuitLike(12000, 2.9, 0.35, 3), true},
		{"M3", matgen.ByIDOrDie("M3").Build(matgen.ScaleSmall), true},
		{"elasticity", matgen.Elasticity3D(14, 14, 14, 27, 8), false},
		{"M2", matgen.ByIDOrDie("M2").Build(matgen.ScaleTiny), false},
		{"M4", matgen.ByIDOrDie("M4").Build(matgen.ScaleSmall), false},
		{"poisson strip", matgen.Poisson2D(4, 384), false},
	}
	for _, id := range []string{"M5", "M6", "M7", "M8"} {
		cases = append(cases, struct {
			name   string
			a      *sparse.CSR
			levels bool
		}{id, matgen.ByIDOrDie(id).Build(matgen.ScaleTiny), false})
	}
	for _, c := range cases {
		for r, a := range rankBlocks(c.a, 8) {
			f, err := NewILU0(a)
			if err != nil {
				t.Fatal(err)
			}
			if got := f.leveled() != nil; got != c.levels {
				t.Errorf("%s block %d: level schedule %v, want %v", c.name, r, got, c.levels)
			}
		}
	}
	f, err := NewILU0(diagBlock(matgen.Poisson2D(64, 64)))
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, f.n)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	z := make([]float64, f.n)
	f.Solve(z, r)
	if f.levels == nil {
		t.Fatal("the Poisson block has no level schedule")
	}
	if n := testing.AllocsPerRun(10, func() { f.Solve(z, r) }); n != 0 {
		t.Fatalf("a scheduled ILU0.Solve allocates %v times per call, want 0", n)
	}
}

// TestILU0LevelFirstSolveConcurrent: the schedule is built on the first
// Solve, and a factor is shared by concurrent solves, so several first
// Solves at once must build it once and each get the natural sweep's bits
// (run it under -race).
func TestILU0LevelFirstSolveConcurrent(t *testing.T) {
	f, err := NewILU0(diagBlock(matgen.CircuitLike(12000, 2.9, 0.35, 3)))
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, f.n)
	for i := range r {
		r[i] = float64(i%11) - 5
	}
	want := make([]float64, f.n)
	f.solveIndexed(want, r)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := make([]float64, f.n)
			f.Solve(z, r)
			for i := range want {
				if math.Float64bits(z[i]) != math.Float64bits(want[i]) {
					t.Errorf("row %d: Solve %x, natural %x", i, z[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if f.levels == nil {
		t.Fatal("the circuit block has no level schedule")
	}
}

// BenchmarkILU0Solve is the one-column rung of precond.apply_s: one sweep
// over each of the eight rank blocks of a workload matrix, in row order
// (natural) and as Solve runs it (solve: level order where levelRule
// accepts the factor, so on elasticity the two rows run the same sweep).
func BenchmarkILU0Solve(b *testing.B) {
	for _, w := range workloadMatrices() {
		var fs []*ILU0
		var zs, rs [][]float64
		rng := rand.New(rand.NewSource(1))
		for _, blk := range rankBlocks(w.a, 8) {
			f, err := NewILU0(blk)
			if err != nil {
				b.Fatal(err)
			}
			r := make([]float64, blk.Rows)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			fs, zs, rs = append(fs, f), append(zs, make([]float64, blk.Rows)), append(rs, r)
		}
		for _, s := range []struct {
			name  string
			solve func(f *ILU0, z, r []float64)
		}{{"natural", (*ILU0).solveNatural}, {"solve", (*ILU0).Solve}} {
			b.Run(w.name+"/"+s.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for k, f := range fs {
						s.solve(f, zs[k], rs[k])
					}
				}
			})
		}
	}
}

// BenchmarkILU0Factor is the rung of localsolve.factor_s: NewILU0 on each
// of the eight rank blocks of a workload matrix (factor), and the level
// schedule the first one-column Solve builds on them (levels, whatever
// levelRule says); and NewILU0 on a whole 16³ Poisson 3D matrix.
func BenchmarkILU0Factor(b *testing.B) {
	b.Run("poisson3d", func(b *testing.B) {
		a := matgen.Poisson3D(16, 16, 16)
		for i := 0; i < b.N; i++ {
			if _, err := NewILU0(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, w := range workloadMatrices() {
		blocks := rankBlocks(w.a, 8)
		b.Run(w.name+"/factor", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, blk := range blocks {
					if _, err := NewILU0(blk); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(w.name+"/levels", func(b *testing.B) {
			fs := make([]*ILU0, len(blocks))
			for k, blk := range blocks {
				f, err := NewILU0(blk)
				if err != nil {
					b.Fatal(err)
				}
				fs[k] = f
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range fs {
					f.schedule()
				}
			}
		})
	}
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
