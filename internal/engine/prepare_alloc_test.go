package engine

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// budgetConfig is the session the memory budgets are measured on: the
// elasticity-kernel workload's shape (8 ranks, phi 3, block-Jacobi ILU(0)).
var budgetConfig = Config{Ranks: 8, Phi: 3, Preconditioner: "block-jacobi-ilu"}

// TestPrepareAllocationBudget: a session copies its matrix a bounded number
// of times. Prepare on the elasticity-kernel workload's problem may allocate
// at most 3x the matrix's own 16 B per stored entry — the one localised
// split, the own block and the factor's values, plus small change; the rank
// row blocks are views of the caller's matrix — in a bounded number of
// allocations: every array is counted before it is filled. A reintroduced
// row-block copy or an append-grown array fails here, not in a bench run.
func TestPrepareAllocationBudget(t *testing.T) {
	a := matgen.Elasticity3D(14, 14, 14, 27, 8)
	prepare := func() {
		ps, err := Prepare(a, budgetConfig)
		if err != nil {
			t.Fatal(err)
		}
		ps.Close()
	}
	prepare() // pools and lazy runtime state
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		prepare()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	matrix := float64(16 * a.NNZ())
	t.Logf("per Prepare: %.1f MB in %.0f allocations, %.2fx the matrix's %.2f MB",
		bytes/1e6, allocs, bytes/matrix, matrix/1e6)
	if bytes > 3*matrix {
		t.Errorf("Prepare allocates %.1f MB, %.2fx the matrix's %.2f MB (budget 3x)", bytes/1e6, bytes/matrix, matrix/1e6)
	}
	if allocs > 2000 {
		t.Errorf("Prepare makes %.0f allocations (budget 2000)", allocs)
	}
}

// sessionRetained returns the heap a prepared session keeps live: the heap
// after a collection with the session held, minus the heap before Prepare.
// Two collections on each side empty the transport's buffer pools (a pooled
// buffer survives one in the pool's victim cache), so only what the session
// references is counted.
func sessionRetained(tb testing.TB, a *sparse.CSR, cfg Config) float64 {
	tb.Helper()
	warm, err := Prepare(a, cfg) // pools and lazy runtime state
	if err != nil {
		tb.Fatal(err)
	}
	warm.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	ps, err := Prepare(a, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ps)
	ps.Close()
	return float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
}

// TestSessionRetainedBudget: a prepared session holds its matrix once. On
// the elasticity-kernel problem what a session keeps live — the localised
// split, the own-block pattern the ILU(0) factor shares and the factor's
// values — stays under 2.25x the matrix's 16 B per stored entry; a second
// copy of the rows (a retained global-column row block, the ghost entries
// stored twice) does not fit.
func TestSessionRetainedBudget(t *testing.T) {
	a := matgen.Elasticity3D(14, 14, 14, 27, 8)
	retained := sessionRetained(t, a, budgetConfig)
	matrix := float64(16 * a.NNZ())
	t.Logf("a session retains %.1f MB, %.2fx the matrix's %.2f MB", retained/1e6, retained/matrix, matrix/1e6)
	if retained > 2.25*matrix {
		t.Errorf("a session retains %.1f MB, %.2fx the matrix's %.2f MB (budget 2.25x)", retained/1e6, retained/matrix, matrix/1e6)
	}
}

// TestSessionHoldsNoSliceOfTheInput: after Prepare returns, the caller's
// matrix is the caller's. Overwriting every stored value with NaN leaves a
// session's solves — failure-free and through a reconstruction episode,
// which reads the static rows again (the ghost products; Jacobi and ic0 +
// SPCG sessions also factor the lost own blocks) — bit-identical to its
// solves before.
func TestSessionHoldsNoSliceOfTheInput(t *testing.T) {
	a := matgen.Elasticity3D(6, 6, 6, 27, 8)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + math.Sin(float64(i)*0.13)
	}
	sched := func() *faults.Schedule { return faults.NewSchedule(faults.Simultaneous(4, 2, 3)) }
	for _, cfg := range []Config{
		{Preconditioner: PrecondBlockJacobiILU},
		{Preconditioner: PrecondJacobi},
		{Preconditioner: PrecondIC0, Method: MethodSPCG},
	} {
		pc := cfg.Preconditioner
		cfg.Ranks, cfg.Phi = 8, 3
		a := a.Clone()
		ps, err := Prepare(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		solve := func() [2]Solution {
			var out [2]Solution
			for i, s := range []*faults.Schedule{nil, sched()} {
				if out[i], err = ps.Solve(context.Background(), b, Config{Tol: 1e-10, Schedule: s}); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		want := solve()
		for i := range a.Val {
			a.Val[i] = math.NaN()
		}
		got := solve()
		ps.Close()
		for s := range want {
			if got[s].Result.Iterations != want[s].Result.Iterations || len(got[s].Result.Reconstructions) != len(want[s].Result.Reconstructions) {
				t.Fatalf("%s solve %d: %d iterations / %d episodes after the input changed, %d / %d before",
					pc, s, got[s].Result.Iterations, len(got[s].Result.Reconstructions), want[s].Result.Iterations, len(want[s].Result.Reconstructions))
			}
			for i := range want[s].X {
				if math.Float64bits(got[s].X[i]) != math.Float64bits(want[s].X[i]) {
					t.Fatalf("%s solve %d: x[%d] = %x after the input changed, %x before", pc, s, i, got[s].X[i], want[s].X[i])
				}
			}
		}
		if len(want[1].Result.Reconstructions) != 1 {
			t.Fatalf("%s: the scheduled solve ran %d episodes, want 1", pc, len(want[1].Result.Reconstructions))
		}
	}
}

// TestBatchWorkingSetBudget: a solve holds ESR's redundant copies once. A
// 16-column block solve on the elasticity-kernel problem (8 ranks, phi 3,
// block-Jacobi ILU(0)) may add at most 18x its k·n float64s to the live heap
// at iteration 12: the per-column vectors, the SpMM scratch and two
// generations of received copies in buffers at most 1/8 over their size. A
// third live generation, a power-of-two round-up of every payload, a copy of
// each rank's own block per iteration or a retention index per fork does not
// fit.
func TestBatchWorkingSetBudget(t *testing.T) {
	const k, at = 16, 12
	a := matgen.Elasticity3D(14, 14, 14, 27, 8)
	ps, err := Prepare(a, budgetConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	bs := make([][]float64, k)
	for c := range bs {
		bs[c] = make([]float64, a.Rows)
		for i := range bs[c] {
			bs[c][i] = 1 + math.Sin(float64(i*(c+1))*0.013)
		}
	}
	var before, mid runtime.MemStats
	measured := false
	tracer := onIteration(func(it core.IterationTrace) {
		if it.Iteration == at && !measured {
			runtime.GC()
			runtime.ReadMemStats(&mid)
			measured = true
		}
	})
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := ps.SolveChunked(context.Background(), bs, Config{Tol: 1e-10, BlockSize: k, Tracer: tracer}, nil); err != nil {
		t.Fatal(err)
	}
	if !measured {
		t.Fatalf("the solve ended before iteration %d", at)
	}
	added := float64(int64(mid.HeapAlloc) - int64(before.HeapAlloc))
	cols := float64(8 * k * a.Rows)
	t.Logf("a %d-column solve adds %.1f MB at iteration %d, %.1fx its %.2f MB of columns", k, added/1e6, at, added/cols, cols/1e6)
	if added > 18*cols {
		t.Errorf("a %d-column solve adds %.1f MB, %.1fx its %.2f MB of columns (budget 18x)", k, added/1e6, added/cols, cols/1e6)
	}
}

// TestSolveLeavesRHSUntouched: every rank reads its block of b in place, so
// no solve may write it — failure-free, through an ESR reconstruction, a
// checkpoint rollback or a twin repair, single and blocked.
func TestSolveLeavesRHSUntouched(t *testing.T) {
	a := matgen.Poisson2D(24, 24)
	ps, err := Prepare(a, Config{Ranks: 8, Phi: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	bs := make([][]float64, 3)
	for c := range bs {
		bs[c] = make([]float64, a.Rows)
		for i := range bs[c] {
			bs[c][i] = math.Cos(float64(i+c)) * 1e3
		}
	}
	want := make([][]uint64, len(bs))
	for c, b := range bs {
		for _, v := range b {
			want[c] = append(want[c], math.Float64bits(v))
		}
	}
	fail := func() *faults.Schedule { return faults.NewSchedule(faults.Simultaneous(5, 2, 3)) }
	for _, tc := range []struct {
		name string
		opts Config
	}{
		{"failure-free", Config{}},
		{"esr episode", Config{Schedule: fail()}},
		{"checkpoint rollback", Config{Strategy: StrategyCheckpoint, CheckpointInterval: 3, Schedule: fail()}},
		{"twin", Config{Strategy: StrategyTwin, Schedule: fail()}},
	} {
		tc.opts.Tol = 1e-10
		sol, err := ps.Solve(context.Background(), bs[0], tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if episodes := len(sol.Result.Reconstructions); (tc.opts.Schedule != nil) != (episodes > 0) {
			t.Fatalf("%s: %d recovery episodes", tc.name, episodes)
		}
		if tc.opts.Schedule != nil {
			tc.opts.Schedule = fail()
		}
		tc.opts.BlockSize = len(bs)
		if _, err := ps.SolveChunked(context.Background(), bs, tc.opts, nil); err != nil {
			t.Fatalf("%s block: %v", tc.name, err)
		}
		for c, b := range bs {
			for i, v := range b {
				if math.Float64bits(v) != want[c][i] {
					t.Fatalf("%s: b[%d][%d] = %v after the solve, was %v", tc.name, c, i, v, math.Float64frombits(want[c][i]))
				}
			}
		}
	}
}

// BenchmarkPrepare is the session-memory rung: one op is one Prepare on a
// benchmark workload's matrix (8 ranks, phi 3, block-Jacobi ILU(0)). B/op is
// what building a session churns; retained_B/session is what it keeps live
// (sessionRetained), the number the library process holds per session.
func BenchmarkPrepare(b *testing.B) {
	for _, bc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"elasticity14", matgen.Elasticity3D(14, 14, 14, 27, 8)},
		{"circuit12000", matgen.CircuitLike(12000, 2.9, 0.35, 3)},
		{"poisson64", matgen.Poisson2D(64, 64)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			retained := sessionRetained(b, bc.a, budgetConfig)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps, err := Prepare(bc.a, budgetConfig)
				if err != nil {
					b.Fatal(err)
				}
				ps.Close()
			}
			b.ReportMetric(retained, "retained_B/session")
		})
	}
}
