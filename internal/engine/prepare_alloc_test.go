package engine

import (
	"runtime"
	"testing"

	"repro/internal/matgen"
)

// TestPrepareAllocationBudget: a session copies its matrix a bounded number
// of times. Prepare on the elasticity-kernel workload's problem (8 ranks, phi
// 3, block-Jacobi ILU(0)) may allocate at most 5x the matrix's own 16 B per
// stored entry — the static row block, its one localised split, the own
// block and the factor's values, plus small change — in a bounded number of
// allocations: every array is counted before it is filled. A reintroduced
// whole-block copy or an append-grown array fails here, not in a bench run.
func TestPrepareAllocationBudget(t *testing.T) {
	a := matgen.Elasticity3D(14, 14, 14, 27, 8)
	cfg := Config{Ranks: 8, Phi: 3, Preconditioner: "block-jacobi-ilu"}
	prepare := func() {
		ps, err := Prepare(a, cfg)
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
	if bytes > 5*matrix {
		t.Errorf("Prepare allocates %.1f MB, %.2fx the matrix's %.2f MB (budget 5x)", bytes/1e6, bytes/matrix, matrix/1e6)
	}
	if allocs > 2000 {
		t.Errorf("Prepare makes %.0f allocations (budget 2000)", allocs)
	}
}
