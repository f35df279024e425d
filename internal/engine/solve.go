package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/sparse"
)

// Solution is the outcome of a solve.
type Solution struct {
	// X is the computed solution vector.
	X []float64 `json:"x"`
	// Result carries convergence and reconstruction statistics.
	Result core.Result `json:"result"`
	// XS and Results carry the per-RHS solutions and statistics of a batch
	// job (JobSpec.RHSBatch), aligned with the submitted batch; X and Result
	// then mirror column 0. Empty for single-RHS solves.
	XS      [][]float64   `json:"xs,omitempty"`
	Results []core.Result `json:"results,omitempty"`
}

// SolveSystem distributes the SPD system A x = b over an in-process cluster
// and runs the resilient PCG solver, injecting the configured failures. It
// is the one-shot entry point behind esr.Solve / esr.SolveContext: a
// prepared session (Prepare) built, used for a single Solve, and torn down.
// Callers serving many right-hand sides on the same system should hold a
// Prepared (or esr.Solver) instead and amortize the setup. Cancelling ctx
// aborts the solve's runtime (waking ranks blocked in communication) and
// returns the context's cause.
func SolveSystem(ctx context.Context, a *sparse.CSR, b []float64, cfg Config) (Solution, error) {
	ps, err := PrepareContext(ctx, a, cfg)
	if err != nil {
		return Solution{}, err
	}
	defer ps.Close()
	return ps.Solve(ctx, b, cfg)
}
