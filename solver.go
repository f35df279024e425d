package esr

import (
	"context"
	"fmt"

	"repro/internal/engine"
)

// ErrSolverClosed reports a Solve on (or aborted by) a closed Solver.
var ErrSolverClosed = engine.ErrPreparedClosed

// Solver is a reusable prepare-once / solve-many session over one system
// matrix. NewSolver partitions the matrix over the rank cluster, runs the
// distributed symbolic phase (halo plan and, for phi >= 1, the redundancy
// protocol), and factors the block preconditioners exactly once; every
// subsequent Solve reuses that state and pays only for the iteration loop.
// When serving many right-hand sides on the same system this amortizes the
// dominant setup cost — see BenchmarkPreparedVsOneShot.
//
// Solve and SolveBatch are safe for concurrent use: each solve runs on its
// own short-lived rank runtime against forked per-rank state, so concurrent
// solves (and their injected failures) cannot disturb each other. Close
// tears the session down, aborting in-flight solves.
//
//	s, err := esr.NewSolver(a, esr.Config{Ranks: 8, Phi: 2})
//	defer s.Close()
//	for _, b := range rhs {
//	    sol, err := s.Solve(ctx, b)
//	    ...
//	}
type Solver struct {
	prep *engine.Prepared
}

// NewSolver builds a reusable solver session for the SPD system matrix a
// from opts combined by engine.Merge (a later non-zero field wins). No
// options select the paper's experimental setup (8 ranks, block-Jacobi
// ILU(0), phi 0). Its run-, batch- and observer-scoped fields become the
// default of every solve. The caller must Close the session when done.
func NewSolver(a *Matrix, opts ...Option) (*Solver, error) {
	prep, err := engine.Prepare(a, engine.Merge(Config{}, opts...))
	if err != nil {
		return nil, err
	}
	return &Solver{prep: prep}, nil
}

// N returns the dimension of the prepared system.
func (s *Solver) N() int { return s.prep.N() }

// Ranks returns the number of simulated compute nodes of the session.
func (s *Solver) Ranks() int { return s.prep.Ranks() }

// Phi returns the redundancy level of the session.
func (s *Solver) Phi() int { return s.prep.Phi() }

// Config returns the session's normalized configuration (its options
// merged and defaulted, Ranks clamped to the matrix size).
func (s *Solver) Config() Config { return s.prep.Config() }

// StrategyName returns the session's default failure-recovery strategy (one
// of the Strategy* names); a per-call Strategy does not change it.
func (s *Solver) StrategyName() string { return s.prep.StrategyName() }

// StrategyStats returns the session's aggregated recovery-strategy
// observables across every finished solve: steady-state protection volumes
// (redundant copies for ESR, reliable-storage traffic for checkpoint),
// recovery episodes, cascading restarts, and redone iterations. Use it to
// compare the strategies' overhead and recovery cost on live workloads.
func (s *Solver) StrategyStats() StrategyStats { return s.prep.StrategyStats() }

// callConfig resolves the per-call configuration: the session's with opts
// merged on top, validated whole — so a bad value is refused as it is at
// NewSolver, prep-scoped or not. Then the preparation-scoped fields must not
// have changed: the session's partition, redundancy protocol and
// preconditioner are already built; Config.PrepIdentity, which also keys
// esrd's session cache, says which those are (a Ranks above the matrix size
// names the session's clamp).
func (s *Solver) callConfig(opts []Option) (Config, error) {
	session := s.prep.Config()
	cfg := engine.Merge(session, opts...)
	cfg.Ranks = min(cfg.Ranks, s.prep.N())
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	if cfg.PrepIdentity() != session.PrepIdentity() {
		return Config{}, fmt.Errorf(
			"esr: preparation-scoped option (ranks, phi, preconditioner, ssor omega) passed to Solve; set it on NewSolver")
	}
	return cfg, nil
}

// Solve runs one solve of A x = b against the prepared session state. Every
// session setting except the four preparation-scoped ones can be overridden
// per call with opts — tolerances, schedule, observers, method, and the run
// policy (transport, strategy and its interval, SDC check); a per-call
// Ranks, Phi, Preconditioner or SSOROmega other than the session's is
// rejected, and a per-call Method must be compatible with the prepared
// preconditioner (MethodSPCG needs an IC0 session). Cancelling ctx aborts
// only this solve; sibling solves on the same session are unaffected.
func (s *Solver) Solve(ctx context.Context, b []float64, opts ...Option) (Solution, error) {
	cfg, err := s.callConfig(opts)
	if err != nil {
		return Solution{}, err
	}
	return s.prep.Solve(ctx, b, cfg)
}

// SolveBatch solves one system per right-hand side, reusing the prepared
// session state for all of them. The batch is chunked into groups of
// Config.BlockSize columns, each solved in lockstep by the width-k driver —
// one fused k-column SpMM, k-strided halo frames and length-k allreduces per
// iteration — which is the throughput path for many right-hand sides (see
// BenchmarkSolveBatch).
// Every method, strategy, schedule and detector setting runs at every width,
// and column c of a group is bitwise identical to Solve(ctx, bs[c]) with the
// same Result counts; BlockSize 1 solves the columns one at a time.
//
// The whole batch is validated before any solve launches: a column with the
// wrong length or a non-finite element fails fast with a typed
// *InvalidRHSError naming it, having spent no solve work. The returned slice
// is aligned with bs; entries whose solve broke down (or whose corruption
// the armed detector caught) are zero-valued and the joined errors, each
// naming its column, are returned alongside the successful solutions. A
// failure of a whole group — lost data, cancellation — aborts the batch.
func (s *Solver) SolveBatch(ctx context.Context, bs [][]float64, opts ...Option) ([]Solution, error) {
	if len(bs) == 0 {
		return nil, nil
	}
	cfg, err := s.callConfig(opts)
	if err != nil {
		return nil, err
	}
	return s.prep.SolveChunked(ctx, bs, cfg, nil)
}

// Close tears the session down: subsequent Solve calls fail with
// ErrSolverClosed, in-flight solves are aborted and return ErrSolverClosed,
// and Close blocks until they have unwound. Idempotent.
func (s *Solver) Close() error {
	s.prep.Close()
	return nil
}
