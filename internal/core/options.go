// Package core implements the paper's solvers: the reference parallel PCG
// (Alg. 1), the resilient ESR-PCG that tolerates up to phi simultaneous or
// overlapping node failures (Secs. 2-4), the exact state reconstruction
// engine (Alg. 2 generalised to multiple failed ranks), and the
// split-preconditioner variant SPCG — one driver loop (SolveBlock) with one
// recurrence per method. Failure semantics and experiment knobs mirror the
// paper's Sec. 6/7 setup.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/distmat"
	"repro/internal/precond"
)

// Options configures a solver run. The solvers are transport-agnostic:
// they speak to whatever communication fabric the caller's cluster.Runtime
// was built with (selection lives in engine.Config.Transport), and their
// buffer usage honours the zero-copy contract — allreduce results are
// recycled after reading and the SpMV owns its payload lifetimes — so the
// fabric's pooled recycler keeps the iteration loop's sends allocation-free
// without any solver-level switches.
type Options struct {
	// Tol is the relative residual reduction target; the solver stops when
	// ||r|| <= Tol * ||r0||. The paper uses 1e-8 (Sec. 7.1).
	Tol float64
	// MaxIter bounds the iteration count; <= 0 selects 10 * n.
	MaxIter int
	// LocalTol is the relative residual reduction of the reconstruction
	// subsystem solves. The paper uses 1e-14 (Sec. 7.1).
	LocalTol float64
	// LocalMaxIter bounds the reconstruction subsystem iterations; <= 0
	// selects 20 * subsystem size, at least 500.
	LocalMaxIter int
	// SDCCheck, when > 0, arms the driver's silent-data-corruption
	// detector: every SDCCheck iterations (and once more at convergence)
	// the true residual ||b - A x|| is recomputed and compared against the
	// recurrence residual ||r||. Drift beyond the tolerance means some
	// state was corrupted. The check runs per column at every width: the
	// twin strategy repairs a drifted column by forward recovery (its
	// recurrence restarts from the current iterate); every other strategy
	// freezes the column with a per-column *SDCDetectedError instead of
	// silently converging to a wrong answer. 0 disables the check.
	SDCCheck int
	// Ctx, when non-nil, cancels the solve: the solver polls it at the top
	// of every iteration and returns the context's cause error. Pair it with
	// cluster.Runtime.RunContext so ranks blocked in communication are woken
	// as well; polling alone only reaches ranks between operations.
	Ctx context.Context
	// Tracer, when non-nil, observes every completed iteration (its
	// residual and phase durations) and every recovery episode (see
	// Tracer), on whichever ranks it is installed on. Install it on a single
	// rank (conventionally rank 0) to observe a solve exactly once. Tracing
	// is observer-only: it never changes results.
	Tracer Tracer
	// OnFailure, when non-nil, is called on every rank it is installed on
	// at the failure poll point of iteration j, after a fresh scheduled
	// event fired and before the strategy's recovery runs. The multi-process
	// net fabric uses it to turn the simulated event into a real one:
	// victim processes kill themselves inside the hook, survivors arm the
	// transport for the replacement's reconnect. It is NOT called when a
	// solve resumes via Resume (the failure already happened).
	OnFailure func(j int, victims []int)
	// Resume, when non-nil, enters the solve directly at a failure episode
	// in progress: the rank skips iterations 0..Iteration-1, NaN-wipes its
	// dynamic state exactly like an in-process victim, and joins the
	// collective recovery for the given iteration and victim set. This is
	// how a replacement OS process rejoins a solve whose other ranks are
	// blocked at the recovery poll point. ESR-only and width 1 only:
	// rollback strategies have no in-place episode to join, and the net
	// path is single-RHS.
	Resume *EpisodeResume
	// Session, when non-nil, reads rank r's static state — its matrix and
	// preconditioner as the session prepared them, only ever read — with no
	// message. An episode's leader, the lowest failed rank, reads the other
	// failed ranks' blocks through it to solve the x-system alone (every
	// process of a solve holds the whole prepared session, so
	// engine.Prepared passes its own). Without it an episode can lose only
	// the leader itself.
	Session func(rank int) (*distmat.Matrix, Precond)
}

// EpisodeResume pins the failure episode a replacement rank joins.
type EpisodeResume struct {
	// Iteration is the 0-based solver iteration whose poll point fired.
	Iteration int
	// Victims is the event's failed-rank set (this rank must be in it).
	Victims []int
}

// poll returns the context's cause when Options.Ctx has been cancelled.
func (o Options) poll() error {
	if o.Ctx == nil {
		return nil
	}
	select {
	case <-o.Ctx.Done():
		return context.Cause(o.Ctx)
	default:
		return nil
	}
}

// trace reports a recovery episode to the tracer if one is installed.
func (o Options) trace(rt RecoveryTrace) {
	if o.Tracer != nil {
		o.Tracer.TraceRecovery(rt)
	}
}

// relTo returns num/den guarding against a zero denominator.
func relTo(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// withDefaults fills unset options with the paper's experimental defaults.
func (o Options) withDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
		if o.MaxIter < 100 {
			o.MaxIter = 100
		}
	}
	if o.LocalTol <= 0 {
		o.LocalTol = 1e-14
	}
	// LocalMaxIter <= 0 is resolved against the subsystem size at use.
	return o
}

// Reconstruction records one exact-state-reconstruction episode.
type Reconstruction struct {
	// Iteration is the solver iteration whose state was rebuilt.
	Iteration int
	// FailedRanks is the union of ranks that failed in the episode
	// (simultaneous plus overlapping).
	FailedRanks []int
	// Restarts counts how many times overlapping failures forced the
	// reconstruction to restart.
	Restarts int
	// SubIterations is the iteration count of the subsystem solve for
	// A_{If,If} x_If = w.
	SubIterations int
	// Duration is the wall-clock time the iteration was held up by the
	// episode. The x-system is solved in the background after it, and the
	// episode is reported once x_If has landed.
	Duration time.Duration
	// Phases splits Duration over the five recovery phases — scalars,
	// p-gather (its requests and responses only: which survivor serves each
	// lost element, at which retention position, is the matrix's static
	// holder table), z/r rebuild, x-system (forming w and handing it to the
	// leader), finalize — as the reporting rank saw them, summed over
	// restarts.
	Phases [numPhases]time.Duration
	// SubsystemSetup is the time the episode leader — the lowest failed
	// rank, which solves the x-system for the whole failed set — spent
	// looking up the failed blocks' matrices and session preconditioners,
	// inside the leader's Phases[3]. SubsystemSolve is the wall time of the
	// leader's background work, outside Duration: the assembly of A_{If,If},
	// the factor the coupling rule picks and the PCG. Every rank reports the
	// leader's two times.
	SubsystemSetup, SubsystemSolve time.Duration
}

// Result reports a solver run. All ranks return identical values.
type Result struct {
	// Converged reports whether the residual target was met.
	Converged bool
	// Iterations is the number of PCG iterations until convergence.
	Iterations int
	// WorkIterations is the total number of iterations executed, including
	// iterations redone after a rollback (checkpoint/restart baseline). For
	// the ESR solvers it equals Iterations: reconstruction resumes at the
	// failure iteration and only repeats one SpMV.
	WorkIterations int
	// InitialResidual and FinalResidual are ||r0|| and the final solver
	// (recurrence) residual norm ||r||.
	InitialResidual, FinalResidual float64
	// TrueResidual is ||b - A x|| recomputed after the solve.
	TrueResidual float64
	// Delta is the relative residual difference metric of Eqn. 7:
	// (||r_solver|| - ||b - A x||) / ||b - A x||.
	Delta float64
	// Reconstructions lists the recovery episodes (empty for reference PCG
	// or failure-free resilient runs).
	Reconstructions []Reconstruction
	// SDCInjected counts the silent-data-corruption injections the schedule
	// fired; SDCDetected counts detections (twin divergence or true-residual
	// drift); SDCCorrected counts forward-recovery repairs (twin only).
	// Replicated: all ranks report identical counts.
	SDCInjected, SDCDetected, SDCCorrected int
	// SDCLatency is the total detection latency in iterations, summed over
	// detected corruptions (0 when every corruption is caught at its own
	// poll point, as with the twin strategy's default interval of 1).
	SDCLatency int
	// SolveTime is the total wall-clock solve time; ReconstructTime is the
	// part the iteration was held up by recovery episodes (the sum of their
	// Durations).
	SolveTime, ReconstructTime time.Duration
}

// RelResidual returns FinalResidual / InitialResidual (0 when the initial
// residual was already zero).
func (r Result) RelResidual() float64 { return relTo(r.FinalResidual, r.InitialResidual) }

// TotalReconstructions returns the number of recovery episodes.
func (r Result) TotalReconstructions() int { return len(r.Reconstructions) }

// Precond is a node-local preconditioner application z[c] = M^{-1} r[c]
// over k columns, a single vector being its k = 1 case: every block of z is
// formed from the same rank's block of r, with no message.
// Column c must be bitwise identical whatever the width and the other
// columns: the blocked driver depends on it.
type Precond interface {
	// Name identifies the preconditioner.
	Name() string
	// Apply computes z[c] = M^{-1} r[c] for every column. s is the calling
	// solve's scratch; nil lends a fresh one.
	Apply(z, r []distmat.Vector, s *ApplyScratch) error
}

// ApplyScratch is what one solve lends its preconditioner applications: the
// columns' rank-local blocks and the working block of a fused multi-column
// application (a block solve lends its matrix's SpMM output block, see
// distmat.Matrix.BlockScratch). The factors behind a Precond are shared by
// concurrent solves; each solve has its own scratch, and once it has grown
// to the block an application allocates nothing.
type ApplyScratch struct {
	z, r [][]float64
	work []float64
}

// LocalPrecond adapts a node-local block preconditioner (block-diagonal
// across ranks) to the distributed interface. This is the configuration of
// the paper's experiments; its reconstruction path is fully local
// ([23, Alg. 3] with P_{If, I\If} = 0).
type LocalPrecond struct {
	// P is the node-local block preconditioner M_i.
	P precond.Preconditioner
}

// Name implements Precond.
func (lp LocalPrecond) Name() string { return "local:" + lp.P.Name() }

// Apply implements Precond. Several columns go through the wrapped
// preconditioner's fused multi-column application (precond.BatchApplier) in
// one structure traversal when it has one; a single column, or a
// preconditioner without it, goes through ApplyInv column by column. Either
// way column c is bitwise identical to a solo ApplyInv.
func (lp LocalPrecond) Apply(z, r []distmat.Vector, s *ApplyScratch) error {
	if len(z) != len(r) {
		return fmt.Errorf("core: LocalPrecond column count mismatch")
	}
	if ba, ok := lp.P.(precond.BatchApplier); ok && len(z) > 1 {
		if s == nil {
			s = new(ApplyScratch)
		}
		s.z, s.r = s.z[:0], s.r[:0]
		for c := range z {
			s.z, s.r = append(s.z, z[c].Local), append(s.r, r[c].Local)
		}
		n := len(z) * len(z[0].Local)
		if cap(s.work) < n {
			s.work = make([]float64, n)
		}
		ba.ApplyInvK(s.z, s.r, s.work[:n])
		return nil
	}
	for c := range z {
		if len(z[c].Local) != len(r[c].Local) {
			return fmt.Errorf("core: LocalPrecond length mismatch")
		}
		lp.P.ApplyInv(z[c].Local, r[c].Local)
	}
	return nil
}

// SplitPrecond is a node-local block preconditioner with an explicit
// symmetric split M_i = L_i L_i^T (e.g. IC(0), precond.NewIC0Split). Handing
// it to a solver selects the split-preconditioner recurrence (SPCG, Saad
// Alg. 9.2 — the paper's [23, Alg. 5] variant), which iterates on
// rhat = L^{-1} r; wrap the same factor in LocalPrecond to run Alg. 1 with
// M^{-1} = L^{-T} L^{-1} instead.
type SplitPrecond struct {
	// P is the node-local split preconditioner.
	P precond.Split
}

// Name implements Precond.
func (sp SplitPrecond) Name() string { return "split:" + sp.P.Name() }

// Apply implements Precond.
func (sp SplitPrecond) Apply(z, r []distmat.Vector, s *ApplyScratch) error {
	return LocalPrecond{P: sp.P}.Apply(z, r, s)
}

// IdentityPrecond returns the trivial preconditioner (plain CG).
func IdentityPrecond() Precond { return LocalPrecond{P: precond.Identity{}} }
