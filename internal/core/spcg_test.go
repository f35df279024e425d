package core

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/precond"
	"repro/internal/vec"
	"repro/internal/xerr"
)

func runSPCG(t *testing.T, ranks, phi int, sched *faults.Schedule, tol float64) harnessOut {
	t.Helper()
	return runSPCGOpts(t, ranks, phi, sched, func(int) Options { return Options{Tol: tol} })
}

// runSPCGOpts is runSPCG with per-rank solver options.
func runSPCGOpts(t *testing.T, ranks, phi int, sched *faults.Schedule, opts func(rank int) Options) harnessOut {
	t.Helper()
	a := matgen.Poisson2D(18, 18)
	return runSolver(t, ranks, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, phi)
		if err != nil {
			return Result{}, x, err
		}
		ic, err := precond.NewIC0Split(m.OwnBlock())
		if err != nil {
			return Result{}, x, err
		}
		res, err := ss.esrpcg(e, m, x, b, SplitPrecond{P: ic}, opts(c.Rank()), sched)
		return res, x, err
	})
}

func TestSPCGSolves(t *testing.T) {
	a := matgen.Poisson2D(18, 18)
	want := seqSolution(t, a)
	out := runSPCG(t, 4, 0, nil, 1e-10)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Converged {
		t.Fatal("did not converge")
	}
	if d := vec.MaxAbsDiff(out.x, want); d > 1e-5 {
		t.Fatalf("solution error %g", d)
	}
	if math.Abs(out.res.Delta) > 1e-4 {
		t.Fatalf("Delta = %g", out.res.Delta)
	}
}

func TestSPCGWithFailures(t *testing.T) {
	a := matgen.Poisson2D(18, 18)
	want := seqSolution(t, a)
	sched := faults.NewSchedule(faults.Simultaneous(4, 1, 2))
	out := runSPCG(t, 6, 2, sched, 1e-9)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Converged {
		t.Fatal("did not converge")
	}
	if len(out.res.Reconstructions) != 1 {
		t.Fatalf("reconstructions = %d", len(out.res.Reconstructions))
	}
	if d := vec.MaxAbsDiff(out.x, want); d > 1e-4 {
		t.Fatalf("solution error %g", d)
	}
}

func TestSPCGOverlappingFailures(t *testing.T) {
	sched := faults.NewSchedule(
		faults.Simultaneous(3, 1),
		faults.Overlapping(3, phaseXSystem, 4),
	)
	out := runSPCG(t, 6, 2, sched, 1e-9)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Converged {
		t.Fatal("did not converge")
	}
	if out.res.Reconstructions[0].Restarts < 1 {
		t.Fatal("expected a restart")
	}
}

func TestSPCGFailureAtIterationZero(t *testing.T) {
	sched := faults.NewSchedule(faults.Simultaneous(0, 3))
	out := runSPCG(t, 6, 1, sched, 1e-9)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Converged {
		t.Fatal("did not converge")
	}
}

func TestSPCGMatchesPCGIterates(t *testing.T) {
	// SPCG with M = L L^T and PCG with the same M as ApplyInv are
	// mathematically equivalent: iteration counts must be very close and
	// the solutions must agree.
	a := matgen.Poisson2D(18, 18)
	pcg := runSolver(t, 4, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 0)
		if err != nil {
			return Result{}, x, err
		}
		ic, err := precond.NewIC0Split(m.OwnBlock())
		if err != nil {
			return Result{}, x, err
		}
		res, err := PCG(e, m, x, b, LocalPrecond{P: ic}, Options{Tol: 1e-10})
		return res, x, err
	})
	if pcg.err != nil {
		t.Fatal(pcg.err)
	}
	spcg := runSPCG(t, 4, 0, nil, 1e-10)
	if spcg.err != nil {
		t.Fatal(spcg.err)
	}
	diff := spcg.res.Iterations - pcg.res.Iterations
	if diff < -2 || diff > 2 {
		t.Fatalf("iteration counts diverge: SPCG %d vs PCG %d", spcg.res.Iterations, pcg.res.Iterations)
	}
	if d := vec.MaxAbsDiff(spcg.x, pcg.x); d > 1e-6 {
		t.Fatalf("solutions differ by %g", d)
	}
}

func TestSPCGRequiresSplit(t *testing.T) {
	a := matgen.Poisson2D(8, 8)
	out := runSolver(t, 2, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 0)
		if err != nil {
			return Result{}, x, err
		}
		res, err := ss.esrpcg(e, m, x, b, SplitPrecond{}, Options{}, nil)
		return res, x, err
	})
	if out.err == nil {
		t.Fatal("expected error for nil split preconditioner")
	}
}

// TestSPCGFailurePollRunsTheDriverStep: SPCG runs the driver's loop, so its
// failure poll is the driver's — the OnFailure hook fires on every rank before recovery (the net fabric
// kills the victim's process there; without it a scheduled kill under SPCG
// is silently simulated in-process), and the episode reaches the Tracer
// with its record.
func TestSPCGFailurePollRunsTheDriverStep(t *testing.T) {
	const ranks, failAt = 6, 4
	sched := faults.NewSchedule(faults.Simultaneous(failAt, 1, 2))
	var mu sync.Mutex
	hooks := map[int][]int{} // rank -> victims it was told about
	var log eventLog
	out := runSPCGOpts(t, ranks, 2, sched, func(rank int) Options {
		opts := Options{Tol: 1e-9, OnFailure: func(j int, victims []int) {
			mu.Lock()
			defer mu.Unlock()
			if j != failAt || hooks[rank] != nil {
				t.Errorf("rank %d: OnFailure(%d, %v) after %v", rank, j, victims, hooks[rank])
			}
			hooks[rank] = victims
		}}
		if rank == 0 {
			opts.Tracer = &log
		}
		return opts
	})
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Converged || len(out.res.Reconstructions) != 1 {
		t.Fatalf("converged %v with %d episodes", out.res.Converged, len(out.res.Reconstructions))
	}
	for rank := 0; rank < ranks; rank++ {
		if !reflect.DeepEqual(hooks[rank], []int{1, 2}) {
			t.Fatalf("rank %d: OnFailure saw %v, want [1 2]", rank, hooks[rank])
		}
	}
	if len(log.recoveries) != 1 {
		t.Fatalf("%d recovery traces, want 1", len(log.recoveries))
	}
	if rt := log.recoveries[0]; rt.Iteration != failAt || rt.Strategy != StrategyESR || !reflect.DeepEqual(rt.FailedRanks, []int{1, 2}) {
		t.Fatalf("recovery trace %+v", rt)
	}
	if rec := log.recoveries[0].Reconstruction; rec == nil || !reflect.DeepEqual(*rec, out.res.Reconstructions[0]) {
		t.Fatalf("recovery trace carries %+v, result %+v", rec, out.res.Reconstructions[0])
	}
}

// TestResumeRejectedWhereNoEpisodeToJoin: a replacement rank handed a Resume
// must never be silently iterated from 0 against peers blocked in recovery
// collectives. A blocked solve has no width-1 episode to join and says so
// with a failed_precondition-classed error.
func TestResumeRejectedWhereNoEpisodeToJoin(t *testing.T) {
	resume := &EpisodeResume{Iteration: 3, Victims: []int{1}}
	sched := faults.NewSchedule(faults.Simultaneous(3, 1))
	a := matgen.Poisson2D(10, 10)
	out := runSolver(t, 4, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 1)
		if err != nil {
			return Result{}, x, err
		}
		m.SetBlockWidth(2)
		xs := []distmat.Vector{x, distmat.NewVector(m.P, e.Pos)}
		_, _, err = SolveBlock(e, m, xs, []distmat.Vector{b, b}, nil, Options{Resume: resume}, sched, nil)
		return Result{}, x, err
	})
	if !errors.Is(out.err, xerr.FailedPrecondition) {
		t.Fatalf("width-2 solve with Resume: err = %v, want failed_precondition", out.err)
	}
}
