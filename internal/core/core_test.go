package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/localsolve"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// harness runs an SPMD solver body on a fresh cluster and returns the Result
// of rank 0 together with the gathered solution vector.
type harnessOut struct {
	res Result
	x   []float64
	err error
}

func runSolver(t *testing.T, ranks int, body func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error)) harnessOut {
	t.Helper()
	rt := cluster.New(ranks)
	var mu sync.Mutex
	var out harnessOut
	ss := newSessionStub()
	err := rt.Run(func(c *cluster.Comm) error {
		res, x, err := body(c, ss)
		if err != nil {
			return err
		}
		e := distmat.WorldEnv(c)
		full, gerr := distmat.Gather(e, []distmat.Vector{x})
		if gerr != nil {
			return gerr
		}
		if c.Rank() == 0 {
			mu.Lock()
			out.res = res
			out.x = full[0]
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		out.err = err
	}
	return out
}

// sessionStub stands in for a prepared session: every rank files its matrix
// and preconditioner, and an episode's leader reads the other failed ranks'
// through Options.Session, as engine.Prepared's solves read theirs.
type sessionStub struct {
	mu sync.Mutex
	m  map[int]*distmat.Matrix
	p  map[int]Precond
}

func newSessionStub() *sessionStub {
	return &sessionStub{m: map[int]*distmat.Matrix{}, p: map[int]Precond{}}
}

// file records the calling rank's static state and returns opts reading the
// stub.
func (ss *sessionStub) file(opts Options, e *distmat.Env, m *distmat.Matrix, pc Precond) Options {
	ss.mu.Lock()
	ss.m[e.Pos], ss.p[e.Pos] = m, pc
	ss.mu.Unlock()
	opts.Session = func(r int) (*distmat.Matrix, Precond) {
		ss.mu.Lock()
		defer ss.mu.Unlock()
		return ss.m[r], ss.p[r]
	}
	return opts
}

// esrpcg is ESRPCG with the rank's state filed in the stub.
func (ss *sessionStub) esrpcg(e *distmat.Env, m *distmat.Matrix, x, b distmat.Vector, pc Precond, opts Options, sched *faults.Schedule) (Result, error) {
	return ESRPCG(e, m, x, b, pc, ss.file(opts, e, m, pc), sched)
}

// setupProblem builds the distributed pieces of A x = b for a rank.
func setupProblem(c *cluster.Comm, a *sparse.CSR, phi int) (*distmat.Env, *distmat.Matrix, distmat.Vector, distmat.Vector, error) {
	e := distmat.WorldEnv(c)
	p := partition.NewBlockRow(a.Rows, c.Size())
	lo, hi := p.Range(e.Pos)
	m, err := distmat.NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
	if err != nil {
		return nil, nil, distmat.Vector{}, distmat.Vector{}, err
	}
	b := distmat.NewVector(p, e.Pos)
	for i := range b.Local {
		g := lo + i
		b.Local[i] = 1 + math.Sin(float64(g)*0.13)
	}
	x := distmat.NewVector(p, e.Pos)
	return e, m, x, b, nil
}

// blockJacobi builds the paper's default preconditioner for a rank: exact
// block solves on tiny problems.
func blockJacobi(t *testing.T, m *distmat.Matrix) Precond {
	t.Helper()
	bj, err := precond.NewBlockJacobiChol(m.OwnBlock())
	if err != nil {
		t.Fatalf("block jacobi: %v", err)
	}
	return LocalPrecond{P: bj}
}

func seqSolution(t *testing.T, a *sparse.CSR) []float64 {
	t.Helper()
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + math.Sin(float64(i)*0.13)
	}
	x := make([]float64, n)
	res := localsolve.CG(a, x, b, nil, 1e-13, 20*n)
	if !res.Converged {
		t.Fatal("sequential reference did not converge")
	}
	return x
}

func TestPCGSolvesCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue sweep")
	}
	for _, entry := range matgen.Catalogue() {
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			a := entry.Build(matgen.ScaleTiny)
			want := seqSolution(t, a)
			out := runSolver(t, 4, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
				e, m, x, b, err := setupProblem(c, a, 0)
				if err != nil {
					return Result{}, x, err
				}
				res, err := PCG(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-10})
				return res, x, err
			})
			if out.err != nil {
				t.Fatal(out.err)
			}
			if !out.res.Converged {
				t.Fatalf("did not converge: %+v", out.res)
			}
			if d := vec.MaxAbsDiff(out.x, want); d > 1e-5 {
				t.Fatalf("solution error %g", d)
			}
			// The recurrence residual deviates from b - A x only through
			// rounding (paper Sec. 6): the deviation metric stays small.
			if math.Abs(out.res.Delta) > 1e-4 {
				t.Fatalf("Delta = %g, too large", out.res.Delta)
			}
		})
	}
}

func TestPCGWithJacobiAndSSOR(t *testing.T) {
	a := matgen.Triangular2D(20, 20)
	want := seqSolution(t, a)
	for _, name := range []string{"jacobi", "ssor", "ilu", "identity"} {
		name := name
		t.Run(name, func(t *testing.T) {
			out := runSolver(t, 4, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
				e, m, x, b, err := setupProblem(c, a, 0)
				if err != nil {
					return Result{}, x, err
				}
				var prec Precond
				switch name {
				case "jacobi":
					j, err := precond.NewJacobi(m.Diag())
					if err != nil {
						return Result{}, x, err
					}
					prec = LocalPrecond{P: j}
				case "ssor":
					s, err := precond.NewSSOR(m.OwnBlock(), 1.2)
					if err != nil {
						return Result{}, x, err
					}
					prec = LocalPrecond{P: s}
				case "ilu":
					f, err := precond.NewBlockJacobiILU(m.OwnBlock())
					if err != nil {
						return Result{}, x, err
					}
					prec = LocalPrecond{P: f}
				case "identity":
					prec = nil
				}
				res, err := PCG(e, m, x, b, prec, Options{Tol: 1e-9})
				return res, x, err
			})
			if out.err != nil {
				t.Fatal(out.err)
			}
			if !out.res.Converged {
				t.Fatal("did not converge")
			}
			if d := vec.MaxAbsDiff(out.x, want); d > 1e-4 {
				t.Fatalf("solution error %g", d)
			}
		})
	}
}

// A failure-free resilient run must produce bit-identical results to the
// reference PCG: the redundancy protocol only adds communication, never
// changes the arithmetic.
func TestESRWithoutFailuresMatchesPCGBitwise(t *testing.T) {
	a := matgen.Catalogue()[4].Build(matgen.ScaleTiny) // M5-class
	ref := runSolver(t, 4, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 0)
		if err != nil {
			return Result{}, x, err
		}
		res, err := PCG(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-9})
		return res, x, err
	})
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	for _, phi := range []int{1, 3} {
		esr := runSolver(t, 4, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
			e, m, x, b, err := setupProblem(c, a, phi)
			if err != nil {
				return Result{}, x, err
			}
			res, err := ss.esrpcg(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-9}, nil)
			return res, x, err
		})
		if esr.err != nil {
			t.Fatal(esr.err)
		}
		if esr.res.Iterations != ref.res.Iterations {
			t.Fatalf("phi=%d: iterations %d vs %d", phi, esr.res.Iterations, ref.res.Iterations)
		}
		if esr.res.FinalResidual != ref.res.FinalResidual {
			t.Fatalf("phi=%d: final residual differs: %v vs %v", phi, esr.res.FinalResidual, ref.res.FinalResidual)
		}
		for i := range esr.x {
			if esr.x[i] != ref.x[i] {
				t.Fatalf("phi=%d: solution differs at %d", phi, i)
			}
		}
	}
}

// Single node failure: the paper's base case. The solver must converge to
// the correct solution and record one reconstruction.
func TestESRSingleFailure(t *testing.T) {
	a := matgen.Catalogue()[0].Build(matgen.ScaleTiny) // M1-class
	want := seqSolution(t, a)
	for _, failIter := range []int{0, 3, 10} {
		failIter := failIter
		t.Run(fmt.Sprintf("iter%d", failIter), func(t *testing.T) {
			sched := faults.NewSchedule(faults.Simultaneous(failIter, 2))
			out := runSolver(t, 4, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
				e, m, x, b, err := setupProblem(c, a, 1)
				if err != nil {
					return Result{}, x, err
				}
				res, err := ss.esrpcg(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-9}, sched)
				return res, x, err
			})
			if out.err != nil {
				t.Fatal(out.err)
			}
			if !out.res.Converged {
				t.Fatalf("did not converge: %+v", out.res)
			}
			if len(out.res.Reconstructions) != 1 {
				t.Fatalf("reconstructions = %d, want 1", len(out.res.Reconstructions))
			}
			if d := vec.MaxAbsDiff(out.x, want); d > 1e-4 {
				t.Fatalf("solution error %g", d)
			}
			for _, v := range out.x {
				if math.IsNaN(v) {
					t.Fatal("NaN leaked into the solution")
				}
			}
		})
	}
}

// Multiple simultaneous failures at the paper's two placements (contiguous
// ranks at "start" and "center").
func TestESRMultipleSimultaneousFailures(t *testing.T) {
	a := matgen.Catalogue()[3].Build(matgen.ScaleTiny) // M4-class
	want := seqSolution(t, a)
	const ranks = 8
	cases := map[string][]int{
		"start":  faults.ContiguousRanks(0, 3, ranks),
		"center": faults.ContiguousRanks(ranks/2, 3, ranks),
	}
	for name, victims := range cases {
		victims := victims
		t.Run(name, func(t *testing.T) {
			sched := faults.NewSchedule(faults.Simultaneous(5, victims...))
			out := runSolver(t, ranks, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
				e, m, x, b, err := setupProblem(c, a, 3)
				if err != nil {
					return Result{}, x, err
				}
				res, err := ss.esrpcg(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-9}, sched)
				return res, x, err
			})
			if out.err != nil {
				t.Fatal(out.err)
			}
			if !out.res.Converged {
				t.Fatal("did not converge")
			}
			rec := out.res.Reconstructions[0]
			if len(rec.FailedRanks) != 3 {
				t.Fatalf("failed ranks %v", rec.FailedRanks)
			}
			if d := vec.MaxAbsDiff(out.x, want); d > 1e-4 {
				t.Fatalf("solution error %g", d)
			}
		})
	}
}

// On a scattered (circuit) pattern, where Eqn. 6 tops up the most elements,
// ESR survives contiguous failure windows around the ring.
func TestESRCircuitSurvivesContiguousWindows(t *testing.T) {
	a := matgen.CircuitLike(600, 3, 0.5, 29)
	const ranks, phi = 8, 2
	for start := 0; start < ranks; start += 3 {
		victims := faults.ContiguousRanks(start, phi, ranks)
		sched := faults.NewSchedule(faults.Simultaneous(3, victims...))
		out := runSolver(t, ranks, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
			e, m, x, b, err := setupProblem(c, a, phi)
			if err != nil {
				return Result{}, x, err
			}
			res, err := ss.esrpcg(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-8}, sched)
			return res, x, err
		})
		if out.err != nil {
			t.Fatalf("window %v: %v", victims, out.err)
		}
		if !out.res.Converged {
			t.Fatalf("window %v: did not converge", victims)
		}
	}
}

// Exact state reconstruction: with an exact local preconditioner and a tiny
// local tolerance, the state after recovery must match the failure-free
// run's state at the same iteration to near machine precision. We stop both
// runs right after the failure iteration and compare iterates.
func TestESRReconstructionIsExact(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	const ranks, failIter = 4, 6
	stopAfter := failIter + 1
	run := func(sched *faults.Schedule, phi int) harnessOut {
		return runSolver(t, ranks, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
			e, m, x, b, err := setupProblem(c, a, phi)
			if err != nil {
				return Result{}, x, err
			}
			// Tol tiny so the run cannot converge before MaxIter.
			res, err := ss.esrpcg(e, m, x, b, blockJacobi(t, m),
				Options{Tol: 1e-30, MaxIter: stopAfter, LocalTol: 1e-15}, sched)
			return res, x, err
		})
	}
	clean := run(nil, 2)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	failed := run(faults.NewSchedule(faults.Simultaneous(failIter, 1, 2)), 2)
	if failed.err != nil {
		t.Fatal(failed.err)
	}
	scale := vec.NrmInf(clean.x)
	for i := range clean.x {
		if d := math.Abs(clean.x[i] - failed.x[i]); d > 1e-9*(1+scale) {
			t.Fatalf("iterate differs at %d by %g after exact reconstruction", i, d)
		}
	}
}

// Overlapping failures: a second failure strikes during the reconstruction
// and forces a restart with the enlarged failed set (paper Sec. 4.1).
func TestESROverlappingFailures(t *testing.T) {
	a := matgen.Catalogue()[1].Build(matgen.ScaleTiny) // M2-class
	want := seqSolution(t, a)
	const ranks = 8
	sched := faults.NewSchedule(
		faults.Simultaneous(4, 1),
		faults.Overlapping(4, phaseZR, 2),      // strikes before z/r reconstruction
		faults.Overlapping(4, phaseXSystem, 6), // strikes before the subsystem solve
	)
	out := runSolver(t, ranks, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 3)
		if err != nil {
			return Result{}, x, err
		}
		res, err := ss.esrpcg(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-9}, sched)
		return res, x, err
	})
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Converged {
		t.Fatal("did not converge")
	}
	rec := out.res.Reconstructions[0]
	if rec.Restarts < 2 {
		t.Fatalf("restarts = %d, want >= 2", rec.Restarts)
	}
	if got := rec.FailedRanks; len(got) != 3 {
		t.Fatalf("failed ranks %v, want 3 ranks", got)
	}
	if d := vec.MaxAbsDiff(out.x, want); d > 1e-4 {
		t.Fatalf("solution error %g", d)
	}
}

// Two separate failure episodes at different iterations, the second hitting
// a rank that served as a recovery holder in the first.
func TestESRRepeatedEpisodes(t *testing.T) {
	a := matgen.Catalogue()[4].Build(matgen.ScaleTiny) // M5-class
	want := seqSolution(t, a)
	sched := faults.NewSchedule(
		faults.Simultaneous(2, 1, 2),
		faults.Simultaneous(7, 0, 3),
		faults.Simultaneous(11, 2),
	)
	out := runSolver(t, 6, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 2)
		if err != nil {
			return Result{}, x, err
		}
		res, err := ss.esrpcg(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-9}, sched)
		return res, x, err
	})
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Converged {
		t.Fatal("did not converge")
	}
	if len(out.res.Reconstructions) != 3 {
		t.Fatalf("episodes = %d, want 3", len(out.res.Reconstructions))
	}
	if d := vec.MaxAbsDiff(out.x, want); d > 1e-4 {
		t.Fatalf("solution error %g", d)
	}
}

// Chen's strategy (phi = 1) must fail deterministically on all ranks when
// two adjacent ranks die and leftover elements existed (paper Sec. 3), while
// phi = 2 recovers the same scenario.
func TestChenFailsWherePhi2Recovers(t *testing.T) {
	// Narrow-band matrix: interior elements of each block are sent to
	// nobody during SpMV, so Chen tops them up only at the +1 neighbour.
	a := matgen.BandedRandom(160, 2, 1.5, 9)
	const ranks = 8
	sched := faults.NewSchedule(faults.Simultaneous(3, 2, 3))

	chen := runSolver(t, ranks, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 1)
		if err != nil {
			return Result{}, x, err
		}
		res, err := ss.esrpcg(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-9}, sched)
		return res, x, err
	})
	if chen.err == nil {
		t.Fatal("expected data-loss error for Chen under adjacent double failure")
	}
	var dl *DataLossError
	if !errors.As(chen.err, &dl) {
		t.Fatalf("want DataLossError, got %v", chen.err)
	}

	phi2 := runSolver(t, ranks, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 2)
		if err != nil {
			return Result{}, x, err
		}
		res, err := ss.esrpcg(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-9},
			faults.NewSchedule(faults.Simultaneous(3, 2, 3)))
		return res, x, err
	})
	if phi2.err != nil {
		t.Fatal(phi2.err)
	}
	if !phi2.res.Converged {
		t.Fatal("phi=2 did not converge")
	}
}

// The residual-deviation metric of Eqn. 7 stays small relative to the 1e8
// residual reduction (paper Table 3).
func TestResidualDeviationMetric(t *testing.T) {
	a := matgen.Catalogue()[5].Build(matgen.ScaleTiny) // M6-class
	sched := faults.NewSchedule(faults.Simultaneous(6, 1, 2, 3))
	out := runSolver(t, 8, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 3)
		if err != nil {
			return Result{}, x, err
		}
		res, err := ss.esrpcg(e, m, x, b, blockJacobi(t, m), Options{Tol: 1e-8}, sched)
		return res, x, err
	})
	if out.err != nil {
		t.Fatal(out.err)
	}
	if math.Abs(out.res.Delta) > 1e-3 {
		t.Fatalf("Delta = %g, want small deviation", out.res.Delta)
	}
}

// A schedule exceeding the protocol's guarantee (psi > phi) on a banded
// pattern hits the dynamic data-loss detection: losing three contiguous
// ranks with phi=2 leaves the middle rank's interior elements with all
// copies on failed ranks.
func TestOverloadedScheduleDetectsDataLoss(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	sched := faults.NewSchedule(faults.Simultaneous(2, 0, 1, 2)) // 3 failures, phi = 2
	if sched.GuaranteedCovered(2) {
		t.Fatal("test setup: schedule should exceed phi")
	}
	out := runSolver(t, 6, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 2)
		if err != nil {
			return Result{}, x, err
		}
		res, err := ss.esrpcg(e, m, x, b, blockJacobi(t, m), Options{}, sched)
		return res, x, err
	})
	if out.err == nil {
		t.Fatal("expected data-loss error")
	}
	var dl *DataLossError
	if !errors.As(out.err, &dl) {
		t.Fatalf("want DataLossError, got %v", out.err)
	}
}

func TestESRNeedsResilientMatrixForSchedule(t *testing.T) {
	a := matgen.Poisson2D(8, 8)
	sched := faults.NewSchedule(faults.Simultaneous(1, 0))
	out := runSolver(t, 4, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 0) // phi = 0
		if err != nil {
			return Result{}, x, err
		}
		res, err := ss.esrpcg(e, m, x, b, blockJacobi(t, m), Options{}, sched)
		return res, x, err
	})
	if out.err == nil {
		t.Fatal("expected error for phi=0 with failures scheduled")
	}
}

// referencePCG is the test oracle for the driver: the straight-line Alg. 1
// body that was the reference solver before PCG became the driver's k = 1
// case — no strategy, no poll points, no tracer, scalar allreduces. It also
// returns the residual trajectory ||r(1)||, ||r(2)||, ... so the driver's
// progress and trace events can be held to it.
func referencePCG(e *distmat.Env, a *distmat.Matrix, x, b distmat.Vector, m Precond, tol float64) (Result, []float64, error) {
	r := distmat.NewVector(a.P, e.Pos)
	z := distmat.NewVector(a.P, e.Pos)
	p := distmat.NewVector(a.P, e.Pos)
	u := distmat.NewVector(a.P, e.Pos)
	if err := a.Residual(e, r, b, x, -1); err != nil {
		return Result{}, nil, err
	}
	if err := m.Apply([]distmat.Vector{z}, []distmat.Vector{r}, nil); err != nil {
		return Result{}, nil, err
	}
	vec.Copy(p.Local, z.Local)
	norms, err := e.Grp.Allreduce(cluster.OpSum, []float64{vec.ParNrm2SqN(r.Local, 0), vec.ParDotN(r.Local, z.Local, 0)})
	if err != nil {
		return Result{}, nil, err
	}
	r0, rz := math.Sqrt(norms[0]), norms[1]
	res := Result{InitialResidual: r0, FinalResidual: r0}
	var history []float64
	for j := 0; j < 10*a.P.N(); j++ {
		if err := a.MatVec(e, u, p, j); err != nil {
			return res, history, err
		}
		pu, err := distmat.Dot(e, p, u)
		if err != nil {
			return res, history, err
		}
		if !(pu > 0) {
			return res, history, fmt.Errorf("reference PCG breakdown at iteration %d", j)
		}
		alpha := rz / pu
		vec.ParAxpyAxpy(alpha, p.Local, x.Local, -alpha, u.Local, r.Local, 0)
		if err := m.Apply([]distmat.Vector{z}, []distmat.Vector{r}, nil); err != nil {
			return res, history, err
		}
		norms, err := e.Grp.Allreduce(cluster.OpSum, []float64{vec.ParNrm2SqN(r.Local, 0), vec.ParDotN(r.Local, z.Local, 0)})
		if err != nil {
			return res, history, err
		}
		rn, rzNew := math.Sqrt(norms[0]), norms[1]
		res.Iterations = j + 1
		res.FinalResidual = rn
		history = append(history, rn)
		if rn <= tol*r0 {
			res.Converged = true
			break
		}
		beta := rzNew / rz
		rz = rzNew
		vec.Axpby(1, z.Local, beta, p.Local)
	}
	t := distmat.NewVector(a.P, e.Pos)
	if err := a.Residual(e, t, b, x, -1); err != nil {
		return res, history, err
	}
	tn, err := distmat.Norm2(e, t)
	if err != nil {
		return res, history, err
	}
	res.TrueResidual = tn
	if tn > 0 {
		res.Delta = (res.FinalResidual - tn) / tn
	}
	return res, history, nil
}
