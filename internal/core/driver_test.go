package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/xerr"
)

// tridiagInverse is an SPD tridiagonal approximate inverse of the 2D
// Laplacian, a system matrix with a one-element halo per block.
func tridiagInverse(n int) *sparse.CSR {
	pc := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		pc.Add(i, i, 0.3)
		if i > 0 {
			pc.Add(i, i-1, 0.05)
		}
		if i < n-1 {
			pc.Add(i, i+1, 0.05)
		}
	}
	return pc.ToCSR()
}

// precondFactory builds a rank's preconditioner for the problem matrix m.
type precondFactory func(e *distmat.Env, m *distmat.Matrix) (Precond, error)

func identityFactory(*distmat.Env, *distmat.Matrix) (Precond, error) { return IdentityPrecond(), nil }

func iluFactory(_ *distmat.Env, m *distmat.Matrix) (Precond, error) {
	f, err := precond.NewBlockJacobiILU(m.OwnBlock())
	if err != nil {
		return nil, err
	}
	return LocalPrecond{P: f}, nil
}

// testColumn is column c of the varied right-hand sides the width tests
// solve.
func testColumn(n, c int) []float64 {
	b := make([]float64, n)
	for g := range b {
		b[g] = 1 + 0.5*math.Sin(float64(c+1)*float64(g+1))
	}
	return b
}

// columnRun is what rank 0 saw of one solved column.
type columnRun struct {
	x   []float64
	res Result
}

// solveColumns solves the given global right-hand sides on a fresh cluster —
// one column through the public ESRPCG wrapper, several through SolveBlock —
// and returns every column's gathered solution and Result.
func solveColumns(t *testing.T, a *sparse.CSR, ranks, phi int, rhs [][]float64, mk precondFactory, opts Options, sched *faults.Schedule) []columnRun {
	t.Helper()
	k := len(rhs)
	runs := make([]columnRun, k)
	var mu sync.Mutex
	ss := newSessionStub()
	err := cluster.New(ranks).Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		p := partition.NewBlockRow(a.Rows, c.Size())
		lo, hi := p.Range(e.Pos)
		m, err := distmat.NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
		if err != nil {
			return err
		}
		m.SetBlockWidth(k)
		pr, err := mk(e, m)
		if err != nil {
			return err
		}
		xs := make([]distmat.Vector, k)
		bs := make([]distmat.Vector, k)
		for col := range rhs {
			xs[col] = distmat.NewVector(p, e.Pos)
			bs[col] = distmat.Vector{P: p, Pos: e.Pos, Local: append([]float64(nil), rhs[col][lo:hi]...)}
		}
		var results []Result
		if k == 1 {
			res, err := ESRPCG(e, m, xs[0], bs[0], pr, ss.file(opts, e, m, pr), sched)
			if err != nil {
				return err
			}
			results = []Result{res}
		} else {
			var colErrs []error
			results, colErrs, err = SolveBlock(e, m, xs, bs, pr, ss.file(opts, e, m, pr), sched, nil)
			if err != nil {
				return err
			}
			for col, ce := range colErrs {
				if ce != nil {
					return fmt.Errorf("column %d: %w", col, ce)
				}
			}
		}
		full, err := distmat.Gather(e, xs)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			for col := range rhs {
				runs[col] = columnRun{x: full[col], res: results[col]}
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// requireSameColumn asserts that a column solved inside a block is the
// column solved alone: solution bits, iteration counts and the recovery
// episodes it lived through.
func requireSameColumn(t *testing.T, label string, got, want columnRun) {
	t.Helper()
	if !want.res.Converged || !got.res.Converged {
		t.Fatalf("%s: converged %v, solo %v", label, got.res.Converged, want.res.Converged)
	}
	if got.res.Iterations != want.res.Iterations || got.res.WorkIterations != want.res.WorkIterations {
		t.Fatalf("%s: iterations %d/%d, solo %d/%d", label,
			got.res.Iterations, got.res.WorkIterations, want.res.Iterations, want.res.WorkIterations)
	}
	if got.res.FinalResidual != want.res.FinalResidual || got.res.TrueResidual != want.res.TrueResidual {
		t.Fatalf("%s: residuals %v/%v, solo %v/%v", label,
			got.res.FinalResidual, got.res.TrueResidual, want.res.FinalResidual, want.res.TrueResidual)
	}
	for i := range want.x {
		if math.Float64bits(got.x[i]) != math.Float64bits(want.x[i]) {
			t.Fatalf("%s: x[%d] = %x, solo %x", label, i, got.x[i], want.x[i])
		}
	}
	if len(got.res.Reconstructions) != len(want.res.Reconstructions) {
		t.Fatalf("%s: %d episodes, solo %d", label, len(got.res.Reconstructions), len(want.res.Reconstructions))
	}
	for i, w := range want.res.Reconstructions {
		g := got.res.Reconstructions[i]
		if g.Iteration != w.Iteration || !reflect.DeepEqual(g.FailedRanks, w.FailedRanks) ||
			g.Restarts != w.Restarts || g.SubIterations != w.SubIterations {
			t.Fatalf("%s: episode %d = %+v, solo %+v", label, i, g, w)
		}
	}
}

// TestDriverMatchesReferencePCGBitwise pins the k = 1 inversion against an
// independent oracle: now that PCG is the width-k driver at k = 1, comparing
// PCG with ESRPCG compares the loop with itself, so the driver is held to
// the straight-line Alg. 1 body it replaced — bit for bit.
func TestDriverMatchesReferencePCGBitwise(t *testing.T) {
	a := matgen.Poisson2D(14, 12)
	for name, mk := range map[string]precondFactory{
		"identity":         identityFactory,
		"block-jacobi-ilu": iluFactory,
	} {
		t.Run(name, func(t *testing.T) {
			run := func(solve func(e *distmat.Env, m *distmat.Matrix, x, b distmat.Vector, pr Precond) (Result, error)) harnessOut {
				out := runSolver(t, 4, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
					e, m, x, b, err := setupProblem(c, a, 1)
					if err != nil {
						return Result{}, x, err
					}
					pr, err := mk(e, m)
					if err != nil {
						return Result{}, x, err
					}
					res, err := solve(e, m, x, b, pr)
					return res, x, err
				})
				if out.err != nil {
					t.Fatal(out.err)
				}
				return out
			}
			want := run(func(e *distmat.Env, m *distmat.Matrix, x, b distmat.Vector, pr Precond) (Result, error) {
				res, _, err := referencePCG(e, m, x, b, pr, 1e-9)
				return res, err
			})
			if !want.res.Converged {
				t.Fatal("oracle did not converge")
			}
			got := run(func(e *distmat.Env, m *distmat.Matrix, x, b distmat.Vector, pr Precond) (Result, error) {
				return PCG(e, m, x, b, pr, Options{Tol: 1e-9})
			})
			g, w := got.res, want.res
			if g.Converged != w.Converged || g.Iterations != w.Iterations || g.WorkIterations != w.Iterations ||
				g.InitialResidual != w.InitialResidual || g.FinalResidual != w.FinalResidual ||
				g.TrueResidual != w.TrueResidual || g.Delta != w.Delta {
				t.Fatalf("driver result %+v, oracle %+v", g, w)
			}
			for i := range want.x {
				if math.Float64bits(got.x[i]) != math.Float64bits(want.x[i]) {
					t.Fatalf("x[%d] = %x, oracle %x", i, got.x[i], want.x[i])
				}
			}
		})
	}
}

// eventLog is a Tracer recording a solve's traces.
type eventLog struct {
	iterations []IterationTrace
	recoveries []RecoveryTrace
}

func (l *eventLog) TraceIteration(it IterationTrace) { l.iterations = append(l.iterations, it) }
func (l *eventLog) TraceRecovery(rt RecoveryTrace)   { l.recoveries = append(l.recoveries, rt) }

// TestSoloEventsKeepScalarSemantics pins what a k = 1 solve reports to its
// Tracer — the stream esrd's /events serves: every iteration trace carries
// the column's own residual and relative residual (the last one included —
// not a masked-out zero), and a recovery trace the residual of the last
// completed iteration and the episode's record. The trajectory is the
// oracle's.
func TestSoloEventsKeepScalarSemantics(t *testing.T) {
	a := matgen.Poisson2D(14, 12)
	const failAt = 6
	sched := faults.NewSchedule(faults.Simultaneous(failAt, 1, 2))
	var want Result
	var history []float64
	var log eventLog
	var recs []Reconstruction
	for _, oracle := range []bool{true, false} {
		out := runSolver(t, 4, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
			e, m, x, b, err := setupProblem(c, a, 2)
			if err != nil {
				return Result{}, x, err
			}
			pr, err := iluFactory(e, m)
			if err != nil {
				return Result{}, x, err
			}
			if oracle {
				res, h, err := referencePCG(e, m, x, b, pr, 1e-9)
				if c.Rank() == 0 {
					history = h
				}
				return res, x, err
			}
			opts := Options{Tol: 1e-9}
			if c.Rank() == 0 {
				opts.Tracer = &log
			}
			res, err := ss.esrpcg(e, m, x, b, pr, opts, sched)
			return res, x, err
		})
		if out.err != nil {
			t.Fatal(out.err)
		}
		if oracle {
			want = out.res
		} else {
			recs = out.res.Reconstructions
		}
	}
	if len(history) <= failAt {
		t.Fatalf("oracle converged in %d iterations, before the failure at %d", len(history), failAt)
	}
	r0 := want.InitialResidual

	// Up to the failure the trajectory is the oracle's bit for bit; after the
	// reconstruction (exact only to LocalTol) it is the solve's own, so the
	// later events are held to the invariants rather than to the oracle.
	iters := log.iterations
	if len(iters) == 0 {
		t.Fatal("no iteration traces")
	}
	for i, tr := range iters {
		if tr.Iteration != i+1 {
			t.Fatalf("trace %d numbered %d", i, tr.Iteration)
		}
		if tr.RelResidual != tr.Residual/r0 {
			t.Fatalf("iteration %d: RelResidual %v, want %v", i+1, tr.RelResidual, tr.Residual/r0)
		}
		if i < failAt && tr.Residual != history[i] {
			t.Fatalf("iteration %d: residual %v, oracle %v", i+1, tr.Residual, history[i])
		}
	}
	last := iters[len(iters)-1]
	if last.Residual == 0 || last.Residual > 1e-9*r0 {
		t.Fatalf("final trace residual %v: want the converged column's own (<= %v)", last.Residual, 1e-9*r0)
	}
	if len(recs) != 1 || len(log.recoveries) != 1 {
		t.Fatalf("%d episodes, %d recovery traces; want 1 each", len(recs), len(log.recoveries))
	}
	rt := log.recoveries[0]
	if rt.Iteration != failAt || rt.Residual != history[failAt-1] || rt.RelResidual != history[failAt-1]/r0 {
		t.Fatalf("recovery trace %+v, want iteration %d with residual %v", rt, failAt, history[failAt-1])
	}
	if rt.Reconstruction == nil || !reflect.DeepEqual(*rt.Reconstruction, recs[0]) ||
		!reflect.DeepEqual(rt.Reconstruction.FailedRanks, []int{1, 2}) {
		t.Fatalf("recovery trace carries %+v, result %+v", rt.Reconstruction, recs[0])
	}
	if rt.Strategy != StrategyESR || rt.RedoneIterations != 0 || rt.Corruption {
		t.Fatalf("recovery trace %+v", rt)
	}
}

// TestUndetectedFlipBreakdownIsDataLoss: a flip in p that breaks the
// recurrence down before any detector could see it is corruption, not a
// numerical accident, and is classed data_loss with no check armed. With the
// identity preconditioner and b = 1, p(0) = 1 and bit 62 turns p[0] into
// +Inf: alpha(0) = 0, and the next SpMV makes p'Ap NaN.
func TestUndetectedFlipBreakdownIsDataLoss(t *testing.T) {
	a := matgen.Poisson2D(14, 12)
	sched := faults.NewSchedule(faults.BitFlip(0, 0, faults.TargetP, 0, 62))
	out := runSolver(t, 4, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
		e, m, x, b, err := setupProblem(c, a, 1)
		if err != nil {
			return Result{}, x, err
		}
		for i := range b.Local {
			b.Local[i] = 1
		}
		res, err := ss.esrpcg(e, m, x, b, nil, Options{}, sched)
		return res, x, err
	})
	if out.err == nil || !strings.Contains(out.err.Error(), "breakdown") {
		t.Fatalf("err = %v, want the corrupted recurrence to break down", out.err)
	}
	if !errors.Is(out.err, xerr.DataLoss) {
		t.Fatalf("breakdown %v after an undetected flip is not data_loss-classed", out.err)
	}
}
