package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// TestBlockExplicitInversePrecondBitwise exercises the distributed fused
// preconditioner path: with an explicit-inverse preconditioner the blocked
// driver's one Apply fuses the k applications into ONE MatMat halo
// exchange. Every column of the blocked solve must stay bitwise identical
// to a solo ESRPCG of that column.
func TestBlockExplicitInversePrecondBitwise(t *testing.T) {
	a := matgen.Poisson2D(12, 10)
	n := a.Rows
	// P: SPD tridiagonal approximate inverse (scaled), as in the solo
	// explicit-inverse test.
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
	pm := pc.ToCSR()
	const ranks, k = 4, 3
	cols := func(lo, hi int) [][]float64 {
		bs := make([][]float64, k)
		for c := range bs {
			bs[c] = make([]float64, hi-lo)
			for i := range bs[c] {
				g := lo + i
				bs[c][i] = 1 + 0.5*math.Sin(float64(c+1)*float64(g+1))
			}
		}
		return bs
	}
	newPrecond := func(e *distmat.Env, p partition.Partition) (Precond, error) {
		lo, hi := p.Range(e.Pos)
		pmat, err := distmat.NewMatrix(e, pm.RowBlock(lo, hi), p, 0, 1)
		if err != nil {
			return nil, err
		}
		return ExplicitInvPrecond{P: pmat}, nil
	}

	// Solo reference: one ESRPCG per column.
	solo := make([][]float64, k)
	soloIters := make([]int, k)
	var mu sync.Mutex
	for c := 0; c < k; c++ {
		c := c
		rt := cluster.New(ranks)
		if err := rt.Run(func(cm *cluster.Comm) error {
			e, m, x, _, err := setupProblem(cm, a, 0)
			if err != nil {
				return err
			}
			lo, hi := m.P.Range(e.Pos)
			b := distmat.Vector{P: m.P, Pos: e.Pos, Local: cols(lo, hi)[c]}
			pr, err := newPrecond(e, m.P)
			if err != nil {
				return err
			}
			res, err := ESRPCG(e, m, x, b, pr, Options{Tol: 1e-9}, nil)
			if err != nil {
				return err
			}
			full, err := distmat.Gather(e, []distmat.Vector{x})
			if err != nil {
				return err
			}
			if cm.Rank() == 0 {
				mu.Lock()
				solo[c] = full[0]
				soloIters[c] = res.Iterations
				mu.Unlock()
			}
			return nil
		}); err != nil {
			t.Fatalf("solo column %d: %v", c, err)
		}
	}

	// One blocked solve of all k columns.
	blockedX := make([][]float64, k)
	blockedIters := make([]int, k)
	rt := cluster.New(ranks)
	if err := rt.Run(func(cm *cluster.Comm) error {
		e, m, _, _, err := setupProblem(cm, a, 0)
		if err != nil {
			return err
		}
		lo, hi := m.P.Range(e.Pos)
		locals := cols(lo, hi)
		bs := make([]distmat.Vector, k)
		xs := make([]distmat.Vector, k)
		for c := 0; c < k; c++ {
			bs[c] = distmat.Vector{P: m.P, Pos: e.Pos, Local: locals[c]}
			xs[c] = distmat.NewVector(m.P, e.Pos)
		}
		pr, err := newPrecond(e, m.P)
		if err != nil {
			return err
		}
		res, colErrs, err := SolveBlock(e, m, xs, bs, pr, Options{Tol: 1e-9}, nil, nil)
		if err != nil {
			return err
		}
		for c, ce := range colErrs {
			if ce != nil {
				t.Errorf("column %d: %v", c, ce)
			}
		}
		full, err := distmat.Gather(e, xs)
		if err != nil {
			return err
		}
		if cm.Rank() == 0 {
			mu.Lock()
			for c := 0; c < k; c++ {
				blockedX[c] = full[c]
				blockedIters[c] = res[c].Iterations
			}
			mu.Unlock()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for c := 0; c < k; c++ {
		if blockedIters[c] != soloIters[c] {
			t.Fatalf("column %d: blocked %d iterations, solo %d", c, blockedIters[c], soloIters[c])
		}
		for i := range solo[c] {
			if blockedX[c][i] != solo[c][i] {
				t.Fatalf("column %d: x[%d] blocked %x, solo %x", c, i, blockedX[c][i], solo[c][i])
			}
		}
		if d := vec.MaxAbsDiff(blockedX[c], solo[c]); d != 0 {
			t.Fatalf("column %d differs by %g", c, d)
		}
	}
}

// TestBlockExplicitInverseRecoveryBitwise: the episode reconstructs an
// explicit-inverse preconditioner's residual side (Alg. 2 lines 5-6) at any
// width, not only solo — a blocked explicit-inverse solve that hits a
// failure used to abort with "does not support blocked reconstruction".
// Every column of the k = 3 block must equal its solo ESRPCG run through two
// simultaneous failures, episode for episode.
func TestBlockExplicitInverseRecoveryBitwise(t *testing.T) {
	a := matgen.Poisson2D(12, 10)
	const ranks, phi, k = 6, 2, 3
	rhs := make([][]float64, k)
	for c := range rhs {
		rhs[c] = testColumn(a.Rows, c)
	}
	mk := explicitInvFactory(tridiagInverse(a.Rows))
	sched := faults.NewSchedule(faults.Simultaneous(4, 2, 3))
	opts := Options{Tol: 1e-9}
	block := solveColumns(t, a, ranks, phi, rhs, mk, opts, sched)
	for c := range rhs {
		solo := solveColumns(t, a, ranks, phi, rhs[c:c+1], mk, opts, sched)
		requireSameColumn(t, fmt.Sprintf("column %d", c), block[c], solo[0])
		recs := solo[0].res.Reconstructions
		if len(recs) != 1 || len(recs[0].FailedRanks) != 2 || recs[0].SubIterations == 0 {
			t.Fatalf("column %d: episodes %+v, want one over 2 ranks with subsystem iterations", c, recs)
		}
	}
}

// TestBreakdownOfEveryColumnStaysPerColumn: when every active column breaks
// down in the same iteration, the preconditioner is applied to no columns at
// all — an explicit inverse's product over zero columns must send nothing
// and succeed, so each breakdown stays that column's error instead of
// aborting the block. -A is negative definite: p'Ap < 0 at iteration 0.
func TestBreakdownOfEveryColumnStaysPerColumn(t *testing.T) {
	a := matgen.Poisson2D(12, 10).Clone()
	for i := range a.Val {
		a.Val[i] = -a.Val[i]
	}
	const ranks, k = 4, 2
	mk := explicitInvFactory(tridiagInverse(a.Rows))
	p := partition.NewBlockRow(a.Rows, ranks)
	err := cluster.New(ranks).Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := distmat.NewMatrix(e, a.RowBlock(lo, hi), p, 0, 0)
		if err != nil {
			return err
		}
		pr, err := mk(e, m)
		if err != nil {
			return err
		}
		xs, bs := make([]distmat.Vector, k), make([]distmat.Vector, k)
		for col := range xs {
			xs[col] = distmat.NewVector(p, e.Pos)
			bs[col] = distmat.Vector{P: p, Pos: e.Pos, Local: testColumn(a.Rows, col)[lo:hi]}
		}
		_, colErrs, err := SolveBlock(e, m, xs, bs, pr, Options{Tol: 1e-9}, nil, nil)
		if err != nil {
			return fmt.Errorf("block aborted: %w", err)
		}
		for col, ce := range colErrs {
			if ce == nil || !strings.Contains(ce.Error(), "breakdown") {
				return fmt.Errorf("column %d: error %v, want a breakdown", col, ce)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
