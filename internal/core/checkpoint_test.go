package core

import (
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

// runCheckpoint solves a sine right-hand side under the checkpoint strategy
// and returns rank 0's Result, the gathered solution and the runtime, whose
// counters hold the strategy's traffic.
func runCheckpoint(t *testing.T, a *sparse.CSR, ranks int, sched *faults.Schedule, interval int) (Result, []float64, *cluster.Runtime, error) {
	t.Helper()
	rt := cluster.New(ranks)
	strat := NewCheckpointStrategy(interval)
	p := partition.NewBlockRow(a.Rows, ranks)
	var mu sync.Mutex
	var res Result
	var xFull []float64
	err := rt.Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := distmat.NewMatrix(e, a.RowBlock(lo, hi), p, 0, 0)
		if err != nil {
			return err
		}
		bj, err := precond.NewBlockJacobiILU(m.OwnBlock())
		if err != nil {
			return err
		}
		b := distmat.NewVector(p, e.Pos)
		for i := range b.Local {
			b.Local[i] = 1 + math.Sin(float64(lo+i)*0.13)
		}
		x := distmat.NewVector(p, e.Pos)
		r, err := ResilientPCG(e, m, x, b, LocalPrecond{P: bj}, Options{Tol: 1e-9}, sched, strat)
		if err != nil {
			return err
		}
		full, err := distmat.Gather(e, []distmat.Vector{x})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			res, xFull = r, full[0]
			mu.Unlock()
		}
		return nil
	})
	return res, xFull, rt, err
}

// checkpoints is the number of coordinated checkpoints a solve on rt took:
// every rank books each save as one CatCheckpoint message.
func checkpoints(rt *cluster.Runtime) int64 {
	return rt.Counters().Messages(cluster.CatCheckpoint) / int64(rt.Size())
}

func checkpointReference(t *testing.T, a *sparse.CSR) []float64 {
	t.Helper()
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + math.Sin(float64(i)*0.13)
	}
	x := make([]float64, n)
	r := localsolve.CG(a, x, b, nil, 1e-13, 20*n)
	if !r.Converged {
		t.Fatal("reference failed")
	}
	return x
}

func TestCheckpointPCGNoFailures(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	want := checkpointReference(t, a)
	res, x, rt, err := runCheckpoint(t, a, 4, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if d := vec.MaxAbsDiff(x, want); d > 1e-5 {
		t.Fatalf("solution error %g", d)
	}
	if checkpoints(rt) == 0 {
		t.Fatal("no checkpoints taken")
	}
}

func TestCheckpointRollbackRecovers(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	want := checkpointReference(t, a)
	sched := faults.NewSchedule(faults.Simultaneous(17, 1, 2))
	res, x, rt, err := runCheckpoint(t, a, 4, sched, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if len(res.Reconstructions) != 1 {
		t.Fatalf("rollbacks = %d", len(res.Reconstructions))
	}
	if d := vec.MaxAbsDiff(x, want); d > 1e-5 {
		t.Fatalf("solution error %g", d)
	}
	// A rollback redoes iterations: the failure at 17 rolls back to 10.
	if res.Iterations == 0 {
		t.Fatal("no iterations recorded")
	}
	for _, v := range x {
		if math.IsNaN(v) {
			t.Fatal("NaN leaked")
		}
	}
	// The one rollback restores x, r, z, p and three scalars on each of the
	// 4 ranks, booked as recovery traffic; the checkpoint traffic is the
	// saves alone, the same volume per complete checkpoint.
	vol := int64(4*a.Rows + 3*4)
	if got := rt.Counters().Floats(cluster.CatRecovery); got != vol {
		t.Fatalf("recovery traffic %d floats, want the restored %d", got, vol)
	}
	if got, want := rt.Counters().Floats(cluster.CatCheckpoint), checkpoints(rt)*vol; got != want {
		t.Fatalf("checkpoint traffic %d floats, want %d (= %d saves x %d)", got, want, checkpoints(rt), vol)
	}
}

// runCheckpointBlock solves the given right-hand sides as one lockstep block
// of plain CG under the checkpoint strategy and returns every column's Result
// and the runtime.
func runCheckpointBlock(t *testing.T, a *sparse.CSR, ranks int, rhs [][]float64, interval int) ([]Result, *cluster.Runtime) {
	t.Helper()
	rt := cluster.New(ranks)
	strat := NewCheckpointStrategy(interval)
	p := partition.NewBlockRow(a.Rows, ranks)
	var mu sync.Mutex
	var results []Result
	err := rt.Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := distmat.NewMatrix(e, a.RowBlock(lo, hi), p, 0, 0)
		if err != nil {
			return err
		}
		xs, bs := make([]distmat.Vector, len(rhs)), make([]distmat.Vector, len(rhs))
		for col := range rhs {
			xs[col] = distmat.NewVector(p, e.Pos)
			bs[col] = distmat.Vector{P: p, Pos: e.Pos, Local: append([]float64(nil), rhs[col][lo:hi]...)}
		}
		res, colErrs, err := SolveBlock(e, m, xs, bs, IdentityPrecond(), Options{Tol: 1e-9}, nil, strat)
		if err != nil {
			return err
		}
		for _, ce := range colErrs {
			if ce != nil {
				return ce
			}
		}
		if c.Rank() == 0 {
			mu.Lock()
			results = res
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, rt
}

// TestCheckpointTrafficAccounted pins the checkpoint volume exactly: every
// save moves x, r, z, p and the three replicated scalars of each column still
// running — 4 n_local + 3 floats per rank and column — and nothing for a
// column that has landed. A column running at the top of iteration j is one
// with more than j iterations, so it is saved ceil(iterations/interval) times.
func TestCheckpointTrafficAccounted(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	const ranks, interval = 4, 5
	n := a.Rows
	col := func(f func(i int) float64) []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = f(i)
		}
		return b
	}
	slow := col(func(i int) float64 { return 1 + math.Sin(float64(i)*0.13) })
	// A sum of seven eigenmodes of the 5-point Laplacian: plain CG lands it
	// in about seven iterations, between the second and the third save.
	fast := col(func(i int) float64 {
		b := 0.0
		for q := 1; q <= 7; q++ {
			b += math.Sin(math.Pi*float64(q*(i%12+1))/13) * math.Sin(math.Pi*float64(i/12+1)/13)
		}
		return b
	})
	for _, rhs := range [][][]float64{{slow}, {slow, fast, col(func(i int) float64 { return float64(i%7) - 3 })}} {
		results, rt := runCheckpointBlock(t, a, ranks, rhs, interval)
		var saves int64
		for _, res := range results {
			if !res.Converged {
				t.Fatalf("k=%d: a column did not converge: %+v", len(rhs), res)
			}
			saves += int64((res.Iterations + interval - 1) / interval)
		}
		if len(rhs) > 1 && results[1].Iterations+interval > results[0].Iterations {
			t.Fatalf("premise: the fast column (%d iterations) must land a save before the slow one (%d)",
				results[1].Iterations, results[0].Iterations)
		}
		want := saves * int64(4*n+3*ranks)
		if got := rt.Counters().Floats(cluster.CatCheckpoint); got != want {
			t.Fatalf("k=%d: checkpoint traffic %d floats, want %d (= %d column saves x (4n + 3 ranks))",
				len(rhs), got, want, saves)
		}
	}
}

// C/R pays for checkpoints even without failures; ESR's failure-free
// overhead is communication-only. Compare the per-iteration state volume
// saved by C/R (4n floats per checkpoint) with ESR's extra elements.
func TestCheckpointVolumeExceedsESRRedundancy(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	const ranks = 4
	_, _, rt, err := runCheckpoint(t, a, ranks, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	ckptFloats := rt.Counters().Floats(cluster.CatCheckpoint)
	// ESR phi=1 extra volume on the same problem:
	rt2 := cluster.New(ranks)
	p := partition.NewBlockRow(a.Rows, ranks)
	err = rt2.Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := distmat.NewMatrix(e, a.RowBlock(lo, hi), p, 1, 0)
		if err != nil {
			return err
		}
		bj, err := precond.NewBlockJacobiILU(m.OwnBlock())
		if err != nil {
			return err
		}
		b := distmat.NewVector(p, e.Pos)
		for i := range b.Local {
			b.Local[i] = 1
		}
		x := distmat.NewVector(p, e.Pos)
		_, err = ESRPCG(e, m, x, b, LocalPrecond{P: bj}, Options{Tol: 1e-9}, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	esrFloats := rt2.Counters().Floats(cluster.CatRedundancy)
	if esrFloats <= 0 {
		t.Fatal("no redundancy traffic measured")
	}
	if ckptFloats <= esrFloats {
		t.Fatalf("expected C/R volume (%d) to exceed ESR redundancy volume (%d) on this problem",
			ckptFloats, esrFloats)
	}
}

// TestCheckpointSaveAllocatesNothing pins the snapshot slot's reuse: after
// the first save, a checkpoint save — the copies, the traffic booking and the
// barrier — overwrites the slot in place, with a landed column left out.
func TestCheckpointSaveAllocatesNothing(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	p := partition.NewBlockRow(a.Rows, 1)
	rt := cluster.New(1)
	err := rt.Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		m, err := distmat.NewMatrix(e, a.RowBlock(0, a.Rows), p, 0, 0)
		if err != nil {
			return err
		}
		const k = 3
		xs, bs := make([]distmat.Vector, k), make([]distmat.Vector, k)
		for col := range xs {
			xs[col], bs[col] = distmat.NewVector(p, 0), distmat.NewVector(p, 0)
			vec.Fill(bs[col].Local, float64(col+1))
		}
		prec := IdentityPrecond()
		rec, err := recurrenceFor(prec)
		if err != nil {
			return err
		}
		st := newSolverState(e, m, prec, rec, xs, bs, Options{}.withDefaults(a.Rows), nil)
		st.done[1] = true
		strat := NewCheckpointStrategy(1)
		if err := strat.Overhead(st, 0); err != nil {
			return err
		}
		j := 0
		var serr error
		allocs := testing.AllocsPerRun(20, func() {
			j++
			if err := strat.Overhead(st, j); err != nil {
				serr = err
			}
		})
		if serr != nil {
			return serr
		}
		if allocs != 0 {
			t.Errorf("a checkpoint save after the first allocates %.1f times, want 0", allocs)
		}
		if st.snap.x[1] != nil {
			t.Error("the landed column was saved")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
