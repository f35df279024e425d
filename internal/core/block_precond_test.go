package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/precond"
)

// TestBreakdownOfEveryColumnStaysPerColumn: when every active column breaks
// down in the same iteration, the preconditioner is applied to no columns at
// all and the block goes on, so each breakdown stays that column's error
// instead of aborting the block. -A is negative definite: p'Ap < 0 at
// iteration 0.
func TestBreakdownOfEveryColumnStaysPerColumn(t *testing.T) {
	a := matgen.Poisson2D(12, 10).Clone()
	for i := range a.Val {
		a.Val[i] = -a.Val[i]
	}
	const ranks, k = 4, 2
	p := partition.NewBlockRow(a.Rows, ranks)
	err := cluster.New(ranks).Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := distmat.NewMatrix(e, a.RowBlock(lo, hi), p, 0, 0)
		if err != nil {
			return err
		}
		xs, bs := make([]distmat.Vector, k), make([]distmat.Vector, k)
		for col := range xs {
			xs[col] = distmat.NewVector(p, e.Pos)
			bs[col] = distmat.Vector{P: p, Pos: e.Pos, Local: testColumn(a.Rows, col)[lo:hi]}
		}
		_, colErrs, err := SolveBlock(e, m, xs, bs, IdentityPrecond(), Options{Tol: 1e-9}, nil, nil)
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

// TestLocalPrecondApplyAllocatesNothing: a multi-column application runs in
// the solve's ApplyScratch — the column headers and the fused sweep's
// working block — so once the scratch has grown to the block it allocates
// nothing, and its columns match the one-column ApplyInv bit for bit.
func TestLocalPrecondApplyAllocatesNothing(t *testing.T) {
	blk := matgen.Poisson2D(16, 16)
	p := partition.NewBlockRow(blk.Rows, 1)
	ilu, err := precond.NewBlockJacobiILU(blk)
	if err != nil {
		t.Fatal(err)
	}
	lp := LocalPrecond{P: ilu}
	const k = 8
	z, r := make([]distmat.Vector, k), make([]distmat.Vector, k)
	for c := range z {
		z[c] = distmat.NewVector(p, 0)
		r[c] = distmat.Vector{P: p, Pos: 0, Local: testColumn(blk.Rows, c)}
	}
	var s ApplyScratch
	if err := lp.Apply(z, r, &s); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, blk.Rows)
	for c := range z {
		ilu.ApplyInv(want, r[c].Local)
		for i := range want {
			if z[c].Local[i] != want[i] {
				t.Fatalf("column %d row %d: Apply %x, ApplyInv %x", c, i, z[c].Local[i], want[i])
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := lp.Apply(z, r, &s); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a steady-state Apply allocates %v times", allocs)
	}
}
