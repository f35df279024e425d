package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/matgen"
	"repro/internal/partition"
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
