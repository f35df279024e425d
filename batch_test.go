package esr

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestSolveBatchBlockedBitwiseLooped is the blocked-path contract at the
// public API: on every transport, a blocked batch (lockstep k-wide driver)
// must be bitwise identical, column for column, to looped single-RHS solves
// of the same right-hand sides.
func TestSolveBatchBlockedBitwiseLooped(t *testing.T) {
	a := Poisson2D(18, 18)
	const k = 6
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = variedRHS(a.Rows, j)
	}
	for _, tr := range []Transport{ChanTransport, ChaosTransport, NetTransport} {
		t.Run(string(tr), func(t *testing.T) {
			s, err := NewSolver(a, WithRanks(4), WithPhi(1), WithTransport(tr))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			blocked, err := s.SolveBatch(context.Background(), bs, WithBlockSize(4))
			if err != nil {
				t.Fatal(err)
			}
			looped, err := s.SolveBatch(context.Background(), bs, WithBlockSize(1))
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < k; j++ {
				if !blocked[j].Result.Converged || !looped[j].Result.Converged {
					t.Fatalf("column %d did not converge (blocked %v, looped %v)",
						j, blocked[j].Result.Converged, looped[j].Result.Converged)
				}
				if blocked[j].Result.Iterations != looped[j].Result.Iterations {
					t.Fatalf("column %d: blocked %d iterations, looped %d",
						j, blocked[j].Result.Iterations, looped[j].Result.Iterations)
				}
				for i := range blocked[j].X {
					if blocked[j].X[i] != looped[j].X[i] {
						t.Fatalf("column %d: X[%d] blocked %x, looped %x",
							j, i, blocked[j].X[i], looped[j].X[i])
					}
				}
				checkResidual(t, a, blocked[j].X, bs[j])
			}
		})
	}
}

// TestSolveBatchBlockedUnderFailures kills two ranks mid-solve of a blocked
// batch: the k-wide ESR reconstruction must restore all columns so exactly
// that each one stays bitwise identical to a solo solve under the same
// schedule — on every transport.
func TestSolveBatchBlockedUnderFailures(t *testing.T) {
	a := Poisson2D(16, 16)
	const k = 4
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = variedRHS(a.Rows, j)
	}
	sched := NewSchedule(Simultaneous(6, 1, 2))
	for _, tr := range []Transport{ChanTransport, ChaosTransport, NetTransport} {
		t.Run(string(tr), func(t *testing.T) {
			s, err := NewSolver(a, WithRanks(4), WithPhi(2), WithTransport(tr))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			blocked, err := s.SolveBatch(context.Background(), bs,
				WithBlockSize(k), WithSchedule(sched))
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < k; j++ {
				solo, err := s.Solve(context.Background(), bs[j], WithSchedule(sched))
				if err != nil {
					t.Fatal(err)
				}
				if !blocked[j].Result.Converged {
					t.Fatalf("column %d did not converge under failures", j)
				}
				if got, want := blocked[j].Result.Reconstructions, solo.Result.Reconstructions; len(got) != len(want) {
					t.Fatalf("column %d: %d reconstructions, solo %d", j, len(got), len(want))
				}
				if blocked[j].Result.Iterations != solo.Result.Iterations {
					t.Fatalf("column %d: blocked %d iterations, solo %d",
						j, blocked[j].Result.Iterations, solo.Result.Iterations)
				}
				for i := range blocked[j].X {
					if blocked[j].X[i] != solo.X[i] {
						t.Fatalf("column %d: X[%d] blocked %x, solo %x",
							j, i, blocked[j].X[i], solo.X[i])
					}
				}
			}
		})
	}
}

// TestSolveBatchFailFastValidation pins the batch validation contract: a
// malformed column rejects the whole batch with a typed *InvalidRHSError
// naming it, before any solve has run.
func TestSolveBatchFailFastValidation(t *testing.T) {
	a := Poisson2D(10, 10)
	s, err := NewSolver(a, WithRanks(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Wrong length at index 2.
	bs := [][]float64{onesRHS(a.Rows), onesRHS(a.Rows), onesRHS(a.Rows - 1)}
	_, err = s.SolveBatch(context.Background(), bs)
	var rhsErr *InvalidRHSError
	if !errors.As(err, &rhsErr) || rhsErr.Index != 2 {
		t.Fatalf("short column: err = %v, want *InvalidRHSError{Index: 2}", err)
	}

	// Non-finite element at index 1.
	bad := onesRHS(a.Rows)
	bad[5] = math.NaN()
	_, err = s.SolveBatch(context.Background(), [][]float64{onesRHS(a.Rows), bad})
	if !errors.As(err, &rhsErr) || rhsErr.Index != 1 {
		t.Fatalf("NaN column: err = %v, want *InvalidRHSError{Index: 1}", err)
	}

	// A valid batch after the rejections still solves (nothing was consumed).
	sols, err := s.SolveBatch(context.Background(), [][]float64{onesRHS(a.Rows)})
	if err != nil || len(sols) != 1 || !sols[0].Result.Converged {
		t.Fatalf("valid batch after rejection: sols=%v err=%v", len(sols), err)
	}
}

// TestWithBlockSizeValidation pins the typed rejection of meaningless block
// widths and the batch-scoped acceptance of valid ones.
func TestWithBlockSizeValidation(t *testing.T) {
	a := Poisson2D(8, 8)
	for _, bad := range []int{-1, MaxBlockSize + 1} {
		if _, err := NewSolver(a, WithBlockSize(bad)); err == nil {
			t.Fatalf("block size %d accepted", bad)
		} else {
			var bsErr *InvalidConfigError
			if !errors.As(err, &bsErr) || bsErr.Field != "block_size" || bsErr.Value != bad {
				t.Fatalf("block size %d: err = %v, want *InvalidConfigError{block_size}", bad, err)
			}
		}
	}
	// Per-call override on a default session: batch-scoped, not rejected as
	// preparation-scoped.
	s, err := NewSolver(a, WithRanks(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bs := [][]float64{onesRHS(a.Rows), onesRHS(a.Rows)}
	if _, err := s.SolveBatch(context.Background(), bs, WithBlockSize(2)); err != nil {
		t.Fatalf("per-call WithBlockSize rejected: %v", err)
	}
	var bsErr *InvalidConfigError
	if _, err := s.SolveBatch(context.Background(), bs, WithBlockSize(-1)); !errors.As(err, &bsErr) || bsErr.Field != "block_size" {
		t.Fatalf("per-call WithBlockSize(-1): err = %v, want *InvalidConfigError{block_size}", err)
	}
}

// TestSolveBatchPreconditionerSweep pins blocked/looped bit-identity across
// the preconditioner families: identity and jacobi take the fused
// element-wise batch application, block-jacobi-ilu the fused triangular
// sweep, and ssor/block-jacobi-cholesky the per-column fallback inside the
// blocked driver.
func TestSolveBatchPreconditionerSweep(t *testing.T) {
	a := Poisson2D(14, 14)
	const k = 5
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = variedRHS(a.Rows, j)
	}
	for _, p := range []Preconditioner{Identity, Jacobi, BlockJacobiILU, BlockJacobiChol, SSOR} {
		t.Run(string(p), func(t *testing.T) {
			s, err := NewSolver(a, WithRanks(4), WithPhi(1), WithPreconditioner(p))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			blocked, err := s.SolveBatch(context.Background(), bs, WithBlockSize(k))
			if err != nil {
				t.Fatal(err)
			}
			looped, err := s.SolveBatch(context.Background(), bs, WithBlockSize(1))
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < k; j++ {
				if !blocked[j].Result.Converged {
					t.Fatalf("column %d did not converge under %s", j, p)
				}
				if blocked[j].Result.Iterations != looped[j].Result.Iterations {
					t.Fatalf("column %d: blocked %d iterations, looped %d",
						j, blocked[j].Result.Iterations, looped[j].Result.Iterations)
				}
				for i := range blocked[j].X {
					if blocked[j].X[i] != looped[j].X[i] {
						t.Fatalf("column %d: X[%d] blocked %x, looped %x under %s",
							j, i, blocked[j].X[i], looped[j].X[i], p)
					}
				}
			}
		})
	}
}
