package esr

import (
	"context"
	"errors"
	"math"
	"testing"
)

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
