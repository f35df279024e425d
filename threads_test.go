package esr

import (
	"context"
	"errors"
	"testing"
)

// TestQuickWithThreadsOptionScope: the public thread-cap option validates
// its argument with the typed error, is run policy (a per-solve cap, or
// ThreadsAuto to lift the session's, changes nothing but the fan-out), and
// a capped session still solves correctly.
func TestQuickWithThreadsOptionScope(t *testing.T) {
	if _, err := NewSolver(Poisson2D(8, 8), WithThreads(-2)); err == nil {
		t.Fatal("below-auto threads must be rejected")
	} else {
		var terr *InvalidConfigError
		if !errors.As(err, &terr) || terr.Field != "threads" || terr.Value != -2 {
			t.Fatalf("want *InvalidConfigError{threads, -2}, got %v", err)
		}
	}

	a := Poisson2D(12, 12)
	s, err := NewSolver(a, WithRanks(4), WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Config().Threads; got != 1 {
		t.Fatalf("session threads = %d, want 1", got)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	sol, err := s.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Converged {
		t.Fatal("capped session did not converge")
	}
	// Run policy: the cap changes per solve, and never the bits.
	for _, th := range []int{2, ThreadsAuto} {
		got, err := s.Solve(context.Background(), b, WithThreads(th))
		if err != nil {
			t.Fatalf("per-solve WithThreads(%d): %v", th, err)
		}
		for i := range sol.X {
			if got.X[i] != sol.X[i] {
				t.Fatalf("threads %d: x[%d] differs from the capped session's", th, i)
			}
		}
	}
	if _, err := s.Solve(context.Background(), b, WithThreads(-2)); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("per-solve WithThreads(-2): want invalid_argument, got %v", err)
	}
}
