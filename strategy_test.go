package esr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestQuickStrategyOptions: strategy fields are validated at the door, and
// they are run policy: an ESR session serves a checkpoint solve per call.
func TestQuickStrategyOptions(t *testing.T) {
	a := Poisson2D(12, 12)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}

	var cfgErr *InvalidConfigError
	if _, err := NewSolver(a, Config{CheckpointInterval: -3}); !errors.As(err, &cfgErr) || cfgErr.Field != "checkpoint_interval" {
		t.Fatalf("Config{CheckpointInterval: -3}: want *InvalidConfigError{checkpoint_interval}, got %v", err)
	}
	if _, err := NewSolver(a, Config{Strategy: "prayer"}); !errors.As(err, &cfgErr) || cfgErr.Field != "strategy" {
		t.Fatalf("Config{Strategy: bogus}: want *InvalidConfigError{strategy}, got %v", err)
	}

	s, err := NewSolver(a, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sol, err := s.Solve(context.Background(), b, Config{Strategy: StrategyCheckpoint, CheckpointInterval: 7, Schedule: NewSchedule(Simultaneous(9, 1))})
	if err != nil || !sol.Result.Converged {
		t.Fatalf("per-solve checkpoint strategy on a phi-0 ESR session: %v", err)
	}
	if sol.Result.WorkIterations <= sol.Result.Iterations {
		t.Fatalf("rollback to iteration 7 redid nothing: %d work / %d iterations",
			sol.Result.WorkIterations, sol.Result.Iterations)
	}
	if s.StrategyName() != StrategyESR {
		t.Fatalf("per-call strategy changed the session default to %q", s.StrategyName())
	}
	if _, err := s.Solve(context.Background(), b, Config{Phi: 1}); err == nil ||
		!strings.Contains(err.Error(), "preparation-scoped") {
		t.Fatalf("per-solve Phi must be rejected as preparation-scoped, got %v", err)
	}
}

// TestStrategyRollbackDeterminism: under the checkpoint strategy the
// rollback replays bit-identically, so the converged iteration count matches
// the failure-free solve and every strategy reaches the same solution.
func TestStrategyRollbackDeterminism(t *testing.T) {
	a := Poisson2D(24, 24)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)/7
	}
	solve := func(sched *Schedule, opts Config) Solution {
		t.Helper()
		s, err := NewSolver(a, Config{Ranks: 4}, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sol, err := s.Solve(context.Background(), b, Config{Schedule: sched})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Result.Converged {
			t.Fatal("did not converge")
		}
		return sol
	}
	ref := solve(nil, Config{})
	sched := NewSchedule(Simultaneous(9, 2))
	for _, tc := range []struct {
		name string
		opts Config
	}{
		{"checkpoint", Config{Strategy: StrategyCheckpoint, CheckpointInterval: 6}},
		{"restart", Config{Strategy: StrategyRestart}},
	} {
		got := solve(sched, tc.opts)
		// Rolled-back iterations replay the exact arithmetic, so the
		// converged count (and the iterates) match the undisturbed run.
		if got.Result.Iterations != ref.Result.Iterations {
			t.Fatalf("%s: iterations %d != reference %d", tc.name, got.Result.Iterations, ref.Result.Iterations)
		}
		for i := range ref.X {
			if got.X[i] != ref.X[i] {
				t.Fatalf("%s: x[%d] = %g differs from reference %g", tc.name, i, got.X[i], ref.X[i])
			}
		}
	}
}

// ExampleNewSolver_checkpoint selects the checkpoint/restart baseline for a
// session.
func ExampleNewSolver_checkpoint() {
	a := Poisson2D(16, 16)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	s, err := NewSolver(a,
		Config{Ranks: 4, Strategy: StrategyCheckpoint, CheckpointInterval: 5, Schedule: NewSchedule(Simultaneous(8, 1))},
	)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	sol, err := s.Solve(context.Background(), b)
	if err != nil {
		panic(err)
	}
	fmt.Println("converged:", sol.Result.Converged,
		"rollbacks:", len(sol.Result.Reconstructions),
		"redone:", sol.Result.WorkIterations-sol.Result.Iterations)
	// Output: converged: true rollbacks: 1 redone: 4
}
