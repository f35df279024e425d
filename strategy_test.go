package esr

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestQuickStrategyOptions: the typed option constructors validate at the
// door, and the strategy options are run policy: an ESR session serves a
// checkpoint solve per call.
func TestQuickStrategyOptions(t *testing.T) {
	a := Poisson2D(12, 12)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}

	var cfgErr *InvalidConfigError
	if _, err := NewSolver(a, WithCheckpointInterval(0)); !errors.As(err, &cfgErr) || cfgErr.Field != "checkpoint_interval" {
		t.Fatalf("WithCheckpointInterval(0): want *InvalidConfigError{checkpoint_interval}, got %v", err)
	}
	if _, err := NewSolver(a, WithCheckpointInterval(-3)); !errors.As(err, &cfgErr) || cfgErr.Field != "checkpoint_interval" {
		t.Fatalf("WithCheckpointInterval(-3): want *InvalidConfigError{checkpoint_interval}, got %v", err)
	}
	if _, err := NewSolver(a, WithStrategy("prayer")); !errors.As(err, &cfgErr) || cfgErr.Field != "strategy" {
		t.Fatalf("WithStrategy(bogus): want *InvalidConfigError{strategy}, got %v", err)
	}

	s, err := NewSolver(a, WithRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sol, err := s.Solve(context.Background(), b, WithStrategy(CheckpointStrategy), WithCheckpointInterval(7),
		WithSchedule(NewSchedule(Simultaneous(9, 1))))
	if err != nil || !sol.Result.Converged {
		t.Fatalf("per-solve checkpoint strategy on a phi-0 ESR session: %v", err)
	}
	if sol.Result.WorkIterations <= sol.Result.Iterations {
		t.Fatalf("rollback to iteration 7 redid nothing: %d work / %d iterations",
			sol.Result.WorkIterations, sol.Result.Iterations)
	}
	if s.StrategyName() != string(ESRStrategy) {
		t.Fatalf("per-call strategy changed the session default to %q", s.StrategyName())
	}
	if _, err := s.Solve(context.Background(), b, WithPhi(1)); err == nil ||
		!strings.Contains(err.Error(), "preparation-scoped") {
		t.Fatalf("per-solve WithPhi must be rejected as preparation-scoped, got %v", err)
	}
}

// TestChaosStrategySoak: the seeded chaos wire (message reordering across
// wires plus lagged failure notification) under every recovery strategy,
// with overlapping failures in the mix. The schedule-driven wipe/recover
// protocol must converge to tolerance regardless of delivery order on all
// three strategies. SOAK_SEEDS widens the seed sweep (the nightly CI runs
// more; the default keeps tier-1 fast).
func TestChaosStrategySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped with -short")
	}
	seeds := 2
	if v := os.Getenv("SOAK_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad SOAK_SEEDS %q", v)
		}
		seeds = n
	}
	a := Poisson2D(16, 16)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%3)
	}
	sched := NewSchedule(
		Simultaneous(6, 1, 2),
		Overlapping(6, 3, 3),
	)
	strategies := []struct {
		name string
		opts []Option
	}{
		{"esr", []Option{WithStrategy(ESRStrategy), WithPhi(3)}},
		{"checkpoint", []Option{WithStrategy(CheckpointStrategy), WithCheckpointInterval(4)}},
		{"restart", []Option{WithStrategy(RestartStrategy)}},
	}
	for _, strat := range strategies {
		strat := strat
		t.Run(strat.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				opts := append([]Option{
					WithRanks(4),
					WithTransport(ChaosTransport),
					WithTransportSeed(seed),
					WithSchedule(sched),
				}, strat.opts...)
				s, err := NewSolver(a, opts...)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				sol, err := s.Solve(context.Background(), b)
				s.Close()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !sol.Result.Converged {
					t.Fatalf("seed %d: did not converge: %+v", seed, sol.Result)
				}
				if len(sol.Result.Reconstructions) != 1 {
					t.Fatalf("seed %d: episodes = %d", seed, len(sol.Result.Reconstructions))
				}
				if rec := sol.Result.Reconstructions[0]; rec.Restarts != 1 {
					t.Fatalf("seed %d: overlapping failure did not restart the episode: %+v", seed, rec)
				}
				if rn := ResidualNorm(a, sol.X, b); rn > 1e-4 {
					t.Fatalf("seed %d: true residual %g", seed, rn)
				}
			}
		})
	}

	// Corruption axis: bit flips over the chaos wire, per strategy. Twin
	// repairs forward and must land the correct solution; the rollback
	// strategies cannot repair, so with the drift check armed they must fail
	// data_loss-classed — under no seed may any strategy converge silently
	// wrong.
	corr := NewSchedule(
		BitFlip(5, 1, TargetX, 3, 52),
		BitFlip(9, 2, TargetR, 0, 51),
	)
	sdcVariants := []struct {
		name    string
		repairs bool
		opts    []Option
	}{
		{"twin", true, []Option{WithStrategy(TwinStrategy)}},
		{"esr", false, []Option{WithPhi(1), WithSDCCheck(5)}},
		{"checkpoint", false, []Option{WithStrategy(CheckpointStrategy), WithCheckpointInterval(4), WithSDCCheck(5)}},
		{"restart", false, []Option{WithStrategy(RestartStrategy), WithSDCCheck(5)}},
	}
	for _, v := range sdcVariants {
		v := v
		t.Run("sdc-"+v.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				opts := append([]Option{
					WithRanks(4),
					WithTransport(ChaosTransport),
					WithTransportSeed(seed),
					WithSchedule(corr),
				}, v.opts...)
				s, err := NewSolver(a, opts...)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				sol, err := s.Solve(context.Background(), b)
				st := s.StrategyStats()
				s.Close()
				if !v.repairs {
					if err == nil {
						t.Fatalf("seed %d: corrupted solve must not converge silently", seed)
					}
					if !errors.Is(err, ErrDataLoss) {
						t.Fatalf("seed %d: error %v is not data_loss-classed", seed, err)
					}
					if st.SDCDetected == 0 || st.SDCCorrected != 0 {
						t.Fatalf("seed %d: stats %+v, want detection without repair", seed, st)
					}
					continue
				}
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				r := sol.Result
				if !r.Converged || r.SDCInjected != 2 || r.SDCDetected != 2 || r.SDCCorrected != 2 {
					t.Fatalf("seed %d: result %+v, want converged with SDC 2/2/2", seed, r)
				}
				if rn := ResidualNorm(a, sol.X, b); rn > 1e-4 {
					t.Fatalf("seed %d: true residual %g", seed, rn)
				}
			}
		})
	}

	// The blocked multi-RHS path under the same chaos wire and overlapping
	// schedule: the k-wide recovery episode (including its restart) must
	// land every column regardless of delivery order.
	t.Run("esr-blocked-batch", func(t *testing.T) {
		const k = 3
		bs := make([][]float64, k)
		for j := range bs {
			bs[j] = variedRHS(a.Rows, j)
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			s, err := NewSolver(a,
				WithRanks(4),
				WithTransport(ChaosTransport),
				WithTransportSeed(seed),
				WithSchedule(sched),
				WithStrategy(ESRStrategy),
				WithPhi(3),
			)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			sols, err := s.SolveBatch(context.Background(), bs, WithBlockSize(k))
			s.Close()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for j, sol := range sols {
				if !sol.Result.Converged {
					t.Fatalf("seed %d column %d: did not converge: %+v", seed, j, sol.Result)
				}
				if len(sol.Result.Reconstructions) != 1 {
					t.Fatalf("seed %d column %d: episodes = %d", seed, j, len(sol.Result.Reconstructions))
				}
				if rec := sol.Result.Reconstructions[0]; rec.Restarts != 1 {
					t.Fatalf("seed %d column %d: overlapping failure did not restart: %+v", seed, j, rec)
				}
				if rn := ResidualNorm(a, sol.X, bs[j]); rn > 1e-4 {
					t.Fatalf("seed %d column %d: true residual %g", seed, j, rn)
				}
			}
		}
	})
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
	solve := func(sched *Schedule, opts ...Option) Solution {
		t.Helper()
		s, err := NewSolver(a, append([]Option{WithRanks(4)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sol, err := s.Solve(context.Background(), b, WithSchedule(sched))
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Result.Converged {
			t.Fatal("did not converge")
		}
		return sol
	}
	ref := solve(nil)
	sched := NewSchedule(Simultaneous(9, 2))
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"checkpoint", []Option{WithStrategy(CheckpointStrategy), WithCheckpointInterval(6)}},
		{"restart", []Option{WithStrategy(RestartStrategy)}},
	} {
		got := solve(sched, tc.opts...)
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

// ExampleWithStrategy shows selecting the checkpoint/restart baseline
// through the session API.
func ExampleWithStrategy() {
	a := Poisson2D(16, 16)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	s, err := NewSolver(a,
		WithRanks(4),
		WithStrategy(CheckpointStrategy),
		WithCheckpointInterval(5),
		WithSchedule(NewSchedule(Simultaneous(8, 1))),
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
