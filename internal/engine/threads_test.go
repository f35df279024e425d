package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/matgen"
)

// TestQuickThreadsConfigValidation: caps below ThreadsAuto are rejected
// with the typed error at the door; 0 (auto), ThreadsAuto (explicit auto)
// and positive caps validate, and explicit-auto normalizes to auto.
func TestQuickThreadsConfigValidation(t *testing.T) {
	var terr *InvalidConfigError
	err := (Config{Threads: -2}).Validate()
	if !errors.As(err, &terr) || terr.Field != "threads" || terr.Value != -2 {
		t.Fatalf("want *InvalidConfigError{threads, -2}, got %v", err)
	}
	for _, th := range []int{0, ThreadsAuto, 1, 64} {
		if err := (Config{Threads: th}).Validate(); err != nil {
			t.Fatalf("threads %d should validate: %v", th, err)
		}
	}
	if got := (Config{Threads: ThreadsAuto}).WithDefaults().Threads; got != 0 {
		t.Fatalf("ThreadsAuto normalized to %d, want 0", got)
	}
}

// TestQuickThreadsPrepKey: the cap is run policy — it is set on each solve's
// matrix forks, not baked into the prepared kernels — so no value of it may
// fragment the prepared-session cache key.
func TestQuickThreadsPrepKey(t *testing.T) {
	for _, th := range []int{ThreadsAuto, 1, 2} {
		if prepKey("h", Config{Ranks: 4}) != prepKey("h", Config{Ranks: 4, Threads: th}) {
			t.Fatalf("threads %d keys the prep cache", th)
		}
	}
}

// TestQuickThreadsBitIdentical: the cap is a resource knob, not a numerical
// one — the same solve at threads 1, 2 and auto must produce bit-identical
// solutions (the chunk grids of every parallel kernel are fixed by data
// size, not thread count).
func TestQuickThreadsBitIdentical(t *testing.T) {
	a := matgen.Poisson2D(24, 24)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%5)/3
	}
	solve := func(threads int) Solution {
		t.Helper()
		sol, err := SolveSystem(context.Background(), a, b, Config{
			Ranks: 4, Phi: 1, Threads: threads, Preconditioner: PrecondJacobi,
		})
		if err != nil {
			t.Fatalf("threads %d: %v", threads, err)
		}
		return sol
	}
	ref := solve(1)
	for _, threads := range []int{0, 2} {
		got := solve(threads)
		if got.Result.Iterations != ref.Result.Iterations ||
			got.Result.FinalResidual != ref.Result.FinalResidual {
			t.Fatalf("threads %d: %d iters residual %x, threads 1 gave %d iters %x",
				threads, got.Result.Iterations, got.Result.FinalResidual,
				ref.Result.Iterations, ref.Result.FinalResidual)
		}
		for i := range ref.X {
			if got.X[i] != ref.X[i] {
				t.Fatalf("threads %d: x[%d] = %x differs from threads 1's %x", threads, i, got.X[i], ref.X[i])
			}
		}
	}
}

// TestQuickThreadsEngineDefault: the engine-level default cap applies to
// jobs that did not pick one and surfaces in the threading gauges.
func TestQuickThreadsEngineDefault(t *testing.T) {
	eng := New(Options{Workers: 1, Defaults: Defaults{Threads: 2}})
	defer eng.Close()
	ts := eng.ThreadStats()
	if ts.Default != 2 {
		t.Fatalf("ThreadStats.Default = %d, want 2", ts.Default)
	}
	if ts.MaxProcs <= 0 || ts.PoolWorkers < 0 {
		t.Fatalf("implausible thread gauges: %+v", ts)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("below-auto Defaults.Threads must panic at construction")
		}
	}()
	New(Options{Defaults: Defaults{Threads: -2}})
}
