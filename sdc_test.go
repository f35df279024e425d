package esr

import (
	"context"
	"errors"
	"testing"
)

// sdcTestRHS builds the varied right-hand side of the SDC suites.
func sdcTestRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%5)/3
	}
	return b
}

// TestTwinForwardRecoveryBitIdentical: with the default comparison interval
// of 1, every scheduled bit flip is caught at its own poll point and the
// healthy twin is copied forward bitwise — so the corrupted solve's iterates,
// iteration count and solution are bit-identical to the fault-free run, and
// the SDC counters account for every injection exactly.
func TestTwinForwardRecoveryBitIdentical(t *testing.T) {
	a := Poisson2D(24, 24)
	b := sdcTestRHS(a.Rows)
	solve := func(sched *Schedule) Solution {
		t.Helper()
		s, err := NewSolver(a, Config{Ranks: 4, Strategy: StrategyTwin})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sol, err := s.Solve(context.Background(), b, Config{Schedule: sched})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Result.Converged {
			t.Fatalf("did not converge: %+v", sol.Result)
		}
		return sol
	}
	ref := solve(nil)
	if ref.Result.SDCInjected != 0 || ref.Result.SDCDetected != 0 {
		t.Fatalf("fault-free run has SDC counters: %+v", ref.Result)
	}
	// One flip per target vector, on four different ranks and iterations.
	sched := NewSchedule(
		BitFlip(5, 1, TargetX, 3, 52),
		BitFlip(9, 0, TargetR, 0, 51),
		BitFlip(13, 2, TargetZ, 7, 45),
		BitFlip(17, 3, TargetP, 2, 33),
	)
	got := solve(sched)
	r := got.Result
	if r.SDCInjected != 4 || r.SDCDetected != 4 || r.SDCCorrected != 4 {
		t.Fatalf("SDC counters: injected=%d detected=%d corrected=%d, want 4/4/4",
			r.SDCInjected, r.SDCDetected, r.SDCCorrected)
	}
	if r.SDCLatency != 0 {
		t.Fatalf("interval-1 detection latency = %d iterations, want 0", r.SDCLatency)
	}
	if r.Iterations != ref.Result.Iterations {
		t.Fatalf("iterations %d != fault-free %d", r.Iterations, ref.Result.Iterations)
	}
	for i := range ref.X {
		if got.X[i] != ref.X[i] {
			t.Fatalf("x[%d] = %g differs from fault-free %g", i, got.X[i], ref.X[i])
		}
	}
}

// TestSDCCheckDetectionClassedFailure: a strategy without a repair path plus
// an armed SDC check must refuse to converge wrong — the solve fails with a
// data_loss-classed *SDCDetectedError at the first check after the flip, and
// the session strategy stats still account for the detection.
func TestSDCCheckDetectionClassedFailure(t *testing.T) {
	a := Poisson2D(20, 20)
	b := sdcTestRHS(a.Rows)
	s, err := NewSolver(a, Config{Ranks: 4, SDCCheckInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.Solve(context.Background(), b,
		Config{Schedule: NewSchedule(BitFlip(7, 0, TargetX, 0, 52))})
	if err == nil {
		t.Fatal("corrupted esr solve must fail the drift check")
	}
	if !errors.Is(err, ErrDataLoss) {
		t.Fatalf("error %v is not data_loss-classed", err)
	}
	var sde *SDCDetectedError
	if !errors.As(err, &sde) {
		t.Fatalf("error %v does not unwrap to *SDCDetectedError", err)
	}
	// Injection at 7, checks at multiples of 5: first detection at 10.
	if sde.Iteration != 10 {
		t.Fatalf("detected at iteration %d, want 10", sde.Iteration)
	}
	st := s.StrategyStats()
	if st.Solves != 0 || st.SDCInjected != 1 || st.SDCDetected != 1 || st.SDCCorrected != 0 {
		t.Fatalf("session stats: %+v, want 0 solves, SDC 1/1/0", st)
	}
}

// TestTwinDriftRepairOutsideWindow: with a comparison interval above 1, a
// flip landing between twin exchanges slips past the checksum window — the
// periodic drift check catches it instead, and the twin strategy repairs
// forward through RepairDrift (recurrence restart, no rollback) rather than
// failing the solve.
func TestTwinDriftRepairOutsideWindow(t *testing.T) {
	a := Poisson2D(20, 20)
	b := sdcTestRHS(a.Rows)
	s, err := NewSolver(a,
		Config{Ranks: 4, Strategy: StrategyTwin, TwinInterval: 4, SDCCheckInterval: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Iteration 6 is not a multiple of the twin interval 4: the checksum
	// compare never sees the flip; the drift check at 10 does.
	sol, err := s.Solve(context.Background(), b,
		Config{Schedule: NewSchedule(BitFlip(6, 1, TargetX, 2, 52))})
	if err != nil {
		t.Fatal(err)
	}
	r := sol.Result
	if !r.Converged {
		t.Fatalf("did not converge: %+v", r)
	}
	if r.SDCInjected != 1 || r.SDCDetected != 1 || r.SDCCorrected != 1 {
		t.Fatalf("SDC counters: %d/%d/%d, want 1/1/1", r.SDCInjected, r.SDCDetected, r.SDCCorrected)
	}
	if r.SDCLatency != 4 {
		t.Fatalf("detection latency = %d iterations, want 4 (flip at 6, check at 10)", r.SDCLatency)
	}
	if rn := ResidualNorm(a, sol.X, b); rn > 1e-4 {
		t.Fatalf("true residual %g", rn)
	}
}

// TestSDCOptionValidation: negative twin and SDC periods are refused at the
// door with typed errors (0 is the default), and both knobs are run policy:
// a plain session takes them per solve.
func TestSDCOptionValidation(t *testing.T) {
	a := Poisson2D(12, 12)
	b := sdcTestRHS(a.Rows)

	for _, tc := range []struct {
		field string
		opt   Option
	}{
		{"twin_interval", Config{TwinInterval: -2}},
		{"sdc_check_interval", Config{SDCCheckInterval: -1}},
	} {
		var cfgErr *InvalidConfigError
		if _, err := NewSolver(a, tc.opt); !errors.As(err, &cfgErr) || cfgErr.Field != tc.field ||
			!errors.Is(err, ErrInvalidArgument) {
			t.Fatalf("%s: want an invalid_argument *InvalidConfigError naming it, got %v", tc.field, err)
		}
	}

	s, err := NewSolver(a, Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, opt := range []Option{{TwinInterval: 3}, {SDCCheckInterval: 5}, {Strategy: StrategyTwin}} {
		if sol, err := s.Solve(context.Background(), b, opt); err != nil || !sol.Result.Converged {
			t.Fatalf("per-solve SDC policy option: converged %v, err %v", sol.Result.Converged, err)
		}
	}
	if _, err := s.Solve(context.Background(), b, Config{TwinInterval: -2}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("per-solve Config{TwinInterval: -2}: want invalid_argument, got %v", err)
	}
}
