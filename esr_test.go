package esr

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"
)

func rhs(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + 0.5*math.Cos(float64(i)*0.21)
	}
	return b
}

func TestSolvePlain(t *testing.T) {
	a := Poisson2D(24, 24)
	b := rhs(a.Rows)
	sol, err := Solve(a, b, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Converged {
		t.Fatal("did not converge")
	}
	if rn := ResidualNorm(a, sol.X, b); rn > 1e-7*sol.Result.InitialResidual+1e-12 {
		t.Fatalf("residual %g too large", rn)
	}
}

func TestSolveWithFailures(t *testing.T) {
	a := Elasticity3D(5, 5, 4, 15, 3)
	b := rhs(a.Rows)
	sched := NewSchedule(Simultaneous(4, 1, 2, 3))
	sol, err := Solve(a, b, Config{Ranks: 8, Phi: 3, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Converged {
		t.Fatal("did not converge")
	}
	if got := sol.Result.TotalReconstructions(); got != 1 {
		t.Fatalf("reconstructions = %d", got)
	}
	ref, err := Solve(a, b, Config{Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sol.X {
		if math.Abs(sol.X[i]-ref.X[i]) > 1e-5*(1+math.Abs(ref.X[i])) {
			t.Fatalf("solution differs at %d", i)
		}
	}
}

// TestReconstructionPhasesReachTheResult: the episode's per-phase clock
// reads come out of the public API. Rank 0, whose Result is reported, leads
// the x-system here, so it also carries the subsystem's setup, inside the
// x-system phase, and its background solve, after the episode.
func TestReconstructionPhasesReachTheResult(t *testing.T) {
	a := Elasticity3D(5, 5, 4, 15, 3)
	sol, err := Solve(a, rhs(a.Rows), Config{Ranks: 8, Phi: 3, Schedule: NewSchedule(Simultaneous(4, 0, 1, 2))})
	if err != nil {
		t.Fatal(err)
	}
	rec := sol.Result.Reconstructions[0]
	var sum time.Duration
	for _, d := range rec.Phases {
		sum += d
	}
	if sum <= 0 || sum > rec.Duration || rec.SubsystemSetup > rec.Phases[3] || rec.SubsystemSolve <= 0 {
		t.Fatalf("phases %v (x-system setup %v, pcg %v) do not tile the %v episode",
			rec.Phases, rec.SubsystemSetup, rec.SubsystemSolve, rec.Duration)
	}
}

func TestSolveOverlapping(t *testing.T) {
	a := Poisson3D(8, 8, 8)
	b := rhs(a.Rows)
	sched := NewSchedule(
		Simultaneous(3, 2),
		Overlapping(3, 3, 5),
	)
	sol, err := Solve(a, b, Config{Ranks: 8, Phi: 2, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Converged {
		t.Fatal("did not converge")
	}
	if sol.Result.Reconstructions[0].Restarts < 1 {
		t.Fatal("expected a reconstruction restart")
	}
}

func TestSolvePreconditioners(t *testing.T) {
	a := Poisson2D(20, 20)
	b := rhs(a.Rows)
	for _, name := range []string{
		PrecondIdentity, PrecondJacobi, PrecondBlockJacobiILU,
		PrecondBlockJacobiChol, PrecondSSOR,
	} {
		sol, err := Solve(a, b, Config{Ranks: 4, Preconditioner: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sol.Result.Converged {
			t.Fatalf("%s did not converge", name)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	a := Poisson2D(6, 6)
	if _, err := Solve(a, rhs(10), Config{}); err == nil {
		t.Fatal("rhs length mismatch must fail")
	}
	if _, err := Solve(a, rhs(a.Rows), Config{Ranks: 4, Phi: 4}); err == nil {
		t.Fatal("phi >= ranks must fail")
	}
	if _, err := Solve(a, rhs(a.Rows), Config{Preconditioner: "nope"}); err == nil {
		t.Fatal("unknown preconditioner must fail")
	}
	rect := NewCOO(2, 3)
	rect.Add(0, 0, 1)
	if _, err := Solve(rect.ToCSR(), rhs(2), Config{}); err == nil {
		t.Fatal("non-square must fail")
	}
}

func TestSolveDataLossSurfaced(t *testing.T) {
	// phi=1 cannot cover two adjacent failures on a narrow band.
	a := Poisson2D(16, 16)
	sched := NewSchedule(Simultaneous(2, 1, 2))
	_, err := Solve(a, rhs(a.Rows), Config{Ranks: 6, Phi: 1, Schedule: sched})
	if err == nil {
		t.Fatal("expected data loss")
	}
	var dl *DataLossError
	if !errors.As(err, &dl) {
		t.Fatalf("want DataLossError, got %v", err)
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	a := CircuitLike(100, 3, 0.3, 1)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a, true); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() {
		t.Fatal("round trip changed nnz")
	}
}

func TestRanksClampedToRows(t *testing.T) {
	a := Poisson2D(2, 2) // 4 rows
	sol, err := Solve(a, rhs(4), Config{Ranks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Converged {
		t.Fatal("did not converge")
	}
}
