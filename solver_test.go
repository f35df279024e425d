package esr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// onesRHS returns the paper's all-ones right-hand side.
func onesRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	return b
}

// variedRHS returns a deterministic non-trivial right-hand side distinct per
// seed.
func variedRHS(n, seed int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + 0.5*math.Sin(float64(seed+1)*float64(i+1))
	}
	return b
}

// checkResidual fails the test unless ||b - A x|| meets the default relative
// target against ||b - A 0|| = ||b||.
func checkResidual(t *testing.T, a *Matrix, x, b []float64) {
	t.Helper()
	var nb float64
	for _, v := range b {
		nb += v * v
	}
	nb = math.Sqrt(nb)
	if r := ResidualNorm(a, x, b); r > 1e-6*nb {
		t.Fatalf("residual %g too large (||b|| = %g)", r, nb)
	}
}

// TestQuickSolverSession covers the prepare-once/solve-many basics: repeated
// and sequential solves on one session agree with the one-shot path.
func TestQuickSolverSession(t *testing.T) {
	a := Poisson2D(24, 24)
	s, err := NewSolver(a, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.N() != a.Rows || s.Ranks() != 4 || s.Phi() != 0 {
		t.Fatalf("session shape: n=%d ranks=%d phi=%d", s.N(), s.Ranks(), s.Phi())
	}

	b := onesRHS(a.Rows)
	ref, err := Solve(a, b, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 3; call++ {
		sol, err := s.Solve(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Result.Converged {
			t.Fatalf("call %d did not converge", call)
		}
		checkResidual(t, a, sol.X, b)
		// The runtime is deterministic and the prepared state is identical to
		// what a one-shot solve builds, so results match bit for bit.
		if sol.Result.Iterations != ref.Result.Iterations {
			t.Fatalf("call %d: %d iterations, one-shot took %d",
				call, sol.Result.Iterations, ref.Result.Iterations)
		}
		for i := range sol.X {
			if sol.X[i] != ref.X[i] {
				t.Fatalf("call %d: X[%d] = %g, one-shot %g", call, i, sol.X[i], ref.X[i])
			}
		}
	}
}

// TestSolverConcurrentSolves runs overlapping solves with distinct
// right-hand sides on one session (the -race satellite): every solve must
// converge to its own RHS, undisturbed by its siblings.
func TestSolverConcurrentSolves(t *testing.T) {
	a := Poisson2D(20, 20)
	s, err := NewSolver(a, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const solves = 8
	var wg sync.WaitGroup
	errs := make([]error, solves)
	for k := 0; k < solves; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			b := variedRHS(a.Rows, k)
			sol, err := s.Solve(context.Background(), b)
			if err != nil {
				errs[k] = err
				return
			}
			if !sol.Result.Converged {
				errs[k] = fmt.Errorf("solve %d did not converge", k)
				return
			}
			var nb float64
			for _, v := range b {
				nb += v * v
			}
			if r := ResidualNorm(a, sol.X, b); r > 1e-6*math.Sqrt(nb) {
				errs[k] = fmt.Errorf("solve %d residual %g", k, r)
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolverConcurrentWithFailures overlaps resilient solves that each
// inject node failures: the forked retention state of one solve must not
// leak into another.
func TestSolverConcurrentWithFailures(t *testing.T) {
	a := Poisson2D(16, 16)
	s, err := NewSolver(a, Config{Ranks: 4, Phi: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const solves = 4
	var wg sync.WaitGroup
	errs := make([]error, solves)
	for k := 0; k < solves; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			b := variedRHS(a.Rows, k)
			sol, err := s.Solve(context.Background(), b,
				Config{Schedule: NewSchedule(Simultaneous(2+k, 1, 2))})
			if err != nil {
				errs[k] = err
				return
			}
			if !sol.Result.Converged || len(sol.Result.Reconstructions) != 1 {
				errs[k] = fmt.Errorf("solve %d: converged=%v reconstructions=%d",
					k, sol.Result.Converged, len(sol.Result.Reconstructions))
				return
			}
			var nb float64
			for _, v := range b {
				nb += v * v
			}
			if r := ResidualNorm(a, sol.X, b); r > 1e-6*math.Sqrt(nb) {
				errs[k] = fmt.Errorf("solve %d residual %g", k, r)
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// slowSolveOpts makes a solve run effectively forever (unreachable
// tolerance, huge iteration budget) and invokes cancel from the progress
// callback after the given number of iterations.
func slowSolveOpts(cancel context.CancelFunc, after int) Config {
	calls := 0
	return Config{Tol: 1e-300, MaxIter: 10_000_000, Progress: func(ev ProgressEvent) {
		calls++
		if calls == after {
			cancel()
		}
	}}
}

// TestSolverCancelDoesNotDisturbSiblings cancels one in-flight solve
// mid-iteration while a sibling solve runs on the same session; the sibling
// must complete correctly and the session must stay usable.
func TestSolverCancelDoesNotDisturbSiblings(t *testing.T) {
	a := Poisson2D(24, 24)
	s, err := NewSolver(a, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	victimErr := make(chan error, 1)
	go func() {
		_, err := s.Solve(ctx, onesRHS(a.Rows), slowSolveOpts(cancel, 3))
		victimErr <- err
	}()

	b := variedRHS(a.Rows, 7)
	sol, err := s.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Converged {
		t.Fatal("sibling solve did not converge")
	}
	checkResidual(t, a, sol.X, b)

	select {
	case err := <-victimErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled solve did not return")
	}

	// The session is still healthy after the cancellation.
	sol, err = s.Solve(context.Background(), b)
	if err != nil || !sol.Result.Converged {
		t.Fatalf("post-cancel solve: %v", err)
	}
}

// TestSolverCloseAbortsInFlight closes the session while a solve is in
// flight: the solve returns ErrSolverClosed, Close waits for it to unwind,
// and later Solve calls are rejected.
func TestSolverCloseAbortsInFlight(t *testing.T) {
	a := Poisson2D(24, 24)
	s, err := NewSolver(a, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	var once sync.Once
	solveErr := make(chan error, 1)
	go func() {
		_, err := s.Solve(context.Background(), onesRHS(a.Rows),
			Config{Tol: 1e-300, MaxIter: 10_000_000, Progress: func(ProgressEvent) { once.Do(func() { close(started) }) }})
		solveErr <- err
	}()

	<-started
	s.Close() // blocks until the in-flight solve unwinds
	select {
	case err := <-solveErr:
		if !errors.Is(err, ErrSolverClosed) {
			t.Fatalf("in-flight solve returned %v, want ErrSolverClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight solve did not return after Close")
	}
	if _, err := s.Solve(context.Background(), onesRHS(a.Rows)); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("solve after Close returned %v, want ErrSolverClosed", err)
	}
	s.Close() // idempotent
}

// TestSolverBatch solves a batch of right-hand sides concurrently on one
// session.
func TestSolverBatch(t *testing.T) {
	a := Poisson2D(20, 20)
	s, err := NewSolver(a, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	bs := make([][]float64, 6)
	for k := range bs {
		bs[k] = variedRHS(a.Rows, k)
	}
	sols, err := s.SolveBatch(context.Background(), bs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != len(bs) {
		t.Fatalf("got %d solutions for %d rhs", len(sols), len(bs))
	}
	for k, sol := range sols {
		if !sol.Result.Converged {
			t.Fatalf("batch entry %d did not converge", k)
		}
		checkResidual(t, a, sol.X, bs[k])
	}
}

// TestSolverMethodsAndOptions exercises session and per-call Configs: SPCG
// with its implied IC0 split preconditioner, options merged field by field,
// and the typed rejection of invalid configurations.
func TestSolverMethodsAndOptions(t *testing.T) {
	a := Poisson2D(16, 16)
	b := onesRHS(a.Rows)

	// SPCG defaults its preconditioner to IC0 and solves.
	s, err := NewSolver(a, Config{Ranks: 4, Phi: 1, Method: MethodSPCG})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(context.Background(), b,
		Config{Schedule: NewSchedule(Simultaneous(2, 1))})
	s.Close()
	if err != nil || !sol.Result.Converged || len(sol.Result.Reconstructions) != 1 {
		t.Fatalf("spcg: err=%v converged=%v reconstructions=%d",
			err, sol.Result.Converged, len(sol.Result.Reconstructions))
	}
	checkResidual(t, a, sol.X, b)

	// Options merge: a later non-zero field wins, a zero one keeps the
	// earlier value.
	s, err = NewSolver(a, Config{Ranks: 5, Phi: 1}, Config{Ranks: 3, Preconditioner: PrecondJacobi})
	if err != nil {
		t.Fatal(err)
	}
	if s.Ranks() != 3 || s.Phi() != 1 || s.Config().Preconditioner != PrecondJacobi {
		t.Fatalf("merged options: ranks=%d phi=%d prec=%q", s.Ranks(), s.Phi(), s.Config().Preconditioner)
	}
	sol, err = s.Solve(context.Background(), b)
	s.Close()
	if err != nil || !sol.Result.Converged {
		t.Fatalf("merged-options solve: %v", err)
	}

	// An out-of-range SSOR omega is rejected with the typed error.
	var omegaErr *InvalidConfigError
	_, err = NewSolver(a, Config{Preconditioner: PrecondSSOR, SSOROmega: 2.5})
	if !errors.As(err, &omegaErr) || omegaErr.Field != "ssor_omega" || omegaErr.Value != 2.5 {
		t.Fatalf("omega 2.5: got %v, want *InvalidConfigError{ssor_omega, 2.5}", err)
	}
	if _, err = NewSolver(a, Config{Preconditioner: PrecondSSOR, SSOROmega: -1}); !errors.As(err, &omegaErr) || omegaErr.Field != "ssor_omega" {
		t.Fatalf("omega -1: got %v, want *InvalidConfigError{ssor_omega}", err)
	}
	// ... but a valid omega solves.
	s, err = NewSolver(a, Config{Ranks: 4, Preconditioner: PrecondSSOR, SSOROmega: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	sol, err = s.Solve(context.Background(), b)
	s.Close()
	if err != nil || !sol.Result.Converged {
		t.Fatalf("ssor solve: %v", err)
	}

	// Bad values fail at construction.
	if _, err := NewSolver(a, Config{Ranks: -2}); err == nil {
		t.Fatal("Config{Ranks: -2} accepted")
	}
	if _, err := NewSolver(a, Config{Method: "bogus"}); err == nil {
		t.Fatal("unknown method accepted")
	}
	// SPCG needs the split-capable IC0.
	if _, err := NewSolver(a, Config{Method: MethodSPCG, Preconditioner: PrecondJacobi}); err == nil {
		t.Fatal("SPCG with non-split preconditioner accepted")
	}

	// A per-call SPCG on an IC0 session works, failures included.
	s, err = NewSolver(a, Config{Ranks: 4, Phi: 1, Preconditioner: PrecondIC0})
	if err != nil {
		t.Fatal(err)
	}
	sol, err = s.Solve(context.Background(), b,
		Config{Method: MethodSPCG, Schedule: NewSchedule(Simultaneous(2, 1))})
	if err != nil || !sol.Result.Converged || len(sol.Result.Reconstructions) != 1 {
		t.Fatalf("per-call spcg: err=%v converged=%v", err, sol.Result.Converged)
	}
	s.Close()
	// A per-call SPCG on a session prepared without the split factors is
	// rejected.
	s, err = NewSolver(a, Config{Ranks: 4, Preconditioner: PrecondJacobi})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), b, Config{Method: MethodSPCG}); err == nil {
		t.Fatal("per-call SPCG without split factors accepted")
	}
	s.Close()

	// Preparation-scoped options are rejected per solve.
	s, err = NewSolver(a, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Solve(context.Background(), b, Config{Ranks: 8}); err == nil {
		t.Fatal("per-solve Ranks accepted")
	}
	if _, err := s.Solve(context.Background(), b, Config{Phi: 1}); err == nil {
		t.Fatal("per-solve Phi accepted")
	}
	// Solve-scoped overrides are fine.
	if _, err := s.Solve(context.Background(), b, Config{Tol: 1e-6, MaxIter: 5000}); err != nil {
		t.Fatalf("per-solve tolerance override: %v", err)
	}
	// A per-call prep field equal to the session's needs no other session.
	if _, err := s.Solve(context.Background(), b, Config{Ranks: 4, Tol: 1e-6}); err != nil {
		t.Fatalf("per-solve Config repeating the session's ranks: %v", err)
	}
	// A schedule needs phi >= 1 on this phi-0 session.
	if _, err := s.Solve(context.Background(), b, Config{Schedule: NewSchedule(Simultaneous(1, 1))}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("schedule on phi-0 session: got %v, want an invalid-argument refusal", err)
	}
}

// TestQuickPhiZeroFailStopRefused: a fail-stop schedule under ESR needs
// redundancy, so a phi-0 session built with one is refused at NewSolver — an
// *InvalidConfigError naming phi — while a rollback strategy serves it.
func TestQuickPhiZeroFailStopRefused(t *testing.T) {
	a := Poisson2D(8, 8)
	sched := Config{Schedule: NewSchedule(Simultaneous(3, 1))}
	var cfgErr *InvalidConfigError
	if _, err := NewSolver(a, Config{Ranks: 4}, sched); !errors.As(err, &cfgErr) || cfgErr.Field != "phi" ||
		!errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("NewSolver at phi 0 with a fail-stop schedule: got %v, want an *InvalidConfigError on phi", err)
	}
	s, err := NewSolver(a, Config{Ranks: 4}, sched, Config{Strategy: StrategyRestart})
	if err != nil {
		t.Fatalf("restart strategy at phi 0: %v", err)
	}
	s.Close()
}

// TestQuickSolverTransport: sessions default to the fabric they were
// prepared with, a net-transport session solves to the exact same solution as
// a chan one, and — transport being run policy — so does one solve moved to
// another fabric per call.
func TestQuickSolverTransport(t *testing.T) {
	a := Poisson2D(16, 16)
	b := onesRHS(a.Rows)

	solveOn := func(tr string) []float64 {
		t.Helper()
		s, err := NewSolver(a, Config{Ranks: 4, Phi: 1, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := s.Config().Transport; got != tr {
			t.Fatalf("session transport = %q, want %q", got, tr)
		}
		sol, err := s.Solve(context.Background(), b,
			Config{Schedule: NewSchedule(Simultaneous(3, 2))})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Result.Converged {
			t.Fatalf("transport %q: not converged", tr)
		}
		return sol.X
	}
	ref := solveOn(TransportChan)
	// Net runs the same solve over real TCP sockets (self-loop mode here:
	// all ranks in-process behind one socket pair) — still bit-identical.
	net := solveOn(TransportNet)
	for i := range ref {
		if ref[i] != net[i] {
			t.Fatalf("x[%d]: net %g != chan %g", i, net[i], ref[i])
		}
	}

	// Transport is run policy: a chan session serves a chaos solve per call.
	s, err := NewSolver(a, Config{Ranks: 4, Phi: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sol, err := s.Solve(context.Background(), b, Config{Transport: TransportChaos, Schedule: NewSchedule(Simultaneous(3, 2))})
	if err != nil {
		t.Fatalf("per-solve Transport: %v", err)
	}
	for i := range ref {
		if ref[i] != sol.X[i] {
			t.Fatalf("x[%d]: per-call chaos %g != chan %g", i, sol.X[i], ref[i])
		}
	}
	if _, err := s.Solve(context.Background(), b, Config{Transport: "bogus"}); err == nil {
		t.Fatal("unknown per-solve transport accepted")
	}
	if _, err := NewSolver(a, Config{Transport: "bogus"}); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

// TestSolverPolicyPerCall: run policy is per solve, so ONE prepared session
// serves every fabric, strategy and detector setting — here concurrently —
// and each call is bitwise the solve of a Solver dedicated to that policy,
// two simultaneous failures included.
func TestSolverPolicyPerCall(t *testing.T) {
	a := Poisson2D(16, 16)
	b := variedRHS(a.Rows, 3)
	prep := Config{Ranks: 4, Phi: 2, Preconditioner: PrecondJacobi}
	sched := Config{Schedule: NewSchedule(Simultaneous(5, 1, 2))}
	policies := map[string]Config{
		"net":        {Transport: TransportNet},
		"chaos":      {Transport: TransportChaos, TransportSeed: 7},
		"checkpoint": {Strategy: StrategyCheckpoint, CheckpointInterval: 4},
		"restart":    {Strategy: StrategyRestart},
		"twin+sdc":   {Strategy: StrategyTwin, TwinInterval: 2, SDCCheckInterval: 5},
		"everything": {Transport: TransportChaos, Strategy: StrategyCheckpoint, SDCCheckInterval: 3},
	}
	shared, err := NewSolver(a, prep)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()

	var wg sync.WaitGroup
	for name, policy := range policies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := shared.Solve(context.Background(), b, policy, sched)
			if err != nil {
				t.Errorf("%s: per-call policy: %v", name, err)
				return
			}
			dedicated, err := NewSolver(a, prep, policy)
			if err != nil {
				t.Errorf("%s: dedicated solver: %v", name, err)
				return
			}
			defer dedicated.Close()
			want, err := dedicated.Solve(context.Background(), b, sched)
			if err != nil {
				t.Errorf("%s: dedicated solve: %v", name, err)
				return
			}
			if got.Result.Iterations != want.Result.Iterations ||
				got.Result.WorkIterations != want.Result.WorkIterations ||
				len(got.Result.Reconstructions) != 1 || len(want.Result.Reconstructions) != 1 {
				t.Errorf("%s: per-call %d/%d iterations, %d episodes; dedicated %d/%d, %d", name,
					got.Result.Iterations, got.Result.WorkIterations, len(got.Result.Reconstructions),
					want.Result.Iterations, want.Result.WorkIterations, len(want.Result.Reconstructions))
				return
			}
			for i := range want.X {
				if got.X[i] != want.X[i] {
					t.Errorf("%s: x[%d] = %x per call, %x dedicated", name, i, got.X[i], want.X[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := shared.Config(); got.Transport != TransportChan || got.Strategy != StrategyESR ||
		got.SDCCheckInterval != 0 {
		t.Fatalf("per-call policy leaked into the session's configuration: %+v", got)
	}
}

// TestSolverPerCallFromConfigOnClampedSession: a session on a matrix smaller
// than the default rank count clamps Ranks; a per-call Config that leaves
// Ranks unset keeps the session's, and one asking for more ranks than rows
// names the same clamp — neither reads as a preparation-scoped change.
func TestSolverPerCallFromConfigOnClampedSession(t *testing.T) {
	a := Poisson2D(2, 2) // 4 rows < 8 default ranks
	s, err := NewSolver(a)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Ranks() != 4 {
		t.Fatalf("session ranks = %d, want the clamp to 4", s.Ranks())
	}
	for _, call := range []Config{{Tol: 1e-6}, {Ranks: 8, Tol: 1e-6}} {
		if _, err := s.Solve(context.Background(), onesRHS(a.Rows), call); err != nil {
			t.Fatalf("per-call %+v: %v", call, err)
		}
	}
}
