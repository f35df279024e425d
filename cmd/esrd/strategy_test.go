package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	esr "repro"
	"repro/internal/engine"
)

// TestCrossStrategy is the end-to-end strategy matrix: the same system,
// right-hand side and failure schedule solved under the esr, checkpoint and
// restart recovery strategies, once through the public esr.NewSolver session
// API and once through esrd's HTTP job API. Every run must converge to
// tolerance, the checkpoint rollback must redo exactly the iterations since
// the last save, the two paths must agree bit-identically, and the
// per-strategy stats (library) and healthz gauges (daemon) must be
// populated.
func TestCrossStrategy(t *testing.T) {
	const (
		nx       = 20
		ranks    = 4
		failAt   = 12
		interval = 5
		tol      = 1e-8
	)
	a := esr.Poisson2D(nx, nx)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%5)/5
	}
	sched := esr.NewSchedule(esr.Simultaneous(failAt, 1, 2))

	cases := []struct {
		name string
		cfg  esr.Config
		// wantRedone is the exact WorkIterations - Iterations redo cost:
		// 0 for ESR (in-place reconstruction), the aborted pass plus the
		// iterations since the last checkpoint for C/R, and the aborted
		// pass plus everything before it for cold restart.
		wantRedone int
	}{
		{"esr", esr.Config{Ranks: ranks, Phi: 2, Strategy: esr.StrategyESR, Schedule: sched}, 0},
		// Twin delegates fail-stop recovery to the ESR reconstruction, so it
		// shares ESR's zero-redo recovery profile.
		{"twin", esr.Config{Ranks: ranks, Phi: 2, Strategy: esr.StrategyTwin, Schedule: sched}, 0},
		{"checkpoint", esr.Config{Ranks: ranks, Strategy: esr.StrategyCheckpoint,
			CheckpointInterval: interval, Schedule: sched}, failAt + 1 - (failAt/interval)*interval},
		{"restart", esr.Config{Ranks: ranks, Strategy: esr.StrategyRestart, Schedule: sched}, failAt + 1},
	}

	ts, eng := newTestServer(t, 2)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Library path: a session built from the wire config.
			s, err := esr.NewSolver(a, esr.FromConfig(tc.cfg))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.StrategyName() != tc.cfg.Strategy {
				t.Fatalf("StrategyName = %q, want %q", s.StrategyName(), tc.cfg.Strategy)
			}
			libSol, err := s.Solve(context.Background(), b)
			if err != nil {
				t.Fatal(err)
			}
			res := libSol.Result
			if !res.Converged {
				t.Fatalf("library solve did not converge: %+v", res)
			}
			if rel := res.RelResidual(); rel > tol {
				t.Fatalf("relative residual %g above tolerance %g", rel, tol)
			}
			if rn := esr.ResidualNorm(a, libSol.X, b); rn > 1e-4 {
				t.Fatalf("true residual %g too large", rn)
			}
			if len(res.Reconstructions) != 1 {
				t.Fatalf("episodes = %d, want 1", len(res.Reconstructions))
			}
			if redone := res.WorkIterations - res.Iterations; redone != tc.wantRedone {
				t.Fatalf("redone iterations = %d, want %d", redone, tc.wantRedone)
			}
			stats := s.StrategyStats()
			if stats.Solves != 1 || stats.Episodes != 1 {
				t.Fatalf("session strategy stats not populated: %+v", stats)
			}
			if tc.name == "checkpoint" && (stats.Checkpoints == 0 || stats.CheckpointFloats == 0) {
				t.Fatalf("checkpoint stats not populated: %+v", stats)
			}
			if tc.name == "esr" && stats.RedundancyFloats == 0 {
				t.Fatalf("ESR redundancy volume not accounted: %+v", stats)
			}

			// HTTP path: the same solve as an esrd job.
			id := postJob(t, ts, engine.JobSpec{
				Matrix:       engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": nx}},
				RHS:          b,
				Config:       tc.cfg,
				KeepSolution: true,
			})
			st := waitState(t, ts, id, 60*time.Second)
			if st.State != engine.StateDone {
				t.Fatalf("job state %s: %s", st.State, st.Error)
			}
			httpRes := st.Result.Result
			if !httpRes.Converged || httpRes.Iterations != res.Iterations ||
				httpRes.WorkIterations != res.WorkIterations {
				t.Fatalf("HTTP result diverges from library: %+v vs %+v", httpRes, res)
			}
			// One deterministic solve path: the daemon's solution must match
			// the library's bitwise.
			if len(st.Result.X) != len(libSol.X) {
				t.Fatalf("solution length %d != %d", len(st.Result.X), len(libSol.X))
			}
			for i := range libSol.X {
				if st.Result.X[i] != libSol.X[i] {
					t.Fatalf("x[%d]: HTTP %g != library %g", i, st.Result.X[i], libSol.X[i])
				}
			}
		})
	}

	// The daemon ran one job per strategy: every gauge must be populated.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Strategies map[string]esr.StrategyStats `json:"strategies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{esr.StrategyESR, esr.StrategyTwin, esr.StrategyCheckpoint, esr.StrategyRestart} {
		u, ok := health.Strategies[name]
		if !ok || u.Solves == 0 || u.Episodes == 0 {
			t.Fatalf("healthz strategies gauge missing %q: %+v", name, health.Strategies)
		}
	}
	if got := eng.StrategyStats(); len(got) != 4 {
		t.Fatalf("engine strategy gauges = %+v", got)
	}

	// Overlapping failures during recovery: the checkpoint rollback must be
	// redone with the enlarged set (the Sec. 4.1 cascading analogue).
	t.Run("checkpoint-cascade", func(t *testing.T) {
		cascade := esr.NewSchedule(
			esr.Simultaneous(failAt, 1),
			esr.Overlapping(failAt, 2, 3),
		)
		s, err := esr.NewSolver(a,
			esr.WithRanks(ranks),
			esr.WithStrategy(esr.CheckpointStrategy),
			esr.WithCheckpointInterval(interval),
			esr.WithSchedule(cascade))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sol, err := s.Solve(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Result.Converged {
			t.Fatal("cascade solve did not converge")
		}
		if len(sol.Result.Reconstructions) != 1 {
			t.Fatalf("episodes = %d, want 1", len(sol.Result.Reconstructions))
		}
		rec := sol.Result.Reconstructions[0]
		if rec.Restarts != 1 {
			t.Fatalf("cascading rollbacks = %d, want 1", rec.Restarts)
		}
		if len(rec.FailedRanks) != 2 {
			t.Fatalf("failed set = %v, want the union {1, 3}", rec.FailedRanks)
		}
		if got := s.StrategyStats().Restarts; got != 1 {
			t.Fatalf("stats restarts = %d, want 1", got)
		}
	})
}

// TestQuickTwinSPCGAcceptedAndSolved: the split-preconditioner recurrence
// runs the driver's loop, so it pairs with every strategy — a twin + spcg job
// is accepted at submit, repairs its bit flip forward and converges.
func TestQuickTwinSPCGAcceptedAndSolved(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	id := postJob(t, ts, engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 8}},
		Config: esr.Config{Ranks: 2, Strategy: esr.StrategyTwin, Method: "spcg", Preconditioner: "ic0",
			Schedule: esr.NewSchedule(esr.BitFlip(3, 1, esr.TargetR, 2, 51))},
	})
	st := waitState(t, ts, id, 30*time.Second)
	if st.State != engine.StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	if res := st.Result.Result; !res.Converged || res.SDCInjected != 1 || res.SDCDetected != 1 || res.SDCCorrected != 1 {
		t.Fatalf("result %+v, want converged with SDC counters 1/1/1", res)
	}
}

// TestDaemonSDCJob runs a bit-flip job under the twin strategy through the
// daemon and checks the observability chain end to end: the job result
// carries the exact SDC counters, the healthz strategies gauge aggregates
// them, and the /metrics exposition serves the solver_sdc_* series.
func TestDaemonSDCJob(t *testing.T) {
	const nx = 16
	a := esr.Poisson2D(nx, nx)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%4)/4
	}
	sched := esr.NewSchedule(
		esr.BitFlip(5, 1, esr.TargetX, 3, 52),
		esr.BitFlip(9, 0, esr.TargetR, 0, 51),
	)
	ts, _ := newTestServer(t, 1)
	id := postJob(t, ts, engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": nx}},
		RHS:    b,
		Config: esr.Config{Ranks: 4, Strategy: esr.StrategyTwin, Schedule: sched},
	})
	st := waitState(t, ts, id, 60*time.Second)
	if st.State != engine.StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	res := st.Result.Result
	if !res.Converged || res.SDCInjected != 2 || res.SDCDetected != 2 || res.SDCCorrected != 2 {
		t.Fatalf("result %+v, want converged with SDC counters 2/2/2", res)
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Strategies map[string]esr.StrategyStats `json:"strategies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	tw, ok := health.Strategies[esr.StrategyTwin]
	if !ok || tw.SDCInjected != 2 || tw.SDCDetected != 2 || tw.SDCCorrected != 2 {
		t.Fatalf("healthz twin gauge = %+v, want SDC 2/2/2", health.Strategies)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	exposition, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`solver_sdc_injected_total{strategy="twin"} 2`,
		`solver_sdc_detected_total{strategy="twin"} 2`,
		`solver_sdc_corrected_total{strategy="twin"} 2`,
	} {
		if !strings.Contains(string(exposition), series) {
			t.Fatalf("metrics exposition missing %q", series)
		}
	}
}
