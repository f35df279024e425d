package experiments

import (
	"context"
	"testing"

	esr "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestExperimentsRunTheProductPath: what the paper harness measures for a
// solve is what the public session API reports for the same system,
// right-hand side and per-solve policy — iteration counts, the Eqn. 7 metric
// and the three float volumes, including the split of checkpoint traffic into
// saves (overhead) and restores (recovery).
func TestExperimentsRunTheProductPath(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	const ranks = 4
	failures := faults.NewSchedule(faults.Simultaneous(8, 1, 2))
	for _, tc := range []struct {
		name     string
		phi      int
		sched    *faults.Schedule
		strategy string
		interval int
	}{
		{"reference", 0, nil, core.StrategyESR, 0},
		{"phi2-undisturbed", 2, nil, core.StrategyESR, 0},
		{"phi2-two-failures", 2, failures, core.StrategyESR, 0},
		{"checkpoint5-two-failures", 0, failures, core.StrategyCheckpoint, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := SolveStrategyOnce(a, ranks, tc.phi, tc.sched, tc.strategy, tc.interval, 0, 1e-8, 1e-14)
			if err != nil {
				t.Fatal(err)
			}
			s, err := esr.NewSolver(a, esr.WithRanks(ranks), esr.WithPhi(tc.phi), esr.WithPreconditioner(esr.PrecondJacobi))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			opts := []esr.Option{esr.WithTolerance(1e-8), esr.WithLocalTolerance(1e-14),
				esr.WithSchedule(tc.sched), esr.WithStrategy(esr.Strategy(tc.strategy))}
			if tc.interval > 0 {
				opts = append(opts, esr.WithCheckpointInterval(tc.interval))
			}
			sol, err := s.Solve(context.Background(), rhsFor(a.Rows), opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, st := sol.Result, s.StrategyStats()
			want := StrategyMeasurement{
				Measurement:      Measurement{Iterations: res.Iterations, Delta: res.Delta, Converged: res.Converged},
				WorkIterations:   res.WorkIterations,
				Episodes:         len(res.Reconstructions),
				RedundancyFloats: st.RedundancyFloats,
				RecoveryFloats:   st.RecoveryFloats,
				CheckpointFloats: st.CheckpointFloats,
			}
			got = StrategyMeasurement{
				Measurement:      Measurement{Iterations: got.Iterations, Delta: got.Delta, Converged: got.Converged},
				WorkIterations:   got.WorkIterations,
				Episodes:         got.Episodes,
				RedundancyFloats: got.RedundancyFloats,
				RecoveryFloats:   got.RecoveryFloats,
				CheckpointFloats: got.CheckpointFloats,
			}
			if got != want || !got.Converged {
				t.Fatalf("experiment measured\n%+v\nthe product path reports\n%+v", got, want)
			}
		})
	}
}

// TestSweepPreparesOncePerPhi: a failure sweep over 3 progresses x 2 reps
// builds one session per redundancy level (plus the reference's), however
// many solves run on it.
func TestSweepPreparesOncePerPhi(t *testing.T) {
	built := map[int]int{}
	prepare = func(a *sparse.CSR, cfg engine.Config) (*engine.Prepared, error) {
		built[cfg.Phi]++
		return engine.Prepare(a, cfg)
	}
	t.Cleanup(func() { prepare = engine.Prepare })
	cfg := QuickConfig() // phis 1 and 3, 3 progresses, 2 locations, 2 reps
	if _, err := cfg.table2ForMatrix("P", matgen.Poisson2D(16, 16)); err != nil {
		t.Fatal(err)
	}
	if len(built) != 3 || built[0] != 1 || built[1] != 1 || built[3] != 1 {
		t.Fatalf("sessions built per phi = %v, want one each for 0, 1, 3", built)
	}
}

// TestQuickStrategyComparison: the three strategies solve the same system
// and schedule through the shared driver, and the accounting separates
// steady-state overhead from recovery cost correctly per scheme.
func TestQuickStrategyComparison(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	const ranks = 4
	sched := faults.NewSchedule(faults.Simultaneous(8, 1, 2))

	esr, err := SolveStrategyOnce(a, ranks, 2, sched, core.StrategyESR, 0, 0, 1e-8, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := SolveStrategyOnce(a, ranks, 0, sched, core.StrategyCheckpoint, 5, 0, 1e-8, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	re, err := SolveStrategyOnce(a, ranks, 0, sched, core.StrategyRestart, 0, 0, 1e-8, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]StrategyMeasurement{"esr": esr, "checkpoint": ck, "restart": re} {
		if !m.Converged || m.Episodes != 1 {
			t.Fatalf("%s: %+v", name, m)
		}
	}
	// ESR: redundancy but no checkpoint traffic, no redone iterations.
	if esr.RedundancyFloats == 0 || esr.CheckpointFloats != 0 || esr.WorkIterations != esr.Iterations {
		t.Fatalf("esr accounting: %+v", esr)
	}
	// C/R: checkpoint traffic split into saves (overhead) and restores
	// (recovery), no redundancy, failure at 8 with interval 5 redoes 4.
	if ck.CheckpointFloats == 0 || ck.RecoveryFloats == 0 || ck.RedundancyFloats != 0 {
		t.Fatalf("checkpoint accounting: %+v", ck)
	}
	if ck.Checkpoints == 0 || ck.WorkIterations-ck.Iterations != 4 {
		t.Fatalf("checkpoint rollback: %+v", ck)
	}
	// Restart: zero protection volume, redoes everything before the failure.
	if re.OverheadFloats() != 0 || re.WorkIterations-re.Iterations != 9 {
		t.Fatalf("restart accounting: %+v", re)
	}
}

// TestQuickStrategyTable: the table harness aggregates all variants on a
// tiny problem.
func TestQuickStrategyTable(t *testing.T) {
	cfg := QuickConfig()
	cfg.Reps = 1
	rows, err := cfg.StrategyTable([]string{"M1"}, 2, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.RefIters == 0 || len(r.Cells) != 4 { // esr, twin, checkpoint@5, restart
		t.Fatalf("row = %+v", r)
	}
	for _, c := range r.Cells {
		if !c.Converged {
			t.Fatalf("cell %q did not converge: %+v", c.Strategy, c)
		}
		// Every variant ran the bit-flip round and noticed the corruption:
		// twin through its shadow comparison (and repaired it forward), the
		// rest through the drift check (classifying the solve as failed).
		if c.SDCDetected == 0 {
			t.Fatalf("cell %q missed the bit flip: %+v", c.Strategy, c)
		}
		if c.Strategy == core.StrategyTwin {
			if c.SDCCorrected == 0 || c.SDCFailed {
				t.Fatalf("twin cell did not repair forward: %+v", c)
			}
		} else if c.SDCCorrected != 0 || !c.SDCFailed {
			t.Fatalf("cell %q should be detection-only failed-safe: %+v", c.Strategy, c)
		}
	}
	if r.Cells[0].Strategy != core.StrategyESR || r.Cells[0].OverheadFloats == 0 {
		t.Fatalf("esr cell: %+v", r.Cells[0])
	}
	if r.Cells[1].Strategy != core.StrategyTwin || r.Cells[1].OverheadFloats == 0 {
		t.Fatalf("twin cell: %+v", r.Cells[1])
	}
	if r.Cells[2].Interval != 5 || r.Cells[2].OverheadFloats == 0 {
		t.Fatalf("checkpoint cell: %+v", r.Cells[2])
	}
	if r.Cells[3].Strategy != core.StrategyRestart || r.Cells[3].OverheadFloats != 0 {
		t.Fatalf("restart cell: %+v", r.Cells[3])
	}
	if s := FormatStrategyTable(rows); len(s) == 0 {
		t.Fatal("empty formatted table")
	}
}
