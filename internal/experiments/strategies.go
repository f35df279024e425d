package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// StrategyMeasurement is one protected solve's observables under a recovery
// strategy, including the Sec. 4.2-style traffic accounting that the plain
// Measurement omits.
type StrategyMeasurement struct {
	Measurement
	// WorkIterations counts executed iterations including redone ones.
	WorkIterations int
	// Episodes counts recovery episodes.
	Episodes int
	// Checkpoints counts complete coordinated checkpoints.
	Checkpoints int
	// RedundancyFloats, RecoveryFloats and CheckpointFloats are the solve's
	// core.StrategyStats volumes: the extra ESR elements on the SpMV, the
	// recovery-episode traffic (reconstruction gathers and rollback
	// restores), and the saves to reliable storage.
	RedundancyFloats int64
	RecoveryFloats   int64
	CheckpointFloats int64
	// SDCInjected/SDCDetected/SDCCorrected count silent-data-corruption
	// injections, detections and twin forward repairs; SDCLatency is the
	// summed detection latency in iterations.
	SDCInjected  int
	SDCDetected  int
	SDCCorrected int
	SDCLatency   int
	// SDCFailed reports that the solve was classified as failed by the
	// drift detector (the detection-only outcome of strategies without a
	// repair path); the measurement's counters remain valid.
	SDCFailed bool
	// RecoveryPhases, SubsystemSetup and SubsystemSolve sum the episodes'
	// core.Reconstruction fields of the same names (zero for rollbacks).
	RecoveryPhases                 [5]time.Duration
	SubsystemSetup, SubsystemSolve time.Duration
}

// OverheadFloats is the steady-state protection volume of the run: the
// redundant SpMV copies for ESR, the reliable-storage saves for C/R.
func (m StrategyMeasurement) OverheadFloats() int64 {
	return m.RedundancyFloats + m.CheckpointFloats
}

// SolveStrategyOnce prepares a session for (a, phi), runs one solve protected
// by the named recovery strategy (core.StrategyESR / StrategyCheckpoint /
// StrategyRestart / StrategyTwin) and closes it; see measure for what is
// read. interval is the checkpoint period (or, for twin, the comparison
// period; 0 selects the default); phi is the ESR redundancy level (0 for the
// rollback strategies). sdcCheck, when > 0, arms the periodic true-residual
// drift check.
func SolveStrategyOnce(a *sparse.CSR, ranks, phi int, sched *faults.Schedule, strategy string, interval, sdcCheck int, tol, localTol float64) (StrategyMeasurement, error) {
	ps, err := session(a, ranks, phi)
	if err != nil {
		return StrategyMeasurement{}, err
	}
	defer ps.Close()
	return measure(ps, engine.Config{Tol: tol, LocalTol: localTol, Schedule: sched, Strategy: strategy,
		CheckpointInterval: interval, TwinInterval: interval, SDCCheckInterval: sdcCheck})
}

// StrategyCell aggregates the runs of one recovery strategy on one matrix:
// its steady-state overhead (failure-free, vs the unprotected reference t0)
// and its recovery cost under the failure schedule.
type StrategyCell struct {
	// Strategy is the wire name; Interval is the checkpoint period (0 when
	// not applicable); Phi is the ESR redundancy level (0 otherwise).
	Strategy string
	Interval int
	Phi      int
	// OverheadPct is the failure-free runtime overhead vs t0, in percent.
	OverheadPct float64
	// OverheadFloats is the failure-free steady-state protection volume
	// (redundant copies for ESR, reliable-storage saves for C/R).
	OverheadFloats int64
	// WithFailurePct is the total runtime overhead vs t0 with the failure
	// schedule injected, in percent (mean over reps).
	WithFailurePct float64
	// RecoveryPct is the time recovery episodes held the iteration up
	// (Result.ReconstructTime) vs t0, in percent (mean). ESR's x-system
	// solve runs in the background after its episode and is not in it.
	RecoveryPct float64
	// RedoneIters is the mean number of iterations redone after rollbacks
	// (0 for ESR, which resumes at the failure iteration).
	RedoneIters float64
	// RecoveryFloats is the recovery-episode traffic of the failure runs
	// (reconstruction gathers for ESR, checkpoint restores for C/R).
	RecoveryFloats int64
	// RecoveryPhaseSeconds splits the failure runs' mean recovery time over
	// ESR's five phases (scalars, p-gather, z/r rebuild, x-system hand-off,
	// finalize) as rank 0 — the x-system's leader under this schedule — saw
	// them; SubsystemSetupSeconds is the leader's x-system setup, inside the
	// x-system phase, and SubsystemSolveSeconds its background assembly,
	// factor and PCG, after the episode. Zero for rollbacks.
	RecoveryPhaseSeconds  [5]float64 `json:"recovery_phase_s"`
	SubsystemSetupSeconds float64    `json:"subsystem_setup_s"`
	SubsystemSolveSeconds float64    `json:"subsystem_solve_s"`
	// SDCDetected/SDCCorrected are the mean detected and repaired corruption
	// counts of the bit-flip runs, and SDCLatency the mean detection latency
	// in iterations. The twin strategy detects through its shadow comparison
	// and repairs forward; the others run the periodic true-residual drift
	// check in detection-only mode.
	SDCDetected  float64 `json:"sdc_detected"`
	SDCCorrected float64 `json:"sdc_corrected"`
	SDCLatency   float64 `json:"sdc_latency_iters"`
	// SDCFailed reports that the bit-flip runs ended classified as failed —
	// the intended detection-only outcome for strategies that cannot repair
	// corruption (the safe alternative to silently converging wrong).
	SDCFailed bool `json:"sdc_failed"`
	// Converged reports whether every run met the tolerance.
	Converged bool
}

// StrategyRow is one matrix's strategy comparison.
type StrategyRow struct {
	ID string
	// T0 is the mean unprotected reference runtime in seconds; RefIters its
	// iteration count.
	T0       float64
	RefIters int
	// FailAt and Failures describe the injected schedule: Failures
	// contiguous ranks from rank 0 at iteration FailAt.
	FailAt, Failures int
	Cells            []StrategyCell
}

// StrategyTable runs the head-to-head comparison the paper argues for
// (Sec. 1.2, 2.2): exact state reconstruction versus checkpoint/restart
// versus cold restart, on the same matrices, right-hand side and failure
// schedule, reporting steady-state overhead and recovery cost side by side
// in both wall-clock and float-volume terms. failures selects the batch
// size (psi = phi contiguous ranks at 50% progress); intervals are the C/R
// periods to evaluate (nil selects 10 and 50).
func (cfg Config) StrategyTable(ids []string, failures int, intervals []int) ([]StrategyRow, error) {
	if len(intervals) == 0 {
		intervals = []int{10, 50}
	}
	entries, err := selectEntries(ids)
	if err != nil {
		return nil, err
	}
	var rows []StrategyRow
	for _, e := range entries {
		a := e.Build(cfg.Scale)
		row, err := cfg.strategyRow(e.ID, a, failures, intervals)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (cfg Config) strategyRow(id string, a *sparse.CSR, failures int, intervals []int) (StrategyRow, error) {
	row := StrategyRow{ID: id, Failures: failures}
	// One session per redundancy level: the reference and the rollback
	// strategies run at phi 0; ESR and twin (which delegates fail-stop
	// recovery to ESR reconstruction) need phi = failures.
	sessions := map[int]*engine.Prepared{}
	for _, phi := range []int{0, failures} {
		if sessions[phi] != nil {
			continue
		}
		ps, err := session(a, cfg.Ranks, phi)
		if err != nil {
			return row, err
		}
		defer ps.Close()
		sessions[phi] = ps
	}
	ref, err := cfg.referenceRun(sessions[0])
	if err != nil {
		return row, err
	}
	row.T0 = stats.Mean(runtimes(ref))
	row.RefIters = ref[0].Iterations
	row.FailAt = faults.IterationAtProgress(0.5, row.RefIters)
	victims := faults.ContiguousRanks(0, failures, cfg.Ranks)
	sched := faults.NewSchedule(faults.Simultaneous(row.FailAt, victims...))
	// One bit flip in the iterate at the kill iteration.
	corr := faults.NewSchedule(faults.BitFlip(row.FailAt, 0, faults.TargetX, 0, 52))

	type variant struct {
		strategy string
		interval int
		phi      int
	}
	variants := []variant{
		{core.StrategyESR, 0, failures},
		{core.StrategyTwin, 0, failures},
	}
	for _, iv := range intervals {
		variants = append(variants, variant{core.StrategyCheckpoint, iv, 0})
	}
	variants = append(variants, variant{core.StrategyRestart, 0, 0})

	for _, v := range variants {
		cell := StrategyCell{Strategy: v.strategy, Interval: v.interval, Phi: v.phi, Converged: true}
		run := func(sched *faults.Schedule, sdcCheck int) ([]StrategyMeasurement, error) {
			opts := cfg.policy(sched)
			opts.Strategy, opts.CheckpointInterval, opts.SDCCheckInterval = v.strategy, v.interval, sdcCheck
			return cfg.strategyRuns(sessions[v.phi], opts)
		}
		// Failure-free runs: the strategy's steady-state overhead.
		und, err := run(nil, 0)
		if err != nil {
			return row, err
		}
		cell.OverheadPct = 100 * (meanOf(und, seconds) - row.T0) / row.T0
		cell.OverheadFloats = und[0].OverheadFloats()
		// Failure runs: the strategy's recovery cost.
		fail, err := run(sched, 0)
		if err != nil {
			return row, err
		}
		cell.WithFailurePct = 100 * (meanOf(fail, seconds) - row.T0) / row.T0
		cell.RecoveryPct = 100 * meanOf(fail, func(m StrategyMeasurement) float64 { return m.ReconstructTime.Seconds() }) / row.T0
		cell.RedoneIters = meanOf(fail, func(m StrategyMeasurement) float64 { return float64(m.WorkIterations - m.Iterations) })
		cell.RecoveryFloats = fail[0].RecoveryFloats
		for ph := range cell.RecoveryPhaseSeconds {
			cell.RecoveryPhaseSeconds[ph] = meanOf(fail, func(m StrategyMeasurement) float64 { return m.RecoveryPhases[ph].Seconds() })
		}
		cell.SubsystemSetupSeconds = meanOf(fail, func(m StrategyMeasurement) float64 { return m.SubsystemSetup.Seconds() })
		cell.SubsystemSolveSeconds = meanOf(fail, func(m StrategyMeasurement) float64 { return m.SubsystemSolve.Seconds() })
		for _, m := range append(und, fail...) {
			cell.Converged = cell.Converged && m.Converged
		}
		// Corruption runs. The twin strategy detects the flip through its
		// shadow comparison and repairs forward; the other strategies run the
		// periodic drift check and must classify the solve as failed instead
		// of silently converging wrong. Detection latency is
		// injection-to-detection in iterations.
		sdcCheck := 10
		if v.strategy == core.StrategyTwin {
			sdcCheck = 0 // the shadow comparison is the detector
		}
		flipped, err := run(corr, sdcCheck)
		if err != nil {
			return row, err
		}
		cell.SDCDetected = meanOf(flipped, func(m StrategyMeasurement) float64 { return float64(m.SDCDetected) })
		cell.SDCCorrected = meanOf(flipped, func(m StrategyMeasurement) float64 { return float64(m.SDCCorrected) })
		cell.SDCLatency = meanOf(flipped, func(m StrategyMeasurement) float64 { return float64(m.SDCLatency) })
		for _, m := range flipped {
			cell.SDCFailed = cell.SDCFailed || m.SDCFailed
		}
		row.Cells = append(row.Cells, cell)
	}
	return row, nil
}

func seconds(m StrategyMeasurement) float64 { return m.Runtime.Seconds() }

// meanOf averages one per-run quantity over the runs.
func meanOf(ms []StrategyMeasurement, f func(StrategyMeasurement) float64) float64 {
	xs := make([]float64, len(ms))
	for i, m := range ms {
		xs[i] = f(m)
	}
	return stats.Mean(xs)
}

// FormatStrategyTable renders the comparison as aligned text.
func FormatStrategyTable(rows []StrategyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Strategy comparison: ESR vs twin vs checkpoint/restart vs cold restart (overheads in %% of reference t0)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s t0 = %8.4fs  iters = %-5d failures: %d ranks at iteration %d\n",
			r.ID, r.T0, r.RefIters, r.Failures, r.FailAt)
		fmt.Fprintf(&b, "      %-22s %10s %14s %12s %12s %10s %14s %8s %8s %8s\n",
			"strategy", "overhead", "extra floats", "w/ failures", "recovery", "redone", "rec floats",
			"sdc det", "sdc fix", "det lat")
		for _, c := range r.Cells {
			name := c.Strategy
			switch {
			case c.Interval > 0:
				name = fmt.Sprintf("%s (every %d)", c.Strategy, c.Interval)
			case c.Phi > 0:
				name = fmt.Sprintf("%s (phi=%d)", c.Strategy, c.Phi)
			}
			mark := ""
			if !c.Converged {
				mark = " !"
			}
			if c.SDCFailed {
				mark += " [sdc: failed-safe]"
			}
			fmt.Fprintf(&b, "      %-22s %9.1f%% %14d %11.1f%% %11.1f%% %10.1f %14d %8.1f %8.1f %8.1f%s\n",
				name, c.OverheadPct, c.OverheadFloats, c.WithFailurePct, c.RecoveryPct,
				c.RedoneIters, c.RecoveryFloats, c.SDCDetected, c.SDCCorrected, c.SDCLatency, mark)
		}
	}
	b.WriteString("'extra floats' is the steady-state protection volume per solve: the redundant\n")
	b.WriteString("search-direction elements ESR piggybacks on the SpMV vs the state C/R ships to\n")
	b.WriteString("reliable storage. 'redone' counts iterations repeated after rollbacks; ESR\n")
	b.WriteString("resumes at the failure iteration, C/R redoes up to a full interval, restart\n")
	b.WriteString("redoes everything. C/R wins only when checkpoints are cheap relative to the\n")
	b.WriteString("iteration volume they protect; see README 'Resilience strategies'.\n")
	b.WriteString("'sdc det/fix/lat' come from bit-flip runs: corruptions detected, repaired\n")
	b.WriteString("forward (twin only), and the injection-to-detection latency in iterations.\n")
	b.WriteString("'[sdc: failed-safe]' marks detection-only strategies that classified the\n")
	b.WriteString("corrupted solve as failed instead of silently converging wrong.\n")
	return b.String()
}
