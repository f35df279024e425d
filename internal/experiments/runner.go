// Package experiments reproduces the paper's evaluation (Sec. 7): Table 1
// (test matrices), Table 2 (runtime overheads of the resilient solver,
// undisturbed and with 1/3/8 simultaneous node failures at start/center rank
// placements and 20/50/80% progress), Table 3 (relative residual difference
// metric, Eqn. 7), Figures 1-4 (runtime/overhead box plots), plus the
// Sec. 4.2 analytic-bound evaluation on the communication model.
//
// Every experiment runs on the product solve path: one engine.Prepared
// session per (matrix, phi) — the session esr.Solve, esr.NewSolver and esrd
// jobs run on — serves every repetition through Prepared.Solve, with the
// failure schedule, recovery strategy and detector chosen per solve. So the
// tables measure the code users run, in-process on `Ranks` goroutine ranks.
// Runtimes are the solver's wall-clock times; float volumes are the session's
// StrategyStats; the modelled communication overheads come from
// internal/commmodel.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// Config controls the experiment sweep dimensions. The zero value is not
// usable; start from DefaultConfig or QuickConfig.
type Config struct {
	// Scale selects the matrix sizes (tiny / small / paper).
	Scale matgen.Scale
	// Ranks is the number of simulated compute nodes (the paper uses 128 on
	// VSC3; the default here is 16).
	Ranks int
	// Reps is the number of repetitions per configuration (the paper uses
	// >= 5).
	Reps int
	// Phis are the redundancy levels evaluated (paper: 1, 3, 8).
	Phis []int
	// Progresses are the failure times as fractions of the reference
	// iteration count (paper: 0.2, 0.5, 0.8).
	Progresses []float64
	// Locations are the failed-rank placements: "start" (rank 0) and/or
	// "center" (rank N/2), as in the paper's Sec. 7.1.
	Locations []string
	// Tol is the solver tolerance (paper: 1e-8).
	Tol float64
	// LocalTol is the reconstruction tolerance (paper: 1e-14).
	LocalTol float64
}

// DefaultConfig mirrors the paper's sweep at the default benchmark scale.
func DefaultConfig() Config {
	return Config{
		Scale:      matgen.ScaleSmall,
		Ranks:      16,
		Reps:       3,
		Phis:       []int{1, 3, 8},
		Progresses: []float64{0.2, 0.5, 0.8},
		Locations:  []string{"start", "center"},
		Tol:        1e-8,
		LocalTol:   1e-14,
	}
}

// QuickConfig is a reduced sweep for tests and testing.B benchmarks: tiny
// matrices, 8 ranks, phi up to 3.
func QuickConfig() Config {
	return Config{
		Scale:      matgen.ScaleTiny,
		Ranks:      8,
		Reps:       2,
		Phis:       []int{1, 3},
		Progresses: []float64{0.2, 0.5, 0.8},
		Locations:  []string{"start", "center"},
		Tol:        1e-8,
		LocalTol:   1e-14,
	}
}

// StartRank returns the first failed rank for a location name.
func StartRank(location string, ranks int) (int, error) {
	switch location {
	case "start":
		return 0, nil
	case "center":
		return ranks / 2, nil
	}
	return 0, fmt.Errorf("experiments: unknown location %q (want start or center)", location)
}

// Measurement is one solver run's observables.
type Measurement struct {
	// Runtime is the wall-clock solve time.
	Runtime time.Duration
	// ReconstructTime is the part recovery episodes held the iteration up.
	ReconstructTime time.Duration
	// Iterations to convergence.
	Iterations int
	// Delta is the Eqn. 7 residual-deviation metric.
	Delta float64
	// Converged reports whether the tolerance was met.
	Converged bool
}

// rhsFor fills the deterministic right-hand side used by all experiments.
func rhsFor(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + math.Sin(float64(i)*0.13)
	}
	return b
}

// prepare builds a session; a variable so the sweep test can count builds.
var prepare = engine.Prepare

// session prepares the product solve path for one (matrix, phi) pair — the
// one place the experiments choose how a solve is assembled. Point-Jacobi
// preconditioning keeps the iteration counts in the hundreds on the generated
// (well-conditioned) matrices, matching the amortisation regime of the
// paper's experiments; the recovery subsystem still uses block-local ILU like
// the paper (Sec. 6). The caller closes the session.
func session(a *sparse.CSR, ranks, phi int) (*engine.Prepared, error) {
	return prepare(a, engine.Config{Ranks: ranks, Phi: phi, Preconditioner: engine.PrecondJacobi})
}

// measure runs one solve of the experiments' right-hand side on ps under the
// given per-solve policy. The result-borne observables come off the Solution;
// the traffic volumes and SDC counters are the session's StrategyStats
// difference around the solve (the experiments solve one at a time). A solve
// the armed drift check classified as failed returns with SDCFailed set and a
// nil error — the detection itself is the measurement.
func measure(ps *engine.Prepared, opts engine.Config) (StrategyMeasurement, error) {
	before := ps.StrategyStats()
	sol, err := ps.Solve(context.Background(), rhsFor(ps.N()), opts)
	st, res := ps.StrategyStats(), sol.Result
	m := StrategyMeasurement{
		Measurement: Measurement{
			Runtime:         res.SolveTime,
			ReconstructTime: res.ReconstructTime,
			Iterations:      res.Iterations,
			Delta:           res.Delta,
			Converged:       res.Converged,
		},
		WorkIterations:   res.WorkIterations,
		Episodes:         len(res.Reconstructions),
		Checkpoints:      int(st.Checkpoints - before.Checkpoints),
		RedundancyFloats: st.RedundancyFloats - before.RedundancyFloats,
		RecoveryFloats:   st.RecoveryFloats - before.RecoveryFloats,
		CheckpointFloats: st.CheckpointFloats - before.CheckpointFloats,
		SDCInjected:      int(st.SDCInjected - before.SDCInjected),
		SDCDetected:      int(st.SDCDetected - before.SDCDetected),
		SDCCorrected:     int(st.SDCCorrected - before.SDCCorrected),
		SDCLatency:       res.SDCLatency,
	}
	for _, rec := range res.Reconstructions {
		for ph, d := range rec.Phases {
			m.RecoveryPhases[ph] += d
		}
		m.SubsystemSetup += rec.SubsystemSetup
		m.SubsystemSolve += rec.SubsystemSolve
	}
	var sdc *core.SDCDetectedError
	if errors.As(err, &sdc) {
		m.SDCFailed = true
		for _, ev := range opts.Schedule.Events() {
			if ev.IsCorruption() && ev.Iteration <= sdc.Iteration {
				m.SDCLatency += sdc.Iteration - ev.Iteration
			}
		}
		return m, nil
	}
	return m, err
}

// SolveOnce prepares a session for (a, phi), runs one ESR-protected solve
// with the given failure schedule (nil for none) and closes it. phi = 0 with
// a nil schedule runs the plain non-resilient PCG (the reference t0 of
// Table 2).
func SolveOnce(a *sparse.CSR, ranks, phi int, sched *faults.Schedule, tol, localTol float64) (Measurement, error) {
	m, err := SolveStrategyOnce(a, ranks, phi, sched, core.StrategyESR, 0, 0, tol, localTol)
	return m.Measurement, err
}

// policy is the per-solve policy every experiment starts from: the sweep's
// tolerances and a failure schedule (nil for none); the session's defaults —
// ESR recovery, no detector — apply to what it leaves unset.
func (cfg Config) policy(sched *faults.Schedule) engine.Config {
	return engine.Config{Tol: cfg.Tol, LocalTol: cfg.LocalTol, Schedule: sched}
}

// forEachPhi prepares a's session at each configured redundancy level in turn
// (levels the cluster cannot host, phi >= Ranks, are skipped), hands it to
// body and closes it: one session per (matrix, phi), one open at a time.
func (cfg Config) forEachPhi(a *sparse.CSR, body func(ps *engine.Prepared) error) error {
	for _, phi := range cfg.Phis {
		if phi >= cfg.Ranks {
			continue
		}
		ps, err := session(a, cfg.Ranks, phi)
		if err != nil {
			return err
		}
		err = body(ps)
		ps.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// strategyRuns measures Reps solves on ps under one per-solve policy.
func (cfg Config) strategyRuns(ps *engine.Prepared, opts engine.Config) ([]StrategyMeasurement, error) {
	out := make([]StrategyMeasurement, 0, cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		m, err := measure(ps, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// runs measures Reps ESR solves on ps under the schedule (nil for none).
func (cfg Config) runs(ps *engine.Prepared, sched *faults.Schedule) ([]Measurement, error) {
	ms, err := cfg.strategyRuns(ps, cfg.policy(sched))
	out := make([]Measurement, len(ms))
	for i, m := range ms {
		out[i] = m.Measurement
	}
	return out, err
}

// ReferenceRun solves the reference (non-resilient) problem Reps times on a
// phi = 0 session of a and returns the measurements. The mean runtime is the
// paper's t0.
func (cfg Config) ReferenceRun(a *sparse.CSR) ([]Measurement, error) {
	ps, err := session(a, cfg.Ranks, 0)
	if err != nil {
		return nil, err
	}
	defer ps.Close()
	return cfg.referenceRun(ps)
}

// referenceRun is ReferenceRun on an open phi = 0 session. A discarded warmup
// solve precedes the measurements (heap and scheduler warmup; the paper's
// repeated MPI runs have the same effect).
func (cfg Config) referenceRun(ps *engine.Prepared) ([]Measurement, error) {
	if _, err := measure(ps, cfg.policy(nil)); err != nil {
		return nil, err
	}
	out, err := cfg.runs(ps, nil)
	if err != nil {
		return nil, err
	}
	for _, m := range out {
		if !m.Converged {
			return nil, fmt.Errorf("experiments: reference run did not converge")
		}
	}
	return out, nil
}

// UndisturbedRun solves on the session's redundancy level without failures,
// Reps times.
func (cfg Config) UndisturbedRun(ps *engine.Prepared) ([]Measurement, error) {
	return cfg.runs(ps, nil)
}

// FailureRun solves with psi = phi simultaneous failures of contiguous ranks
// (phi the session's redundancy level) at the given location, injected at the
// given progress fraction of the reference iteration count, Reps times.
func (cfg Config) FailureRun(ps *engine.Prepared, location string, progress float64, refIters int) ([]Measurement, error) {
	start, err := StartRank(location, cfg.Ranks)
	if err != nil {
		return nil, err
	}
	victims := faults.ContiguousRanks(start, ps.Phi(), cfg.Ranks)
	iter := faults.IterationAtProgress(progress, refIters)
	return cfg.runs(ps, faults.NewSchedule(faults.Simultaneous(iter, victims...)))
}

// runtimes extracts the runtimes in seconds.
func runtimes(ms []Measurement) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.Runtime.Seconds()
	}
	return out
}
