package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/vec"
)

// Strategy names (the wire values of engine.Config.Strategy and the esrd
// -strategy flag).
const (
	// StrategyESR is the paper's contribution: exact state reconstruction
	// from the redundant search-direction copies the SpMV moves anyway.
	StrategyESR = "esr"
	// StrategyCheckpoint is the checkpoint/restart baseline the paper
	// positions ESR against (Sec. 1.2, 2.2): periodic coordinated saves to
	// reliable storage, rollback and redo after a failure.
	StrategyCheckpoint = "checkpoint"
	// StrategyRestart is the null strategy: no steady-state protection at
	// all; a failure throws every iteration away and the solve restarts
	// from the initial guess x0.
	StrategyRestart = "restart"
	// StrategyTwin is the TwinCG-style scheme (arXiv:1605.04580): a shadow
	// replica of the solver state with periodic checksum exchange, forward
	// recovery of silent data corruption (no rollback), and delegation to
	// ESR reconstruction for fail-stop failures.
	StrategyTwin = "twin"
)

// DefaultCheckpointInterval is the checkpoint period used when none is
// configured.
const DefaultCheckpointInterval = 10

// DefaultTwinInterval is the default twin checksum-exchange cadence: every
// iteration, so a bit-flip is caught at its own poll point — before it leaks
// into a reduction — and the restored state is bitwise the fault-free one.
const DefaultTwinInterval = 1

// NumRecoveryPhases is the number of recovery-episode phases at whose
// boundaries overlapping failures can strike (paper Sec. 4.1). Rollback
// strategies use the same phase grid so one faults.Schedule stresses every
// strategy identically.
const NumRecoveryPhases = numPhases

// SolverState is the live state of the PCG driver, exposed to Strategy
// implementations at the driver's poll points. The state is k columns wide:
// column c of every slice belongs to the independent system A x[c] = b[c],
// and a solo solve is the k = 1 case. Every rank holds its own SolverState
// (the vectors carry the rank-local blocks; the scalars are replicated),
// while one Strategy instance, which holds only its configuration, is shared
// by all ranks of a solve: whatever a strategy keeps lives on this struct, its
// saved copy in the snapshot slot. A strategy protects "x, r, z, p plus three
// scalars" per column and leaves frozen columns (those not in Running) alone:
// they are neither saved, restored nor compared, which is exactly what their
// already-finished solo solve would have seen.
type SolverState struct {
	E     *distmat.Env
	A     *distmat.Matrix
	M     Precond
	Opts  Options
	Sched *faults.Schedule
	// rec is the iteration method's recurrence (selected by M).
	rec recurrence

	// B is the right-hand side; X, R, Z, P, U are the iteration vectors
	// (solution, residual, preconditioned residual, search direction, A*P;
	// under a SplitPrecond R and Z hold the transformed pair, see
	// splitRecurrence), one distmat.Vector per column.
	B, X, R, Z, P, U []distmat.Vector
	// R0[c] is ||r(0)||, RZ[c] is r(j)'z(j), Beta[c] is beta(j-1) of column
	// c; all replicated.
	R0, RZ, Beta []float64
	// fused is the length-2k send buffer of the fused allreduces; one slot
	// past its length carries a pending x-system's flag (driver.step).
	fused []float64

	// snap is the rank's saved copy of its state, allocated by the first
	// save of a strategy that keeps one (see snapshot); nil until then.
	snap *snapshot

	// done masks a column out of the iteration: converged (res[c].Converged)
	// or failed (errs[c] set). A frozen column stops updating but stays in
	// the k-wide block, so the SpMM, the halo frames and the retention
	// generations keep their shape for the columns still running.
	done []bool
	errs []error
	res  []Result
	// xFinal[c] is the solution snapshot of a landed column — exactly what
	// its solo solve would have returned; a later reconstruction, while
	// other columns run on, rebuilds the live X[c] only to LocalTol. nil (a
	// column that never converged) means X[c] itself is the answer.
	xFinal [][]float64
	// pend is the reconstruction episode whose x-system is still being
	// solved (see settle); nil when none is.
	pend *pendingX
	// pre is the solve's scratch for its preconditioner applications.
	pre ApplyScratch
}

// newSolverState allocates the k-column iteration state around the caller's
// x and b columns. The k = 1 solve is the latency-sensitive one, so the
// vector headers and the scalars share one backing array each.
func newSolverState(e *distmat.Env, a *distmat.Matrix, m Precond, rec recurrence, x, b []distmat.Vector, opts Options, sched *faults.Schedule) *SolverState {
	k := len(b)
	vs := make([]distmat.Vector, 4*k)
	for i := range vs {
		vs[i] = distmat.NewVector(a.P, e.Pos)
	}
	fs := make([]float64, 5*k+1)
	st := &SolverState{
		E: e, A: a, M: m, Opts: opts, Sched: sched, rec: rec,
		B: b, X: x,
		R: vs[:k], Z: vs[k : 2*k], P: vs[2*k : 3*k], U: vs[3*k:],
		R0: fs[:k], RZ: fs[k : 2*k], Beta: fs[2*k : 3*k], fused: fs[3*k : 5*k],
		done: make([]bool, k), errs: make([]error, k),
		res: make([]Result, k), xFinal: make([][]float64, k),
	}
	if k > 1 {
		// The fused preconditioner sweep works in the SpMM's output block,
		// which holds nothing between products.
		st.pre.work = a.BlockScratch(k)
	}
	return st
}

func (st *SolverState) k() int { return len(st.B) }

// allDone reports whether every column converged or failed.
func (st *SolverState) allDone() bool { return !slices.Contains(st.done, false) }

// Running lists the columns still iterating (neither converged nor failed),
// in ascending order.
func (st *SolverState) Running() []int {
	cols := make([]int, 0, st.k())
	for c, done := range st.done {
		if !done {
			cols = append(cols, c)
		}
	}
	return cols
}

// Wipe destroys this rank's dynamic solver data, simulating the memory loss
// of a node failure. NaN poisoning guarantees that any value the recovery
// fails to rebuild surfaces in the results instead of silently reusing stale
// data. B and the snapshot slot survive: they stand for reliable storage,
// like the static data (matrix block, preconditioner).
func (st *SolverState) Wipe() {
	nan := math.NaN()
	for _, vs := range [][]distmat.Vector{st.X, st.R, st.Z, st.P, st.U} {
		for _, v := range vs {
			vec.Fill(v.Local, nan)
		}
	}
	for c := range st.R0 {
		st.R0[c], st.RZ[c], st.Beta[c] = nan, nan, nan
	}
	if st.A.Ret != nil {
		st.A.Ret.Wipe()
	}
}

// snapshot is a rank's one saved copy of its iteration state: x, r, z, p
// and the three replicated scalars per column. The checkpoint strategy keeps
// its last checkpoint in it, the twin strategy its shadow replica, and the
// restart strategy its initial guess (x alone). A column's blocks are
// allocated on its first save and overwritten in place after that; only the
// running columns are saved and restored, and a column never runs again
// once frozen, so what a frozen column's entries hold is never read.
type snapshot struct {
	iter       int          // the iteration saved
	x, r, z, p [][]float64  // the columns' local blocks
	scalars    [][3]float64 // r0, rz, beta
}

// keep copies the running columns' local blocks of vs into dst, allocating
// what was never saved, and returns dst.
func (st *SolverState) keep(dst [][]float64, vs []distmat.Vector) [][]float64 {
	if dst == nil {
		dst = make([][]float64, len(vs))
	}
	for c, done := range st.done {
		switch {
		case done:
		case dst[c] == nil:
			dst[c] = vec.Clone(vs[c].Local)
		default:
			copy(dst[c], vs[c].Local)
		}
	}
	return dst
}

// save copies the running columns' state into the snapshot as that of
// iteration j and returns the floats saved.
func (st *SolverState) save(j int) int {
	if st.snap == nil {
		st.snap = &snapshot{scalars: make([][3]float64, st.k())}
	}
	sn := st.snap
	sn.iter = j
	sn.x, sn.r, sn.z, sn.p = st.keep(sn.x, st.X), st.keep(sn.r, st.R), st.keep(sn.z, st.Z), st.keep(sn.p, st.P)
	floats := 0
	for c, done := range st.done {
		if !done {
			sn.scalars[c] = [3]float64{st.R0[c], st.RZ[c], st.Beta[c]}
			floats += 4*len(st.X[c].Local) + len(sn.scalars[c])
		}
	}
	return floats
}

// restore copies the running columns' saved state back and returns the
// iteration it was saved at and the floats restored.
func (st *SolverState) restore() (iter, floats int) {
	sn := st.snap
	for c, done := range st.done {
		if done {
			continue
		}
		copy(st.X[c].Local, sn.x[c])
		copy(st.R[c].Local, sn.r[c])
		copy(st.Z[c].Local, sn.z[c])
		copy(st.P[c].Local, sn.p[c])
		st.R0[c], st.RZ[c], st.Beta[c] = sn.scalars[c][0], sn.scalars[c][1], sn.scalars[c][2]
		floats += 4*len(st.X[c].Local) + len(sn.scalars[c])
	}
	return sn.iter, floats
}

// Strategy is the failure-recovery seam of the PCG driver (SolveBlock): it
// owns both halves of a resilience scheme — the steady-state overhead work
// of every iteration (ESR's redundancy rides the SpMV, checkpointing saves
// state periodically, restart does nothing) and the recovery episode after
// a failure (reconstruction vs rollback-and-redo vs cold restart). Failure events from one faults.Schedule are dispatched
// to whichever strategy is active, including overlapping failures at
// recovery-phase boundaries (Sec. 4.1 and its rollback analogue).
//
// One Strategy instance is shared by every rank of a solve, so hooks are
// called concurrently (one call per rank) and collectively: every rank
// reaches the same hooks in the same order, so implementations may use the
// state's collectives. Per-rank data lives on the SolverState.
type Strategy interface {
	// Name returns the strategy's wire name (one of the Strategy* consts).
	Name() string
	// Init runs once per solve on every rank, before any collective: before
	// the initial residual setup, and on a Resume before the rank's state is
	// wiped.
	Init(st *SolverState) error
	// Overhead runs the steady-state protection work at the top of
	// iteration j, before the SpMV.
	Overhead(st *SolverState, j int) error
	// Recover handles the failure of victims detected at the poll point of
	// iteration j (after the SpMV distributed the redundant copies). On
	// return, resume directs the driver: resume < 0 means the state of
	// iteration j was reconstructed in place (the driver redoes only the
	// SpMV of j and continues), resume >= 0 means the state was rolled back
	// and the driver redoes iterations from resume.
	Recover(st *SolverState, j int, victims []int) (resume int, rec Reconstruction, err error)
}

// StrategyStats aggregates the per-solve observables of a recovery strategy:
// the steady-state overhead and the recovery cost, in the units of the
// paper's Sec. 4.2 accounting (float elements moved, iterations redone).
// The engine aggregates these per strategy for its health gauges, exactly
// like cluster.TransportStats per fabric.
type StrategyStats struct {
	// Solves counts finished solves under the strategy.
	Solves int64 `json:"solves"`
	// Episodes counts recovery episodes (reconstructions, rollbacks or
	// cold restarts), once per episode of a block solve, however many
	// columns it held.
	Episodes int64 `json:"episodes"`
	// Restarts counts episode restarts forced by overlapping failures
	// (Sec. 4.1) — cascading rollbacks for the checkpoint strategy.
	Restarts int64 `json:"restarts"`
	// RedoneIterations counts iterations executed beyond the converged
	// count (WorkIterations - Iterations): the redo cost of rollback-style
	// strategies; 0 for ESR.
	RedoneIterations int64 `json:"redone_iterations"`
	// Checkpoints counts complete coordinated checkpoints saved.
	Checkpoints int64 `json:"checkpoints"`
	// CheckpointFloats counts float64 elements saved to simulated reliable
	// storage (cluster.CatCheckpoint).
	CheckpointFloats int64 `json:"checkpoint_floats"`
	// RedundancyFloats counts the extra ESR elements piggybacked on the
	// SpMV halo traffic (cluster.CatRedundancy).
	RedundancyFloats int64 `json:"redundancy_floats"`
	// RecoveryFloats counts recovery-episode traffic (cluster.CatRecovery):
	// reconstruction gathers and the floats a rollback restores from
	// reliable storage.
	RecoveryFloats int64 `json:"recovery_floats"`
	// SDCInjected counts silent-data-corruption injections
	// (faults.Corruption events fired at poll points).
	SDCInjected int64 `json:"sdc_injected"`
	// SDCDetected counts corruptions detected, by twin divergence or by the
	// periodic true-residual check.
	SDCDetected int64 `json:"sdc_detected"`
	// SDCCorrected counts corruptions repaired by forward recovery (twin
	// strategy only; detection-only solves detect but never correct).
	SDCCorrected int64 `json:"sdc_corrected"`
	// RecoveryTime is the wall-clock time spent in recovery episodes.
	RecoveryTime time.Duration `json:"recovery_ns"`
}

// Add accumulates o into s.
func (s *StrategyStats) Add(o StrategyStats) {
	s.Solves += o.Solves
	s.Episodes += o.Episodes
	s.Restarts += o.Restarts
	s.RedoneIterations += o.RedoneIterations
	s.Checkpoints += o.Checkpoints
	s.CheckpointFloats += o.CheckpointFloats
	s.RedundancyFloats += o.RedundancyFloats
	s.RecoveryFloats += o.RecoveryFloats
	s.SDCInjected += o.SDCInjected
	s.SDCDetected += o.SDCDetected
	s.SDCCorrected += o.SDCCorrected
	s.RecoveryTime += o.RecoveryTime
}

// esrStrategy is the paper's exact-state-reconstruction scheme.
type esrStrategy struct{}

// NewESRStrategy returns the exact-state-reconstruction strategy (the
// paper's contribution): zero explicit overhead work per iteration — the phi
// redundant copies of the search direction ride the SpMV — and an in-place
// Alg. 2 reconstruction on failure.
func NewESRStrategy() Strategy { return esrStrategy{} }

func (esrStrategy) Name() string { return StrategyESR }

func (esrStrategy) Init(st *SolverState) error {
	// Corruption-only schedules need no redundancy: corruption victims keep
	// running, so only fail-stop events require the ESR copies.
	if st.Sched.HasFailStop() && st.A.Ret == nil {
		return fmt.Errorf("core: ESR recovery needs a resilience-enabled matrix (phi >= 1) to honour a failure schedule")
	}
	return nil
}

func (esrStrategy) Overhead(*SolverState, int) error { return nil }

func (esrStrategy) Recover(st *SolverState, j int, victims []int) (int, Reconstruction, error) {
	rec, err := st.recoverEpisode(j, victims)
	return -1, rec, err
}

// restartStrategy is the null scheme: cold restart from x0.
type restartStrategy struct{}

// NewRestartStrategy returns the cold-restart strategy: no steady-state
// protection work at all; on failure, every rank resets to the initial guess
// x0 and the whole solve is redone. The cheapest possible steady state and
// the most expensive possible recovery — the lower bound every protection
// scheme must beat.
func NewRestartStrategy() Strategy { return restartStrategy{} }

func (restartStrategy) Name() string { return StrategyRestart }

func (restartStrategy) Init(st *SolverState) error {
	st.snap = &snapshot{x: st.keep(nil, st.X)}
	return nil
}

func (restartStrategy) Overhead(*SolverState, int) error { return nil }

func (restartStrategy) Recover(st *SolverState, j int, victims []int) (int, Reconstruction, error) {
	startT := time.Now()
	rec := Reconstruction{Iteration: j}
	ef := NewEpisodeFailures(st.Sched, j, st.E.Pos, st.E.Size(), st.Wipe, victims)
	// Overlapping failures at the recovery-phase grid only enlarge the
	// failed set — a cold restart resets everything regardless — but each
	// batch still restarts the episode for the Sec. 4.1 accounting.
	for phase := 1; phase <= NumRecoveryPhases; phase++ {
		if ef.AtPhase(phase) {
			rec.Restarts++
		}
	}
	rec.FailedRanks = ef.Ranks()
	// Every rank resets the running columns to the initial guess and
	// rebuilds their iteration-0 state; the replacements read x0 from
	// reliable storage like the other static data.
	cols := st.Running()
	for _, c := range cols {
		copy(st.X[c].Local, st.snap.x[c])
	}
	if err := initIteration0(st, cols); err != nil {
		return 0, rec, err
	}
	rec.Duration = time.Since(startT)
	return 0, rec, nil
}

// checkpointStrategy is the checkpoint/restart (C/R) baseline.
type checkpointStrategy struct {
	interval int
}

// NewCheckpointStrategy returns the checkpoint/restart strategy the paper
// positions ESR against (Sec. 1.2, 2.2): every interval iterations (<= 0
// selects DefaultCheckpointInterval) each rank saves its state into its
// snapshot slot — reliable storage, which a failure does not wipe — and
// after a node failure every rank rolls back to the last checkpoint and the
// driver redoes the lost iterations. Each rank books a save as one
// cluster.CatCheckpoint message and a restore as one cluster.CatRecovery
// message, so the steady-state overhead compares with ESR's redundancy
// traffic and the rollback with its reconstruction traffic.
func NewCheckpointStrategy(interval int) Strategy {
	if interval <= 0 {
		interval = DefaultCheckpointInterval
	}
	return checkpointStrategy{interval: interval}
}

func (checkpointStrategy) Name() string { return StrategyCheckpoint }

func (checkpointStrategy) Init(*SolverState) error { return nil }

// Overhead takes the periodic coordinated checkpoint, iteration 0 included
// so a rollback target always exists. A checkpoint is never half-written:
// failures strike only at poll points and episode phases, after the barrier
// every rank reaches once it has saved.
func (s checkpointStrategy) Overhead(st *SolverState, j int) error {
	if j%s.interval != 0 {
		return nil
	}
	st.E.C.RecordStorage(cluster.CatCheckpoint, st.save(j))
	// Coordinated checkpointing: no rank proceeds until the checkpoint is
	// complete (this synchronisation is part of C/R's cost).
	return st.E.Grp.Barrier()
}

// Recover rolls every rank back to the last checkpoint after the victims
// lost their memory. Overlapping failures at the recovery-phase grid redo
// the rollback with the enlarged failed set — the cascading analogue of the
// paper's Sec. 4.1 restart rule.
func (checkpointStrategy) Recover(st *SolverState, j int, victims []int) (int, Reconstruction, error) {
	startT := time.Now()
	rec := Reconstruction{Iteration: j}
	ef := NewEpisodeFailures(st.Sched, j, st.E.Pos, st.E.Size(), st.Wipe, victims)
	if st.snap == nil {
		return 0, rec, fmt.Errorf("core: no checkpoint to roll back to")
	}
	for phase := 1; ; rec.Restarts++ {
		rec.FailedRanks = ef.Ranks()
		resume, floats := st.restore()
		st.E.C.RecordStorage(cluster.CatRecovery, floats)
		if err := st.E.Grp.Barrier(); err != nil {
			return 0, rec, err
		}
		// A fresh victim at a phase boundary has just lost the restored
		// state: the rollback is redone (the slot keeps the checkpoint).
		for phase <= NumRecoveryPhases && !ef.AtPhase(phase) {
			phase++
		}
		if phase > NumRecoveryPhases {
			rec.Duration = time.Since(startT)
			return resume, rec, nil
		}
	}
}
