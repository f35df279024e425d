// Package esr is a fault-tolerant sparse linear solver library: a full
// reproduction of "How to Make the Preconditioned Conjugate Gradient Method
// Resilient Against Multiple Node Failures" (Pachajoa, Levonyak, Gansterer,
// Träff; ICPP 2019).
//
// The library solves symmetric positive-definite systems A x = b with a
// parallel preconditioned conjugate gradient (PCG) solver running on an
// in-process distributed-memory runtime (goroutine ranks exchanging
// messages, the stand-in for MPI). The solver keeps phi redundant copies of
// the two most recent search directions, piggybacked on the sparse
// matrix-vector product's halo traffic (the paper's Eqns. 5/6), so that the
// exact solver state can be reconstructed after up to phi simultaneous or
// overlapping node failures — without checkpointing.
//
// Quick start (one-shot):
//
//	a := esr.Poisson2D(64, 64)                 // SPD test matrix
//	b := make([]float64, a.Rows)
//	for i := range b { b[i] = 1 }
//	sol, err := esr.Solve(a, b, esr.Config{
//	    Ranks: 8,
//	    Phi:   3,
//	    Schedule: esr.NewSchedule(esr.Simultaneous(10, 2, 3, 4)),
//	})
//
// # Sessions vs one-shot
//
// Solve and SolveContext are one-shot: every call re-partitions the matrix,
// re-runs the distributed symbolic phase and re-factors the block
// preconditioner before iterating. When serving many right-hand sides on
// one system, hold a Solver session instead — it prepares that state once
// and serves any number of concurrent Solve/SolveBatch calls against it:
//
//	s, err := esr.NewSolver(a, esr.Config{
//	    Ranks:          8,
//	    Phi:            3,
//	    Preconditioner: esr.PrecondBlockJacobiChol,
//	})
//	defer s.Close()
//	sol, err := s.Solve(ctx, b)
//	sols, err := s.SolveBatch(ctx, manyRHS)
//	sol, err = s.Solve(ctx, b, esr.Config{Strategy: esr.StrategyCheckpoint})
//
// A knob is a Config field, and the same Config is the JSON wire format of
// the cmd/esrd daemon: a session and a call take any number of them (an
// Option is a Config), a later non-zero field winning. Each field's `scope`
// tag says whether it is fixed at NewSolver (prep) or may change per call
// (run, batch, observer). Solve/SolveContext are thin wrappers over a
// one-shot session, and the same prepared path backs the internal/engine
// job engine and the cmd/esrd HTTP daemon, where a matrix uploaded once via
// POST /v1/matrices can be referenced by many jobs (JobSpec.MatrixID).
//
// The cmd/esrbench tool reproduces every table and figure of the paper's
// evaluation (README.md, "Other binaries"). See README.md for a quickstart
// covering the library, the daemon, and failure schedules, plus a map of the
// internal/ packages.
package esr

import (
	"context"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/sparse"
)

// Matrix is a sparse matrix in compressed sparse row format.
type Matrix = sparse.CSR

// COO is a coordinate-format builder for assembling matrices entry by entry.
type COO = sparse.COO

// NewCOO returns an empty builder for an r x c matrix.
func NewCOO(r, c int) *COO { return sparse.NewCOO(r, c) }

// Schedule describes deterministic node-failure scenarios.
type Schedule = faults.Schedule

// Event is a single failure injection.
type Event = faults.Event

// NewSchedule builds a failure schedule from events.
func NewSchedule(events ...Event) *Schedule { return faults.NewSchedule(events...) }

// Simultaneous schedules the given ranks to fail together at the poll point
// of the given solver iteration.
func Simultaneous(iteration int, ranks ...int) Event {
	return faults.Simultaneous(iteration, ranks...)
}

// Overlapping schedules ranks to fail while the reconstruction for
// `iteration` is in the given recovery phase (1-5), forcing a restart.
func Overlapping(iteration, phase int, ranks ...int) Event {
	return faults.Overlapping(iteration, phase, ranks...)
}

// ContiguousRanks returns count contiguous ranks starting at start (mod
// clusterSize), the failure placement of the paper's experiments.
func ContiguousRanks(start, count, clusterSize int) []int {
	return faults.ContiguousRanks(start, count, clusterSize)
}

// Corruption is the silent-data-corruption payload of a BitFlip event: which
// solver vector, which local element, which bit.
type Corruption = faults.Corruption

// Corruption targets: the solver vectors a BitFlip event can strike.
const (
	// TargetX is the iterate x(j).
	TargetX = faults.TargetX
	// TargetR is the recurrence residual r(j).
	TargetR = faults.TargetR
	// TargetP is the search direction p(j).
	TargetP = faults.TargetP
	// TargetZ is the preconditioned residual z(j).
	TargetZ = faults.TargetZ
)

// BitFlip schedules a silent-data-corruption injection: at the poll point of
// the given iteration, the given bit of the given local element of one solver
// vector on one rank is flipped — no crash, no error, just wrong data.
// StrategyTwin detects and repairs such events; Config.SDCCheckInterval
// detects them under any strategy.
func BitFlip(iteration, rank int, target string, index, bit int) Event {
	return faults.BitFlip(iteration, rank, target, index, bit)
}

// Result reports a solve: iterations, residuals, the Eqn. 7 deviation
// metric, and the reconstruction episodes.
type Result = core.Result

// Reconstruction records one exact-state-reconstruction episode.
type Reconstruction = core.Reconstruction

// Tracer observes a solve at its phase boundaries, the one way to watch it:
// per-iteration phase durations (SpMV, preconditioner apply, allreduce), the
// residual trajectory, and recovery episodes (see Config.Tracer).
// Tracing is observer-only — a traced solve is bit-identical to an untraced
// one — and callbacks run synchronously from the solver loop, so they must
// be cheap and must not block.
type Tracer = core.Tracer

// IterationTrace is one completed iteration delivered to a Tracer.
type IterationTrace = core.IterationTrace

// RecoveryTrace is one completed recovery episode delivered to a Tracer.
type RecoveryTrace = core.RecoveryTrace

// MultiTracer combines tracers into one that replays every trace to each of
// them in order (nil entries are dropped).
func MultiTracer(ts ...Tracer) Tracer { return core.MultiTracer(ts...) }

// DataLossError reports an unrecoverable failure set (more data lost than
// the redundancy level covers).
type DataLossError = core.DataLossError

// SDCDetectedError reports silent data corruption caught by the
// Config.SDCCheckInterval true-residual drift check under a strategy that
// cannot repair it: the solve is classified as failed (ErrDataLoss) instead
// of silently returning a wrong answer.
type SDCDetectedError = core.SDCDetectedError

// Preconditioner names accepted by Config.Preconditioner.
const (
	// PrecondIdentity disables preconditioning (plain CG).
	PrecondIdentity = engine.PrecondIdentity
	// PrecondJacobi preconditions with diag(A).
	PrecondJacobi = engine.PrecondJacobi
	// PrecondBlockJacobiILU preconditions with an ILU(0) factorization of
	// the rank-local diagonal block (the default).
	PrecondBlockJacobiILU = engine.PrecondBlockJacobiILU
	// PrecondBlockJacobiChol solves the rank-local diagonal block exactly
	// via dense Cholesky — the paper's configuration; expensive to set up,
	// which is exactly what a Solver session amortizes.
	PrecondBlockJacobiChol = engine.PrecondBlockJacobiChol
	// PrecondSSOR preconditions with symmetric successive overrelaxation of
	// the local block (relaxation factor Config.SSOROmega).
	PrecondSSOR = engine.PrecondSSOR
	// PrecondIC0 preconditions with an incomplete Cholesky factorization
	// M = L L^T of the local block; the only split-capable choice, required
	// by MethodSPCG.
	PrecondIC0 = engine.PrecondIC0
)

// Method names accepted by Config.Method: the recurrence the solver runs.
// Both run under every strategy, schedule, detector setting and width.
const (
	// MethodPCG is the paper's PCG (Alg. 1), the default.
	MethodPCG = engine.MethodPCG
	// MethodSPCG is the split-preconditioner variant ([23, Alg. 5]); it
	// requires PrecondIC0.
	MethodSPCG = engine.MethodSPCG
)

// Transport names accepted by Config.Transport: the communication fabric
// solves run on. Results are bit-identical on all three.
const (
	// TransportChan (the default) is the in-process fabric: mailbox
	// hand-off between rank goroutines, with payload buffers served from a
	// pooled recycler so the steady-state halo-exchange/collective loop
	// does not allocate.
	TransportChan = engine.TransportChan
	// TransportChaos delivers every message asynchronously after a
	// deterministic seeded delay (Config.TransportSeed), reordering messages
	// across distinct (source, tag) pairs, for stressing the resilience
	// protocol's ordering assumptions.
	TransportChaos = engine.TransportChaos
	// TransportNet runs every rank-to-rank message over real TCP sockets
	// with length-prefixed frames. In-process solves run it in self-loop
	// mode (every rank in this process); under the esrd daemon's -peers
	// coordinator each rank is a separate OS process, and a killed process
	// is a real node failure that ESR recovers from.
	TransportNet = engine.TransportNet
)

// Strategy names accepted by Config.Strategy: how a solve recovers from a
// failure. One prepared session serves every strategy, so per call it is how
// the strategies are compared on identical prepared state.
const (
	// StrategyESR (the default) is the paper's exact state reconstruction:
	// no explicit steady-state work — phi redundant copies of the search
	// direction ride the SpMV — and an in-place Alg. 2 reconstruction on
	// failure. Needs a session with phi >= 1 to honour a failure schedule.
	StrategyESR = engine.StrategyESR
	// StrategyCheckpoint is the checkpoint/restart baseline the paper
	// compares against: a coordinated save of the full solver state to
	// reliable storage every Config.CheckpointInterval iterations, and a
	// rollback-and-redo of the lost iterations on failure. Works at phi 0.
	StrategyCheckpoint = engine.StrategyCheckpoint
	// StrategyRestart is the null strategy: no protection work at all; on
	// failure the solve restarts from the initial guess. Works at phi 0.
	StrategyRestart = engine.StrategyRestart
	// StrategyTwin is the TwinCG-style twin-replica scheme: a node-local
	// shadow copy of the solver state, compared by checksum every
	// Config.TwinInterval iterations; on divergence a scalar-residual vote
	// carries the healthy copy forward — the only strategy that *corrects*
	// silent data corruption instead of merely detecting it. Fail-stop
	// failures delegate to ESR reconstruction, so a fail-stop schedule
	// still needs phi >= 1; corruption-only schedules run at phi 0.
	StrategyTwin = engine.StrategyTwin
)

// DefaultBlockSize is the block width SolveBatch uses when Config.BlockSize
// is 0; MaxBlockSize bounds it.
const (
	DefaultBlockSize = engine.DefaultBlockSize
	MaxBlockSize     = engine.MaxBlockSize
)

// InvalidConfigError reports a configuration value rejected by validation:
// Field is the Config field's JSON name ("block_size", "ssor_omega",
// "strategy", ...), Value the rejected value, Reason what is accepted
// instead. Every Config rejection is one, whichever way the Config arrived;
// match it with errors.As and branch on Field, or on the class with
// errors.Is(err, ErrInvalidArgument).
type InvalidConfigError = engine.InvalidConfigError

// InvalidRHSError reports a malformed right-hand side in a batch: a column
// with the wrong length or a non-finite element, naming its index.
type InvalidRHSError = engine.InvalidRHSError

// StrategyStats aggregates a session's recovery-strategy observables:
// steady-state protection volumes and recovery costs, comparable across
// strategies (see Solver.StrategyStats).
type StrategyStats = core.StrategyStats

// Config controls a Solve run. The zero value selects the paper's
// experimental setup; zero-valued numerical fields (Tol, MaxIter, LocalTol)
// defer to the solver-layer defaults in internal/core (Tol 1e-8, MaxIter
// 10 n, LocalTol 1e-14), which are the single source of truth.
type Config = engine.Config

// Solution is the outcome of a Solve call.
type Solution = engine.Solution

// Solve distributes the SPD system A x = b over an in-process cluster and
// runs the resilient PCG solver, injecting the configured failures. It is
// the one-shot entry point: a Solver session prepared, used once, and torn
// down. Callers with many right-hand sides on the same system should hold a
// NewSolver session instead and amortize the setup.
func Solve(a *Matrix, b []float64, cfg Config) (Solution, error) {
	return SolveContext(context.Background(), a, b, cfg)
}

// SolveContext is Solve with lifecycle control: cancelling ctx (or hitting
// its deadline) aborts the in-process cluster — ranks blocked in
// communication are woken — and returns the context's cause error. Progress
// can be observed per iteration via Config.Tracer. SolveContext runs the
// same prepared solve path the internal job engine and the cmd/esrd daemon
// execute.
func SolveContext(ctx context.Context, a *Matrix, b []float64, cfg Config) (Solution, error) {
	return engine.SolveSystem(ctx, a, b, cfg)
}

// ResidualNorm returns ||b - A x||_2, for verifying solutions.
func ResidualNorm(a *Matrix, x, b []float64) float64 {
	r := make([]float64, a.Rows)
	a.MulVec(r, x)
	var s float64
	for i := range r {
		d := b[i] - r[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Matrix generators (see internal/matgen for the full catalogue).

// Poisson2D returns the 5-point finite-difference Laplacian on an nx x ny
// grid.
func Poisson2D(nx, ny int) *Matrix { return matgen.Poisson2D(nx, ny) }

// Poisson3D returns the 7-point Laplacian on an nx x ny x nz grid.
func Poisson3D(nx, ny, nz int) *Matrix { return matgen.Poisson3D(nx, ny, nz) }

// Elasticity3D returns a 3-dof-per-node elasticity-like SPD matrix (stencil
// in {7, 15, 27}).
func Elasticity3D(nx, ny, nz, stencil int, seed int64) *Matrix {
	return matgen.Elasticity3D(nx, ny, nz, stencil, seed)
}

// CircuitLike returns an irregular circuit-like SPD matrix with long-range
// couplings.
func CircuitLike(n int, avgDeg, longRange float64, seed int64) *Matrix {
	return matgen.CircuitLike(n, avgDeg, longRange, seed)
}

// ReadMatrixMarket parses a MatrixMarket coordinate stream.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return mmio.ReadCSR(r) }

// WriteMatrixMarket writes m in MatrixMarket coordinate format.
func WriteMatrixMarket(w io.Writer, m *Matrix, symmetric bool) error {
	return mmio.WriteCSR(w, m, symmetric)
}
