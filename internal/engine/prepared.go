package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distmat"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/xerr"
)

// ErrPreparedClosed reports a Solve on (or racing with) a closed prepared
// session.
var ErrPreparedClosed = xerr.New(xerr.Unavailable, "engine: prepared solver session is closed")

// maxCholBlock bounds the per-rank block size of the dense block-Jacobi
// Cholesky preconditioner for network-submitted jobs (see CheckCholBlock):
// 4096 caps the dense factors at 2 x 4096^2 floats (256 MiB: L plus its
// cache-friendly transpose) per rank and the factorization at ~1.1e10
// flops, keeping a worker responsive. Larger blocks must use the sparse
// ILU(0)/IC(0) factorizations.
const maxCholBlock = 4096

// CheckCholBlock refuses a network-submitted job under cfg whose matrix of
// the given row count would reach the dense Cholesky factorization with a
// block over maxCholBlock: the kernel is O(block^3) and unabortable once
// started. The engine's job path and a fleet worker call it before Prepare;
// trusted in-process library callers (esr.NewSolver) are not subject to
// the cap.
func CheckCholBlock(rows int, cfg Config) error {
	cfg = cfg.WithDefaults()
	if cfg.Preconditioner != PrecondBlockJacobiChol {
		return nil
	}
	ranks := min(cfg.Ranks, rows)
	if bs := (rows + ranks - 1) / ranks; bs > maxCholBlock {
		return xerr.Newf(xerr.InvalidArgument,
			"engine: block-jacobi-cholesky block size %d exceeds %d (dense factorization); use %q or more ranks",
			bs, maxCholBlock, PrecondBlockJacobiILU)
	}
	return nil
}

// SolveOpts is the former name of a solve's per-call Config, kept as an
// alias for callers that still spell it.
type SolveOpts = Config

// preparedRank is the per-rank state built once and reused by every solve:
// the distributed matrix template (symbolic halo plan, redundancy protocol,
// localised CSR) and the factored preconditioner. The matrix template is
// Forked per solve; the preconditioner applications are read-only and are
// shared by concurrent solves directly.
type preparedRank struct {
	m      *distmat.Matrix
	prec   core.Precond
	lo, hi int
}

// Prepared is a reusable solver session over one system matrix: the
// partition, the per-rank distributed matrix state, and the factored block
// preconditioners are built exactly once, after which any number of
// concurrent Solve calls run against them, each on its own short-lived rank
// runtime. Close tears the session down and aborts in-flight solves.
type Prepared struct {
	// cfg is normalized, Ranks clamped to the matrix size. Its prep-scoped
	// fields describe the state below; the rest is the default run policy.
	cfg  Config
	part partition.Partition
	n    int
	prep []preparedRank
	// em, when non-nil, is the engine's metrics: every finished runtime and
	// solve of the session is booked on its series too.
	em *engineMetrics

	mu     sync.Mutex
	closed bool
	active map[*cluster.Runtime]struct{}
	wg     sync.WaitGroup
	sstats core.StrategyStats // aggregated across all solves
}

// newTransport builds a fresh transport instance for one runtime. cfg is
// validated, so the name resolves; the impossible error path falls back to
// the default fabric.
func newTransport(cfg Config) cluster.Transport {
	t, err := cluster.NewTransport(cfg.Transport)
	if err != nil {
		return cluster.NewLocalTransport()
	}
	return t
}

// recordStats books one finished runtime's transport counters on the
// engine's series. When the session owns the runtime's transport (it built it
// for this run), ownsTransport also releases transport resources — the net
// fabric's listener and connections.
func (ps *Prepared) recordStats(rt *cluster.Runtime, ownsTransport bool) {
	ps.em.observeTransport(rt.Transport().Name(), rt.Transport().Stats())
	if ownsTransport {
		if c, ok := rt.Transport().(io.Closer); ok {
			c.Close()
		}
	}
}

// StrategyName returns the session's default failure-recovery strategy name.
func (ps *Prepared) StrategyName() string { return ps.cfg.Strategy }

// StrategyStats returns the session's aggregated recovery-strategy counters
// (every finished solve so far): steady-state protection volumes, recovery
// episodes, redone iterations.
func (ps *Prepared) StrategyStats() core.StrategyStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.sstats
}

// newStrategy builds this solve's recovery strategy. One strategy instance
// is shared by the solve's ranks; it holds only its configuration, and each
// rank keeps what it saves on its own solver state.
func newStrategy(cfg Config) core.Strategy {
	switch cfg.Strategy {
	case StrategyCheckpoint:
		return core.NewCheckpointStrategy(cfg.CheckpointInterval)
	case StrategyRestart:
		return core.NewRestartStrategy()
	case StrategyTwin:
		return core.NewTwinStrategy(cfg.TwinInterval)
	default:
		return core.NewESRStrategy()
	}
}

// blockStats derives the result-borne strategy stats of one block solve from
// rank 0's per-column results. Each column that solved (colErrs[c] nil) counts
// one solve and its own redone iterations; a column that failed (every column
// when colErrs is nil: the solve failed globally) contributes only its SDC
// counters, so a detected corruption shows up even though its column failed.
// An episode is the block's, not a column's: every running column books it,
// so a column's list is a prefix of any longer-running column's, and the
// longest list among the solved columns is the block's episodes, counted once.
func blockStats(results []core.Result, colErrs []error) core.StrategyStats {
	var delta core.StrategyStats
	var longest core.Result
	for c, res := range results {
		delta.SDCInjected += int64(res.SDCInjected)
		delta.SDCDetected += int64(res.SDCDetected)
		delta.SDCCorrected += int64(res.SDCCorrected)
		if colErrs == nil || colErrs[c] != nil {
			continue
		}
		delta.Solves++
		delta.RedoneIterations += int64(res.WorkIterations - res.Iterations)
		if len(res.Reconstructions) > len(longest.Reconstructions) {
			longest = res
		}
	}
	delta.Episodes = int64(len(longest.Reconstructions))
	delta.RecoveryTime = longest.ReconstructTime
	for _, rec := range longest.Reconstructions {
		delta.Restarts += int64(rec.Restarts)
	}
	return delta
}

// recordStrategyStats books one solve's strategy observables, as rank 0 saw
// them, on the session aggregate and the engine's series: blockStats of the
// results, plus the runtime's protection traffic counters once — the block
// shares them — when the solve finished. Every rank books each checkpoint
// save as one CatCheckpoint message, so the checkpoints are those messages
// per rank.
func (ps *Prepared) recordStrategyStats(strategy string, results []core.Result, colErrs []error, rt *cluster.Runtime) {
	delta := blockStats(results, colErrs)
	if colErrs != nil {
		ctrs := rt.Counters().Snapshot()
		delta.Checkpoints = ctrs.Msgs[cluster.CatCheckpoint] / int64(rt.Size())
		delta.CheckpointFloats = ctrs.Floats[cluster.CatCheckpoint]
		delta.RedundancyFloats = ctrs.Floats[cluster.CatRedundancy]
		delta.RecoveryFloats = ctrs.Floats[cluster.CatRecovery]
	} else if delta == (core.StrategyStats{}) {
		return
	}
	ps.mu.Lock()
	ps.sstats.Add(delta)
	ps.mu.Unlock()
	ps.em.observeStrategy(strategy, delta)
}

// Prepare builds a reusable solver session for the SPD system matrix a. Only
// cfg's prep-scoped fields shape what is built (see Config.PrepIdentity); its
// other fields become the session's defaults, which every Solve's Config can
// override, and Transport also picks the fabric of the build's own symbolic
// exchange. The caller must Close the session when done.
func Prepare(a *sparse.CSR, cfg Config) (*Prepared, error) {
	return PrepareContext(context.Background(), a, cfg)
}

// PrepareContext is Prepare with cancellation: cancelling ctx aborts the
// build's runtime (ranks blocked in the symbolic exchange are woken; a rank
// inside a factorization finishes its kernel first, as in a solve) and
// returns the context's cause.
func PrepareContext(ctx context.Context, a *sparse.CSR, cfg Config) (*Prepared, error) {
	return prepare(ctx, a, cfg, nil)
}

// prepare is PrepareContext for a session that books its runtimes and solves
// on em too (nil for a library session), the build's own runtime included.
func prepare(ctx context.Context, a *sparse.CSR, cfg Config, em *engineMetrics) (*Prepared, error) {
	cfg = cfg.WithDefaults()
	if a == nil || a.Rows <= 0 {
		return nil, fmt.Errorf("esr: nil or empty matrix")
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("esr: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if cfg.Ranks > a.Rows {
		cfg.Ranks = a.Rows
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ps := &Prepared{
		cfg:    cfg,
		part:   partition.NewBlockRow(a.Rows, cfg.Ranks),
		n:      a.Rows,
		prep:   make([]preparedRank, cfg.Ranks),
		em:     em,
		active: map[*cluster.Runtime]struct{}{},
	}
	// The symbolic phase (halo plan + redundancy protocol) is a distributed
	// exchange, so the build itself runs as an SPMD program on a throwaway
	// runtime; the resulting per-rank state has no reference to it.
	rt := cluster.New(cfg.Ranks, cluster.WithTransport(newTransport(cfg)))
	defer ps.recordStats(rt, true)
	err := rt.RunContext(ctx, func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		lo, hi := ps.part.Range(e.Pos)
		m, err := distmat.NewMatrix(e, a.RowBlock(lo, hi), ps.part, cfg.Phi, 0)
		if err != nil {
			// Wake peers blocked in the symbolic exchange instead of
			// deadlocking the build.
			rt.Abort(err)
			return err
		}
		// Cancellation point before the expensive factorization: a rank that
		// already knows the build is aborted must not start an O(block^3)
		// kernel it cannot be woken from.
		if err := c.Check(); err != nil {
			return err
		}
		prec, err := buildPrecond(cfg, m)
		if err != nil {
			rt.Abort(err)
			return err
		}
		// Ranks write disjoint slots; no lock needed.
		ps.prep[c.Rank()] = preparedRank{m: m, prec: prec, lo: lo, hi: hi}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// N returns the dimension of the prepared system.
func (ps *Prepared) N() int { return ps.n }

// Ranks returns the number of simulated compute nodes of the session.
func (ps *Prepared) Ranks() int { return ps.cfg.Ranks }

// Phi returns the redundancy level of the session.
func (ps *Prepared) Phi() int { return ps.cfg.Phi }

// Config returns the normalized configuration the session was prepared
// with: its prep-scoped fields and its default run policy.
func (ps *Prepared) Config() Config { return ps.cfg }

// policy resolves one solve's policy: the session's Config overlaid with the
// call's non-zero per-solve fields (Merge's rule, prep fields left out),
// validated as a whole — so every rule binding a method, a strategy, a
// schedule or the detector to the prepared state is Config.Validate's alone. The overlay's reflection
// puts the resolved Config on the heap anyway, so it is returned by pointer
// for the solve's rank closures to share.
func (ps *Prepared) policy(o *Config) (*Config, error) {
	c := ps.cfg
	c.overlay(o, solveFields)
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c = c.WithDefaults() // resolves a per-call "fast" to chan
	return &c, nil
}

// Solve runs one solve of A x = b against the prepared state. It is safe to
// call concurrently: every call forks the per-rank matrix templates (fresh
// scratch and retention state) onto its own rank runtime, while the
// partition and the factored preconditioners are shared read-only.
// Cancelling ctx aborts only this solve's runtime. opts is the call's
// policy: its non-zero run-, batch- and observer-scoped fields override the
// session's, its prep-scoped fields are ignored.
func (ps *Prepared) Solve(ctx context.Context, b []float64, opts Config) (Solution, error) {
	return ps.solveOne(ctx, nil, nil, b, &opts, core.Options{})
}

// SolveOn runs one solve on a caller-provided runtime, driving only the
// given rank subset locally — the multi-process entry point: every process
// of a net-fabric fleet prepares the same session (preparation is
// deterministic and transport-independent), builds one shared mesh runtime,
// and calls SolveOn with the ranks it hosts. The remaining rank slots are
// driven by peer processes over the wire. The runtime's size must match the
// session's rank count; the caller owns the runtime and its transport
// lifecycle. The returned Solution carries the result only on the process
// hosting rank 0 (a zero Solution elsewhere).
//
// onFailure and resume are in-process hooks, not policy (either may be nil).
// onFailure is installed on every local rank: called at the failure poll
// point after a fresh scheduled event fires, before recovery — the net
// fabric turns the event into a real process death there (see
// core.Options.OnFailure). resume makes the solve join a failure episode
// already in progress instead of starting from iteration 0 — the entry path
// of a replacement OS process (see core.Options.Resume).
func (ps *Prepared) SolveOn(ctx context.Context, rt *cluster.Runtime, localRanks []int, b []float64, opts Config,
	onFailure func(j int, victims []int), resume *core.EpisodeResume) (Solution, error) {
	if rt == nil {
		return Solution{}, fmt.Errorf("esr: SolveOn needs a runtime")
	}
	if rt.Size() != ps.cfg.Ranks {
		return Solution{}, fmt.Errorf("esr: runtime has %d ranks, session prepared for %d", rt.Size(), ps.cfg.Ranks)
	}
	if len(localRanks) == 0 {
		return Solution{}, fmt.Errorf("esr: SolveOn needs at least one local rank")
	}
	return ps.solveOne(ctx, rt, localRanks, b, &opts, core.Options{OnFailure: onFailure, Resume: resume})
}

// solveOne is the width-1 case of solveOn: the column's own breakdown or
// divergence is the solve's error.
func (ps *Prepared) solveOne(ctx context.Context, rt *cluster.Runtime, localRanks []int, b []float64, opts *Config, hooks core.Options) (Solution, error) {
	if len(b) != ps.n {
		return Solution{}, xerr.Newf(xerr.InvalidArgument, "esr: rhs length %d != matrix rows %d", len(b), ps.n)
	}
	cfg, err := ps.policy(opts)
	if err != nil {
		return Solution{}, err
	}
	sols, colErrs, err := ps.solveOn(ctx, rt, localRanks, [][]float64{b}, cfg, hooks)
	if err == nil {
		err = colErrs[0]
	}
	if err != nil {
		return Solution{}, err
	}
	return sols[0], nil
}

// solveOn is the one solve body: the k systems A x[c] = bs[c] run in
// lockstep through the width-k core driver under cfg, a policy resolved by
// policy; Solve/SolveOn are its k = 1 case. hooks carries only the
// in-process callbacks (OnFailure, Resume); cfg fills in the rest of the
// core.Options. A nil rt means "build a fresh single-process runtime over
// the session's transport" (which the call then owns); localRanks nil means
// all ranks. Column c of the block is bitwise identical to its k = 1 solve on
// every transport, and its Result carries the same counts. The returned
// slices are aligned with bs: colErrs[c] reports a per-column breakdown,
// divergence or detected corruption (the corresponding Solution is
// zero-valued); the error return is a global failure aborting the block.
func (ps *Prepared) solveOn(ctx context.Context, rt *cluster.Runtime, localRanks []int, bs [][]float64, cfg *Config, hooks core.Options) ([]Solution, []error, error) {
	k := len(bs)
	copts := hooks
	copts.Tol, copts.MaxIter, copts.LocalTol = cfg.Tol, cfg.MaxIter, cfg.LocalTol
	copts.Ctx, copts.SDCCheck = ctx, cfg.SDCCheckInterval
	// An episode's leader reads the other failed ranks' static blocks here:
	// every process holds the whole session, so nothing static is rebuilt
	// or shipped.
	copts.Session = func(r int) (*distmat.Matrix, core.Precond) {
		return ps.prep[r].m, ps.prep[r].precond(*cfg)
	}

	ownsRT := rt == nil
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return nil, nil, ErrPreparedClosed
	}
	if ownsRT {
		rt = cluster.New(cfg.Ranks, cluster.WithTransport(newTransport(*cfg)))
	}
	ps.active[rt] = struct{}{}
	ps.wg.Add(1)
	ps.mu.Unlock()
	defer func() {
		ps.recordStats(rt, ownsRT)
		ps.mu.Lock()
		delete(ps.active, rt)
		ps.mu.Unlock()
		ps.wg.Done()
	}()
	if localRanks == nil {
		localRanks = make([]int, cfg.Ranks)
		for r := range localRanks {
			localRanks[r] = r
		}
	}
	hasRank0 := false
	for _, r := range localRanks {
		if r == 0 {
			hasRank0 = true
		}
	}

	strat := newStrategy(*cfg)
	matvecObs := ps.em.matvecObserver(rt.Transport().Name())

	var mu sync.Mutex
	sols := make([]Solution, k)
	colErrs := make([]error, k)
	// results0 keeps rank 0's per-column results (partial ones when the
	// solve failed globally) for the strategy stats.
	var results0 []core.Result
	err := rt.RunLocalContext(ctx, localRanks, func(c *cluster.Comm) error {
		pr := ps.prep[c.Rank()]
		e := distmat.WorldEnv(c)
		m := pr.m.Fork()
		m.SetBlockWidth(k)
		if matvecObs != nil {
			// Every rank reports its own SpMV phase split: the overlap
			// efficiency is a per-rank quantity.
			m.SetMatVecObserver(matvecObs)
		}
		B := make([]distmat.Vector, k)
		X := make([]distmat.Vector, k)
		for col := range bs {
			// The solve only reads b (residuals, verification, recovery,
			// twin checks; Wipe leaves it alone), so each rank reads its
			// block of the caller's vector in place, capacity-clipped.
			B[col] = distmat.Vector{P: ps.part, Pos: e.Pos, Local: bs[col][pr.lo:pr.hi:pr.hi]}
			X[col] = distmat.NewVector(ps.part, e.Pos)
		}
		ropts := copts
		if c.Rank() == 0 {
			ropts.Tracer = cfg.Tracer
		}
		results, errsPerCol, err := core.SolveBlock(e, m, X, B, pr.precond(*cfg), ropts, cfg.Schedule, strat)
		if c.Rank() == 0 {
			mu.Lock()
			results0 = results
			mu.Unlock()
		}
		if err != nil {
			if ownsRT {
				// Wake peers blocked on this rank instead of deadlocking the
				// solve: an episode's survivors wait in its collectives for
				// replacements whose x-system failed.
				rt.Abort(err)
			}
			return err
		}
		// Per-column errors are derived from deterministic fused-allreduce
		// results, so every rank sees the same ones — and leaves the same
		// columns out of the collective gather below.
		mu.Lock()
		copy(colErrs, errsPerCol)
		mu.Unlock()
		done := make([]int, 0, k)
		conv := make([]distmat.Vector, 0, k)
		for col := range bs {
			if errsPerCol[col] == nil {
				done = append(done, col)
				conv = append(conv, X[col])
			}
		}
		full, err := distmat.Gather(e, conv)
		if err != nil || full == nil {
			return err
		}
		mu.Lock()
		for i, col := range done {
			sols[col] = Solution{X: full[i], Result: results[col]}
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		if errors.Is(err, ErrPreparedClosed) {
			// Close aborted this solve's runtime; surface the session error,
			// not a wrapped per-rank abort.
			return nil, nil, ErrPreparedClosed
		}
		ps.recordStrategyStats(cfg.Strategy, results0, nil, rt)
		return nil, nil, err
	}
	if hasRank0 {
		// The result-borne strategy stats live on rank 0's Results; processes
		// hosting only other ranks would fold in zeros.
		ps.recordStrategyStats(cfg.Strategy, results0, colErrs, rt)
	}
	return sols, colErrs, nil
}

// Close tears the session down: subsequent Solve calls fail with
// ErrPreparedClosed, in-flight solves are aborted (their runtimes wake ranks
// blocked in communication and the Solve calls return ErrPreparedClosed),
// and Close blocks until they have unwound. Idempotent.
func (ps *Prepared) Close() {
	ps.mu.Lock()
	if !ps.closed {
		ps.closed = true
		for rt := range ps.active {
			rt.Abort(ErrPreparedClosed)
		}
	}
	ps.mu.Unlock()
	ps.wg.Wait()
}

// precond returns the preconditioner argument of one solve. What it is
// selects the driver's recurrence: MethodSPCG hands the session's IC(0)
// factor over as a split (Config.Validate guarantees an ic0 session), every
// other method the session's preconditioner itself.
func (pr preparedRank) precond(cfg Config) core.Precond {
	if cfg.Method == MethodSPCG {
		return core.SplitPrecond{P: pr.prec.(core.LocalPrecond).P.(precond.Split)}
	}
	return pr.prec
}

// buildPrecond factors the node-local block preconditioner for the rank's
// matrix.
func buildPrecond(cfg Config, m *distmat.Matrix) (core.Precond, error) {
	var p precond.Preconditioner
	var err error
	switch cfg.Preconditioner {
	case PrecondIdentity:
		return core.IdentityPrecond(), nil
	case PrecondJacobi:
		p, err = precond.NewJacobi(m.Diag())
	case PrecondBlockJacobiILU:
		p, err = precond.NewBlockJacobiILU(m.OwnBlock())
	case PrecondBlockJacobiChol:
		p, err = precond.NewBlockJacobiChol(m.OwnBlock())
	case PrecondSSOR:
		p, err = precond.NewSSOR(m.OwnBlock(), cfg.SSOROmega)
	case PrecondIC0:
		p, err = precond.NewIC0Split(m.OwnBlock())
	default:
		return nil, fmt.Errorf("esr: unknown preconditioner %q", cfg.Preconditioner)
	}
	if err != nil {
		return nil, err
	}
	return core.LocalPrecond{P: p}, nil
}
