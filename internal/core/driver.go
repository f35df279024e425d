package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/vec"
	"repro/internal/xerr"
)

// PCG runs the reference (non-resilient) preconditioned conjugate gradient
// method, Alg. 1 of the paper, on the distributed system A x = b. x is the
// initial guess and receives the solution. m may be nil for plain CG.
//
// Every rank calls PCG with its local blocks; the returned Result is
// identical on all ranks (reductions use a deterministic tree order).
func PCG(e *distmat.Env, a *distmat.Matrix, x, b distmat.Vector, m Precond, opts Options) (Result, error) {
	// The reference solver arms nothing: no schedule, no detector, no
	// episode to join.
	opts.SDCCheck, opts.Resume = 0, nil
	return ResilientPCG(e, a, x, b, m, opts, nil, nil)
}

// ESRPCG runs the resilient preconditioned conjugate gradient with exact
// state reconstruction (the paper's contribution, Secs. 2-4): the SpMV
// distributes phi redundant copies of every search-direction block according
// to Eqns. 5/6, and when ranks fail (per the schedule), the full solver
// state (x, r, z, p) is reconstructed with Alg. 2 generalised to the union
// failed index set I_f, after which the iteration resumes.
//
// The matrix must be resilience-enabled (built with phi >= 1) whenever the
// schedule is non-empty.
func ESRPCG(e *distmat.Env, a *distmat.Matrix, x, b distmat.Vector, m Precond, opts Options, sched *faults.Schedule) (Result, error) {
	return ResilientPCG(e, a, x, b, m, opts, sched, NewESRStrategy())
}

// ResilientPCG runs PCG protected by the given recovery strategy (nil
// selects ESR): the strategy's steady-state overhead work at the top of
// every iteration and its recovery episode at the paper's post-SpMV failure
// poll point. The checkpoint/restart baseline (internal/checkpoint), the
// cold-restart lower bound and the twin scheme plug into the same loop, so
// all strategies are compared on one code path.
func ResilientPCG(e *distmat.Env, a *distmat.Matrix, x, b distmat.Vector, m Precond, opts Options, sched *faults.Schedule, strat Strategy) (Result, error) {
	cols := []distmat.Vector{x, b} // one allocation for both column sets
	res, colErrs, err := SolveBlock(e, a, cols[:1], cols[1:], m, opts, sched, strat)
	if res == nil {
		return Result{}, err
	}
	if err == nil {
		err = colErrs[0]
	}
	return res[0], err
}

// SolveBlock is the PCG driver; the reference solver (PCG), the ESR solver
// (ESRPCG) and the strategy-protected solver (ResilientPCG) are its k = 1
// case. It runs the k recurrences of A x[c] = b[c] (Alg. 1) in lockstep off
// shared SpMM and preconditioner applications, fusing the k dot-products and
// the k (||r||^2, r'z) pairs into single length-k and length-2k allreduces.
// Because the group allreduce combines element-wise over a fixed binomial
// tree, slot c of a fused allreduce is bitwise identical to the allreduce a
// solo solve performs for column c, and a width-1 SpMM is the SpMV — so every
// column's trajectory, and its solution, is bitwise identical to a k = 1
// solve of that column on every transport.
//
// Failure semantics follow the paper's experimental methodology (Sec. 6):
// victims are wiped at deterministic poll points and the same rank slot then
// executes the strategy's recovery protocol (nil selects ESR). Overlapping
// failures fire at recovery-phase boundaries and restart the episode with
// the enlarged failed set (Sec. 4.1; rollback strategies redo the rollback —
// a cascading rollback).
//
// x holds the initial guesses and receives the solutions. A breakdown or
// divergence of one column, or corruption the armed detector catches on it,
// freezes only that column and is reported in the per-column errors; the
// third return is a global error (communication failure, cancellation,
// unrecoverable data loss) that aborts the whole block. A matrix with
// retention must have been prepared with SetBlockWidth(k).
//
// The iteration method follows from what m is: a SplitPrecond runs the
// split-preconditioner recurrence (SPCG), every other preconditioner Alg. 1
// (see recurrence). Either way the loop, the strategies, the corruption
// machinery and the episode are the same, at every width.
func SolveBlock(e *distmat.Env, a *distmat.Matrix, x, b []distmat.Vector, m Precond, opts Options, sched *faults.Schedule, strat Strategy) ([]Result, []error, error) {
	k := len(b)
	if k == 0 || len(x) != k {
		return nil, nil, fmt.Errorf("core: SolveBlock needs matching non-empty column sets (%d vs %d)", len(x), k)
	}
	if m == nil {
		m = IdentityPrecond()
	}
	if strat == nil {
		strat = NewESRStrategy()
	}
	rec, err := recurrenceFor(m)
	if err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults(a.P.N())
	if err := sched.Validate(e.Size()); err != nil {
		return nil, nil, err
	}
	start := time.Now()

	st := newSolverState(e, a, m, rec, x, b, opts, sched)
	// Init before any collective (and before the r0 == 0 early return): a
	// misconfiguration such as an ESR schedule without redundancy must
	// surface even when the initial guess already solves the system.
	if err := strat.Init(st); err != nil {
		return nil, nil, err
	}
	d := &driver{st: st, strat: strat, lastFired: -1, lastInjected: -1, sdcPending: make([][]int, k)}
	// poller is non-nil for strategies that detect and repair silent data
	// corruption themselves (twin); others rely on the detection-only
	// SDCCheck drift check.
	d.poller, _ = strat.(sdcPoller)
	if opts.SDCCheck > 0 {
		d.sdcScratch = make([]distmat.Vector, k)
		for c := range d.sdcScratch {
			d.sdcScratch[c] = distmat.NewVector(a.P, e.Pos)
		}
	}
	// clock times the iteration phases for the tracer; nil (the common case)
	// reduces every hook to a pointer test, so the untraced loop never reads
	// the wall clock mid-iteration.
	if opts.Tracer != nil {
		d.clock = &phaseClock{}
	}
	d.alpha = make([]float64, k)
	d.zAct, d.rAct = make([]distmat.Vector, 0, k), make([]distmat.Vector, 0, k)

	// On an error the x-system still solving in the background is stopped
	// and joined; a finished run has settled it.
	defer st.dropPending()
	if err := d.run(); err != nil {
		return st.res, st.errs, err
	}
	elapsed := time.Since(start)
	for c := range st.res {
		st.res[c].SolveTime = elapsed
	}
	return st.res, st.errs, nil
}

// driver is the loop-local bookkeeping of one SolveBlock call.
type driver struct {
	st    *SolverState
	strat Strategy
	clock *phaseClock

	// lastFired is the latest iteration whose fail-stop event was handled,
	// so rollback strategies that redo iterations do not re-trigger events
	// on the replay (the replayed range lies at or below it); lastInjected
	// plays the same role for corruption events.
	lastFired, lastInjected int
	// sdcPending tracks, per column, the injected-but-undetected corruption
	// iterations for the detection-latency accounting.
	sdcPending [][]int
	poller     sdcPoller
	// sdcScratch holds the true residuals of the drift check, one per column.
	sdcScratch []distmat.Vector

	// alpha holds the per-column step lengths, zAct/rAct the still-active
	// columns handed to the fused preconditioner application.
	alpha      []float64
	zAct, rAct []distmat.Vector
}

// run is the one PCG iteration loop. Each pass is iteration j of Alg. 1 for
// every active column, with the resilience steps at their poll points:
//
//	overhead -> SpMV -> corruption poll -> fail-stop poll -> [recover]
//	         -> [redo SpMV] -> recurrence step
func (d *driver) run() error {
	st, opts := d.st, d.st.Opts
	j := 0
	// victims is a fail-stop event awaiting recovery at iteration j.
	var victims []int
	if opts.Resume != nil {
		// A replacement rank joining an episode in progress: its peers are
		// blocked at iteration Resume.Iteration's recovery collectives, so
		// running iterations 0..Iteration-1 here would deadlock (and repeat
		// sends the survivors already consumed). Start from the same wiped
		// state an in-process victim has and go straight to the recovery —
		// it rebuilds everything, including the replicated scalars this
		// rank's Result needs.
		//
		// The rollback strategies have no in-place episode to join, and no
		// caller can produce a blocked Resume (the net path is single-RHS):
		// the one width restriction left. Ignoring the request would iterate
		// from 0 against peers blocked in recovery collectives.
		if d.strat.Name() != StrategyESR || st.k() > 1 {
			return xerr.Newf(xerr.FailedPrecondition,
				"core: only a width-1 solve under the %s strategy can join a failure episode via Resume (got %s, width %d)",
				StrategyESR, d.strat.Name(), st.k())
		}
		if opts.Resume.Iteration < 0 || opts.Resume.Iteration >= opts.MaxIter {
			return fmt.Errorf("core: Resume iteration %d out of range", opts.Resume.Iteration)
		}
		st.Wipe()
		j, victims = opts.Resume.Iteration, opts.Resume.Victims
		d.lastFired = j
	} else {
		if err := initIteration0(st, st.Running()); err != nil {
			return err
		}
		for c := range st.res {
			st.res[c] = Result{InitialResidual: st.R0[c], FinalResidual: st.R0[c]}
			if st.R0[c] == 0 {
				// The initial guess already solves column c.
				st.land(c) // nothing is pending yet: no error
			}
		}
		if st.allDone() {
			return nil
		}
	}

	for j < opts.MaxIter && !st.allDone() {
		// redo marks that iteration j's state was rebuilt (in-place fail-stop
		// reconstruction or a non-bitwise corruption repair): the SpMV of j
		// must be redone and r'z recomputed before continuing.
		redo := false
		if len(victims) == 0 {
			if err := opts.poll(); err != nil {
				return err
			}
			// Steady-state protection work (checkpoint saves, twin
			// snapshots; nothing for ESR — its redundancy rides the SpMV
			// below — or restart).
			if err := d.strat.Overhead(st, j); err != nil {
				return err
			}
			for c := range st.res {
				if !st.done[c] {
					st.res[c].WorkIterations++
				}
			}
			// u = A p(j): the SpMM that distributes the redundant copies of
			// p(j) (when the matrix is resilience-enabled) and retains
			// generation j.
			if err := d.spmv(j); err != nil {
				return err
			}
			var err error
			if redo, err = d.pollCorruption(j); err != nil {
				return err
			}
			if st.allDone() {
				// The drift check froze the last running column.
				break
			}
			// Poll point: the paper's failures strike here, after the copies
			// of p(j) exist on phi other ranks.
			victims = opts.pollFailStop(st.Sched, &d.lastFired, j)
		}
		if len(victims) > 0 {
			resume, err := d.handleFailure(j, victims)
			if err != nil {
				return err
			}
			victims = nil
			if resume >= 0 {
				// Rollback-style recovery: redo the lost iterations. The
				// replayed iterations are traced again — the trace reflects
				// executed work, like Result.WorkIterations.
				d.clock.reset()
				j = resume
				continue
			}
			redo = true
		}
		if redo {
			if err := d.redoSpMV(j); err != nil {
				return err
			}
		}
		if err := d.step(j); err != nil {
			return err
		}
		j++
	}
	return d.finish()
}

// spmv computes u[c] = A p[c] for every column in one SpMM (the SpMV at
// k = 1).
func (d *driver) spmv(j int) error {
	d.clock.start()
	err := d.st.A.MatMat(d.st.E, d.st.U, d.st.P, j)
	d.clock.stop(clockSpMV)
	return err
}

// sumActive fills slot c of the fused send buffer with f(c) for every
// active column (a deterministic 0 for frozen ones) and allreduces the k
// slots. The caller recycles the result.
func (d *driver) sumActive(f func(c int) float64) ([]float64, error) {
	st := d.st
	buf := st.fused[:st.k()]
	for c := range buf {
		buf[c] = 0
		if !st.done[c] {
			buf[c] = f(c)
		}
	}
	return d.allreduce(buf)
}

// sumPAp is sumActive for the step's p'Ap, with the active columns taken
// two per pass over the blocks (vec.Dot2 is Dot on each pair).
func (d *driver) sumPAp() ([]float64, error) {
	st := d.st
	buf := st.fused[:st.k()]
	clear(buf)
	held := -1 // an active column waiting for its partner
	for c := range buf {
		if st.done[c] {
			continue
		}
		if held < 0 {
			held = c
			continue
		}
		buf[held], buf[c] = vec.Dot2(st.P[held].Local, st.U[held].Local, st.P[c].Local, st.U[c].Local)
		held = -1
	}
	if held >= 0 {
		buf[held] = vec.Dot(st.P[held].Local, st.U[held].Local)
	}
	return d.allreduce(buf)
}

// allreduce sums buf over the group, timed as the iteration's allreduce
// phase. The caller recycles the result.
func (d *driver) allreduce(buf []float64) ([]float64, error) {
	d.clock.start()
	out, err := d.st.E.Grp.Allreduce(cluster.OpSum, buf)
	d.clock.stop(clockAllreduce)
	return out, err
}

// redoSpMV redoes the SpMV of iteration j — recomputing u everywhere and
// re-establishing the redundancy copies on reconstructed or repaired state —
// and recomputes r'z, which involves rebuilt blocks.
func (d *driver) redoSpMV(j int) error {
	st := d.st
	if err := d.spmv(j); err != nil {
		return err
	}
	rzs, err := d.sumActive(func(c int) float64 { return st.rec.rz(st, c) })
	if err != nil {
		return err
	}
	for c := range st.RZ {
		if !st.done[c] {
			st.RZ[c] = rzs[c]
		}
	}
	st.E.Grp.Recycle(rzs)
	return nil
}

// step is the recurrence for iteration j, after u = A p(j): alpha, the x/r
// updates, z from r, the residual check and the next search direction, per
// active column. The comments spell Alg. 1; st.rec supplies the steps in
// which the split-preconditioner method differs.
func (d *driver) step(j int) error {
	st, opts := d.st, d.st.Opts
	k := st.k()
	pus, err := d.sumPAp()
	if err != nil {
		return err
	}
	for c := 0; c < k; c++ {
		d.alpha[c] = 0
		if st.done[c] {
			continue
		}
		// Negated comparison so NaN (from an overflowed iterate) also trips
		// the breakdown instead of spinning NaN arithmetic to MaxIter. A
		// breakdown freezes only its column.
		if pu := pus[c]; !(pu > 0) {
			if err := d.fail(c, fmt.Errorf("core: %s-PCG breakdown, p'Ap = %g at iteration %d (column %d)", d.strat.Name(), pu, j, c)); err != nil {
				return err
			}
			continue
		}
		d.alpha[c] = st.RZ[c] / pus[c]
	}
	st.E.Grp.Recycle(pus)

	// x(j+1) = x(j) + alpha p(j); r(j+1) = r(j) - alpha A p(j), fused into
	// one pass over the blocks (bit-identical to the two Axpys). Frozen
	// columns are skipped: their state stays at the landing iteration. While
	// its x_If is being solved, a replacement updates r alone and keeps the x
	// update for settle to replay.
	deferX := st.pend != nil && st.pend.amFailed
	d.zAct, d.rAct = d.zAct[:0], d.rAct[:0]
	for c := 0; c < k; c++ {
		if st.done[c] {
			continue
		}
		if a := d.alpha[c]; deferX {
			vec.Axpy(-a, st.rec.tu(st, c), st.R[c].Local)
			st.pend.hist[c] = append(st.pend.hist[c], xUpdate{a, vec.Clone(st.P[c].Local)})
		} else {
			vec.AxpyAxpy(a, st.P[c].Local, st.X[c].Local, -a, st.rec.tu(st, c), st.R[c].Local)
		}
		d.zAct = append(d.zAct, st.Z[c])
		d.rAct = append(d.rAct, st.R[c])
	}
	// z(j+1) = M^{-1} r(j+1): one fused application for the active columns
	// (every rank freezes the same columns off the shared allreduce results,
	// so the active set — and any fused halo exchange it drives — stays
	// uniform across ranks).
	d.clock.start()
	if err := st.rec.z(st, d.zAct, d.rAct); err != nil {
		return err
	}
	d.clock.stop(clockPrecond)

	// ONE fused length-2k allreduce for the k (||r||^2, r'z) pairs, each
	// formed in one pass. u is dead until the next SpMV and serves as the
	// norm's scratch. While an episode is pending, one more slot carries the
	// leader's flag that x_If is solved; the element-wise combine leaves the
	// pairs' bits alone.
	for c := 0; c < k; c++ {
		st.fused[2*c], st.fused[2*c+1] = 0, 0
		if !st.done[c] {
			st.fused[2*c], st.fused[2*c+1] = st.rec.norms(st, c)
		}
	}
	buf := st.fused
	if st.pend != nil {
		buf = buf[:2*k+1]
		buf[2*k] = st.pend.solved()
	}
	norms, err := d.allreduce(buf)
	if err != nil {
		return err
	}
	if len(norms) > 2*k && norms[2*k] > 0 {
		if err := st.settle(); err != nil {
			return err
		}
	}
	// The iteration's observable residual: the largest among the columns
	// that completed it (the column's own at k = 1).
	ran, maxRn, maxRel := 0, 0.0, 0.0
	for c := 0; c < k; c++ {
		if st.done[c] {
			continue
		}
		rn, rzNew := math.Sqrt(norms[2*c]), norms[2*c+1]
		st.res[c].Iterations = j + 1
		st.res[c].FinalResidual = rn
		if math.IsNaN(rn) || math.IsInf(rn, 0) {
			if err := d.fail(c, fmt.Errorf("core: %s-PCG diverged, ||r|| = %g at iteration %d (column %d)", d.strat.Name(), rn, j, c)); err != nil {
				return err
			}
			continue
		}
		ran++
		maxRn = math.Max(maxRn, rn)
		maxRel = math.Max(maxRel, relTo(rn, st.R0[c]))
		if rn <= opts.Tol*st.R0[c] {
			if err := st.land(c); err != nil {
				return err
			}
			continue
		}
		st.Beta[c] = rzNew / st.RZ[c] // beta(j) = r(j+1)'z(j+1) / r(j)'z(j)
		st.RZ[c] = rzNew
		vec.Axpby(1, st.Z[c].Local, st.Beta[c], st.P[c].Local) // p(j+1) = z(j+1) + beta(j) p(j)
	}
	st.E.Grp.Recycle(norms)
	if ran > 0 {
		opts.notify(ProgressEvent{Iteration: j + 1, Residual: maxRn, RelResidual: maxRel})
		d.clock.emit(opts.Tracer, j+1, maxRn, maxRel)
	}
	return nil
}

// fail freezes column c with its breakdown or divergence, after settling a
// pending episode (a frozen column's x is final). On a column carrying an
// injected corruption no check has caught yet, the corruption is the likely
// cause, so the error is classed data_loss like a detected one. Collective.
func (d *driver) fail(c int, err error) error {
	if serr := d.st.settle(); serr != nil {
		return serr
	}
	if len(d.sdcPending[c]) > 0 {
		err = xerr.Wrap(xerr.DataLoss, err)
	}
	d.st.errs[c], d.st.done[c] = err, true
	return nil
}

// land marks column c converged: a pending episode is settled, the column
// masked out of the iteration and its solution snapshotted (see
// SolverState.xFinal). Collective.
func (st *SolverState) land(c int) error {
	if err := st.settle(); err != nil {
		return err
	}
	st.res[c].Converged = true
	st.done[c] = true
	st.xFinal[c] = vec.Clone(st.X[c].Local)
	return nil
}

// handleFailure runs the strategy's recovery episode for the victims
// detected at iteration j and books it (at settle, when its x-system is
// still being solved) on every column still running: a solo solve of an
// already-landed column would have ended before this iteration. resume is
// the strategy's directive (see Strategy.Recover).
func (d *driver) handleFailure(j int, victims []int) (resume int, err error) {
	st := d.st
	resume, rec, err := d.strat.Recover(st, j, victims)
	if err != nil {
		return 0, err
	}
	rp := episodeReport{strategy: d.strat.Name(), j: j, resume: resume, rec: rec}
	for c := range st.res {
		if st.done[c] {
			continue
		}
		res := &st.res[c]
		if res.InitialResidual == 0 && st.Opts.Resume != nil {
			// A resumed rank learns ||r0|| only through the recovery's
			// scalar reconstruction; fill the Result in after the fact.
			res.InitialResidual, res.FinalResidual = st.R0[c], st.R0[c]
		}
		rp.residual = math.Max(rp.residual, res.FinalResidual)
		rp.rel = math.Max(rp.rel, relTo(res.FinalResidual, st.R0[c]))
	}
	if st.pend != nil {
		st.pend.report = rp
		return resume, nil
	}
	st.book(rp)
	return resume, nil
}

// episodeReport is a recovery episode as its columns' records and the
// progress and trace reports take it. residual is that of the last completed
// iteration (the episode happens mid-iteration); resume is the strategy's
// directive, from which the rollback depth follows; sub holds the per-column
// subsystem iterations of a reconstruction.
type episodeReport struct {
	strategy      string
	j, resume     int
	rec           Reconstruction
	sub           []float64
	residual, rel float64
}

// book appends the episode to every running column's Result and reports it.
func (st *SolverState) book(rp episodeReport) {
	for c := range st.res {
		if st.done[c] {
			continue
		}
		colRec := rp.rec
		if rp.sub != nil {
			colRec.SubIterations = int(rp.sub[c])
		}
		st.res[c].Reconstructions = append(st.res[c].Reconstructions, colRec)
		st.res[c].ReconstructTime += rp.rec.Duration
	}
	o := st.Opts
	o.notify(ProgressEvent{Iteration: rp.j, Residual: rp.residual, RelResidual: rp.rel, Reconstruction: &rp.rec})
	redone := 0
	if rp.resume >= 0 {
		redone = rp.j - rp.resume
	}
	o.trace(RecoveryTrace{
		Iteration: rp.j, Strategy: rp.strategy,
		FailedRanks: rp.rec.FailedRanks, Restarts: rp.rec.Restarts,
		RedoneIterations: redone, Duration: rp.rec.Duration,
	})
}

// pollFailStop is the fail-stop poll point of iteration j, shared by every
// solver loop: when a scheduled event fires for the first time (lastFired
// guards rollback replays), the OnFailure hook runs — the net fabric turns
// the simulated event into a real process death there — and the victims are
// returned for recovery.
func (o Options) pollFailStop(sched *faults.Schedule, lastFired *int, j int) []int {
	v := sched.AtIteration(j)
	if len(v) == 0 || j <= *lastFired {
		return nil
	}
	*lastFired = j
	if o.OnFailure != nil {
		o.OnFailure(j, v)
	}
	return v
}

// pollCorruption is the silent-data-corruption poll point of iteration j, for
// every still-running column: scheduled bit flips strike — at the same point
// as the fail-stop events, after u = A p(j) was computed from the still-clean
// p — then the twin vote and the periodic drift check run. A frozen column is
// neither flipped, compared nor checked, which is what its finished solo
// solve would have seen. It reports whether a repair rebuilt state
// non-bitwise, so that the SpMV must be redone.
func (d *driver) pollCorruption(j int) (redo bool, err error) {
	st, opts := d.st, d.st.Opts
	// A fired event or the drift check reads or overwrites x: settle first.
	if st.pend != nil && (len(st.Sched.AtIteration(j)) > 0 && j > d.lastFired ||
		len(st.Sched.CorruptionsAt(j)) > 0 && j > d.lastInjected ||
		opts.SDCCheck > 0 && j > 0 && j%opts.SDCCheck == 0) {
		if err := st.settle(); err != nil {
			return false, err
		}
	}
	// All ranks count every injection (the Results stay replicated); only
	// the victim applies the flip.
	if sites := st.Sched.CorruptionsAt(j); len(sites) > 0 && j > d.lastInjected {
		d.lastInjected = j
		for c := range st.res {
			if st.done[c] {
				continue
			}
			st.res[c].SDCInjected += len(sites)
			for _, s := range sites {
				d.sdcPending[c] = append(d.sdcPending[c], j)
				if s.Rank == st.E.Pos {
					applyCorruption(st, c, s)
				}
			}
		}
	}
	// Twin checksum exchange + vote + forward recovery. This runs before the
	// fail-stop recovery so the u-test still sees the pre-injection
	// u = A p(j).
	if d.poller != nil {
		out, err := d.poller.PollSDC(st, j)
		if err != nil {
			return false, err
		}
		redo = out.Redo
		for c, n := range out.Detected {
			if n > 0 {
				d.sdcDetected(c, j, n)
				st.res[c].SDCCorrected += n
			}
		}
		if out.Detected != nil {
			opts.trace(RecoveryTrace{Iteration: j, Strategy: d.strat.Name(), FailedRanks: out.Ranks, Corruption: true})
		}
	}
	// Periodic true-residual drift check (detection-only for strategies
	// without a repair path: the drifted column is frozen with its error,
	// like a breakdown).
	if opts.SDCCheck > 0 && j > 0 && j%opts.SDCCheck == 0 {
		norms, err := d.sdcDrift()
		if err != nil {
			return false, err
		}
		var repair []int
		for c := range st.res {
			if st.done[c] {
				continue
			}
			rtrue, rrec := math.Sqrt(norms[2*c]), math.Sqrt(norms[2*c+1])
			if !sdcDrifted(rtrue, rrec, st.R0[c]) {
				continue
			}
			d.sdcDetected(c, j, 1)
			if d.poller == nil {
				st.errs[c] = &SDCDetectedError{Iteration: j, TrueResidual: rtrue, RecurrenceResidual: rrec}
				st.done[c] = true
				continue
			}
			repair = append(repair, c)
		}
		st.E.Grp.Recycle(norms)
		if len(repair) > 0 {
			if err := d.poller.RepairDrift(st, j, repair); err != nil {
				return false, err
			}
			for _, c := range repair {
				st.res[c].SDCCorrected++
			}
			redo = true
			opts.trace(RecoveryTrace{Iteration: j, Strategy: d.strat.Name(), Corruption: true})
		}
	}
	return redo, nil
}

// sdcDrift recomputes the true residual of every running column with one
// SpMM and returns, under one fused allreduce, the (||b - A x||^2, ||r||^2)
// pair of column c in slots 2c and 2c+1. The caller recycles the result.
// Collective.
func (d *driver) sdcDrift() ([]float64, error) {
	st := d.st
	cols := st.Running()
	if err := st.A.ResidualBlock(st.E, pick(d.sdcScratch, cols), pick(st.B, cols), pick(st.X, cols), -1); err != nil {
		return nil, err
	}
	clear(st.fused)
	for _, c := range cols {
		t := d.sdcScratch[c].Local
		st.fused[2*c] = vec.Nrm2Sq(t)
		st.fused[2*c+1] = st.rec.rnorm2(st, st.R[c].Local, t)
	}
	return st.E.Grp.Allreduce(cluster.OpSum, st.fused)
}

// sdcDetected books n detections on column c at iteration j and settles the
// detection latency of every injection pending on it.
func (d *driver) sdcDetected(c, j, n int) {
	res := &d.st.res[c]
	res.SDCDetected += n
	for _, inj := range d.sdcPending[c] {
		res.SDCLatency += j - inj
	}
	d.sdcPending[c] = d.sdcPending[c][:0]
}

// finish hands the landed snapshots back in the caller's x and verifies
// every column: the true residual, the Eqn. 7 deviation metric and the armed
// convergence check.
func (d *driver) finish() error {
	st := d.st
	if err := st.settle(); err != nil {
		return err
	}
	for c, snap := range st.xFinal {
		if snap != nil {
			copy(st.X[c].Local, snap)
		}
	}
	if err := st.verify(); err != nil {
		return err
	}
	if st.Opts.SDCCheck == 0 {
		return nil
	}
	// Convergence verification: with SDC checking armed, a column never
	// reports success while the recurrence residual disagrees with the true
	// residual — corruption that slipped between periodic checks surfaces
	// here instead of as a silently wrong answer.
	for c := range st.res {
		res := &st.res[c]
		if res.Converged && sdcDrifted(res.TrueResidual, res.FinalResidual, res.InitialResidual) {
			res.SDCDetected++
			st.errs[c] = &SDCDetectedError{
				Iteration: res.Iterations, TrueResidual: res.TrueResidual,
				RecurrenceResidual: res.FinalResidual,
			}
		}
	}
	return nil
}

// initIteration0 (re)builds the given columns' state as iteration 0 of a
// solve from X and B: r(0) from x(0) and b via one SpMM, z(0) from r(0),
// p(0) = z(0), and the replicated scalars off ONE fused length-2k allreduce
// of the (||r0||^2, r0'z0) pairs. Shared by the driver's setup, the
// cold-restart recovery and the twin's drift repair, so a restarted column
// replays a fresh solve bit-identically.
func initIteration0(st *SolverState, cols []int) error {
	clear(st.fused)
	if err := st.rec.residual0(st, cols); err != nil {
		return err
	}
	if err := st.rec.z(st, pick(st.Z, cols), pick(st.R, cols)); err != nil {
		return err
	}
	for _, c := range cols {
		vec.Copy(st.P[c].Local, st.Z[c].Local)
		st.fused[2*c+1] = st.rec.rz(st, c)
	}
	norms, err := st.E.Grp.Allreduce(cluster.OpSum, st.fused)
	if err != nil {
		return err
	}
	for _, c := range cols {
		st.R0[c] = math.Sqrt(norms[2*c])
		st.RZ[c] = norms[2*c+1]
		st.Beta[c] = 0
	}
	st.E.Grp.Recycle(norms)
	return nil
}

// verify recomputes the true residual ||b - A x|| of every column with one
// SpMM and one fused length-k norm allreduce, and derives the relative
// residual difference metric of Eqn. 7. Errored columns ride along on their
// last iterate so the SpMM keeps its k-wide shape; their error is what the
// caller sees.
func (st *SolverState) verify() error {
	k := st.k()
	// u = A p is dead once the loop has ended: it holds b - A x from here.
	ts := st.U
	if err := st.A.ResidualBlock(st.E, ts, st.B, st.X, -1); err != nil {
		return err
	}
	for c := 0; c < k; c++ {
		st.fused[c] = vec.Nrm2Sq(ts[c].Local)
	}
	norms, err := st.E.Grp.Allreduce(cluster.OpSum, st.fused[:k])
	if err != nil {
		return err
	}
	for c := 0; c < k; c++ {
		// Tiny negative sums can appear from reductions of rounding.
		tn := math.Sqrt(math.Max(norms[c], 0))
		st.res[c].TrueResidual = tn
		if tn > 0 {
			st.res[c].Delta = (st.res[c].FinalResidual - tn) / tn
		}
	}
	st.E.Grp.Recycle(norms)
	return nil
}

// locals returns the rank-local blocks of the given columns.
func locals(vs []distmat.Vector) [][]float64 {
	out := make([][]float64, len(vs))
	for c, v := range vs {
		out[c] = v.Local
	}
	return out
}

// cloneLocals returns fresh copies of the rank-local blocks of the columns.
func cloneLocals(vs []distmat.Vector) [][]float64 {
	out := make([][]float64, len(vs))
	for c, v := range vs {
		out[c] = vec.Clone(v.Local)
	}
	return out
}
