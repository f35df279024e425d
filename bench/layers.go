package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	esr "repro"
	"repro/internal/cluster"
	"repro/internal/commplan"
	"repro/internal/core"
	"repro/internal/distmat"
	"repro/internal/engine"
	"repro/internal/localsolve"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/store"
	"repro/internal/vec"
)

// blockWidth is the k of the blocked kernels' rungs: the library's default
// batch block size.
const blockWidth = engine.DefaultBlockSize

// ladder is the traced pass: the per-layer rungs, measured by calling each
// layer's exported functions from here on the workload's own partitioned
// problem - the way engine.Prepare and experiments.SolveOnce build a solve -
// with the spans recorded around the calls, kept in memory and reported when
// the pass ends. Every timed rung gets the same small slot of --seconds and
// reports the median of the samples that fit.
type ladder struct {
	problem
	cfg  runConfig
	ms   *metricSet
	dir  string
	slot time.Duration

	b      []float64 // the right-hand side every rung works on
	part   partition.Partition
	blocks []*sparse.CSR // row blocks with global columns, one per rank
	vs     []rankVecs

	spmv         float64 // sparse.spmv_s: sizes the distributed loops
	mats0, mats3 []*distmat.Matrix
	ilus         []*precond.BlockJacobiILU
}

// rankVecs are one rank's PCG vectors at rank-local length.
type rankVecs struct{ p, u, x, r, z []float64 }

func tracedPass(cfg runConfig, p problem, dir string) (*metricSet, error) {
	l := &ladder{problem: p, cfg: cfg, ms: newMetricSet(perLayer), dir: dir, slot: cfg.share(1.0 / 40),
		b: p.in.rhs[0], part: partition.NewBlockRow(p.a.Rows, ranks)}
	for r := 0; r < ranks; r++ {
		lo, hi := l.part.Range(r)
		l.blocks = append(l.blocks, l.a.RowBlock(lo, hi))
		own := l.b[lo:hi]
		l.vs = append(l.vs, rankVecs{vec.Clone(own), vec.Clone(own), make([]float64, hi-lo), vec.Clone(own), vec.Clone(own)})
	}
	for _, rung := range []func() error{l.kernels, l.symbolic, l.fabric, l.distributed, l.factors, l.drivers, l.served} {
		if err := rung(); err != nil {
			return nil, err
		}
	}
	return l.ms, nil
}

// timed reports the median seconds of f over the samples that fit a slot.
func (l *ladder) timed(name string, minN int, f func()) float64 {
	m := median(sample(l.slot, minN, 1<<30, func() float64 { return timeIt(f) }))
	l.ms.set(name, m)
	return m
}

// kernels: sparse and vec, the local work of all eight ranks one after
// another, as the calls core.PCG and distmat.MatVec make.
func (l *ladder) kernels() error {
	ys := make([][]float64, ranks)
	for r := range ys {
		ys[r] = make([]float64, l.blocks[r].Rows)
	}
	l.spmv = l.timed("sparse.spmv_s", 5, func() {
		for r, blk := range l.blocks {
			blk.MulVec(ys[r], l.b)
		}
	})
	nnz, n := float64(l.a.NNZ()), float64(l.a.Rows)
	l.ms.set("sparse.spmv_flops", 2*nnz)
	// Computed, not measured: values and column indices once, row pointers
	// and y once, x once; cache misses on x are not in it.
	l.ms.set("sparse.spmv_bytes_computed", 16*nnz+16*n+8*n)

	xk := make([]float64, l.a.Rows*blockWidth)
	for i := range xk {
		xk[i] = l.b[i/blockWidth]
	}
	yk := make([]float64, l.part.MaxSize()*blockWidth)
	spmm := median(sample(l.slot, 3, 1<<30, func() float64 {
		return timeIt(func() {
			for _, blk := range l.blocks {
				blk.MulMat(yk[:blk.Rows*blockWidth], xk, blockWidth)
			}
		})
	}))
	l.ms.set("sparse.spmm_s_per_col", spmm/blockWidth)

	var sink float64
	l.timed("vec.iter_updates_s", 5, func() {
		for _, v := range l.vs {
			sink += vec.ParDotN(v.p, v.u, 0)
			vec.ParAxpyAxpy(1e-9, v.p, v.x, -1e-9, v.u, v.r, 0)
			sink += vec.ParNrm2SqN(v.r, 0) + vec.ParDotN(v.r, v.z, 0)
			vec.Axpby(1, v.z, 0.5, v.p)
		}
	})
	return nil
}

// symbolic: commplan's halo plans and phi-3 redundancy, and what they decide
// to send.
func (l *ladder) symbolic() error {
	var plans []*commplan.HaloPlan
	reds := make([]*commplan.Redundancy, ranks)
	var err error
	l.timed("commplan.symbolic_s", 2, func() {
		plans = commplan.BuildAll(l.a, l.part)
		for r, pl := range plans {
			if reds[r], err = commplan.BuildRedundancy(pl, phi); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	var halo, extra, rounds int
	for r, pl := range plans {
		for _, s := range pl.SendTo {
			halo += len(s)
		}
		for _, c := range reds[r].ExtraCounts() {
			extra += c
		}
		for _, late := range reds[r].ExtraLatencyRounds() {
			if late {
				rounds++
			}
		}
	}
	l.ms.set("commplan.halo_elems", float64(halo))
	l.ms.set("commplan.extra_elems", float64(extra))
	l.ms.set("commplan.extra_latency_rounds", float64(rounds))
	return nil
}

// fabric: what one cluster runtime and one two-float allreduce cost.
func (l *ladder) fabric() error {
	l.timed("cluster.spawn_s", 5, func() {
		cluster.New(ranks).Run(func(*cluster.Comm) error { return nil })
	})
	const allreduces = 2000
	d, err := onRanks(cluster.New(ranks), func(e *distmat.Env) error {
		for i := 0; i < allreduces; i++ {
			out, err := e.Grp.Allreduce(cluster.OpSum, []float64{1, 2})
			if err != nil {
				return err
			}
			e.Grp.Recycle(out)
		}
		return nil
	})
	l.ms.set("cluster.allreduce_s", d/allreduces)
	return err
}

// distributed: distmat's matrices at phi 0 and phi 3, built once like
// engine.Prepare does and forked per measurement like Prepared.Solve does.
func (l *ladder) distributed() error {
	l.mats0, l.mats3 = make([]*distmat.Matrix, ranks), make([]*distmat.Matrix, ranks)
	if _, err := onRanks(cluster.New(ranks), func(e *distmat.Env) (err error) {
		if l.mats0[e.Pos], err = distmat.NewMatrix(e, l.blocks[e.Pos], l.part, 0, 0); err == nil {
			l.mats3[e.Pos], err = distmat.NewMatrix(e, l.blocks[e.Pos], l.part, phi, 1)
		}
		return err
	}); err != nil {
		return err
	}
	// Every rank must loop the same number of times, so the count comes from
	// the local-kernel rung, not from a clock read inside the loop.
	reps := int(l.slot.Seconds() / (l.spmv + 100e-6))
	if reps < 10 {
		reps = 10
	}
	matvec := func(mats []*distmat.Matrix) (perCall, redundancyFloats float64, err error) {
		rt := cluster.New(ranks)
		d, err := onRanks(rt, func(e *distmat.Env) error {
			m := mats[e.Pos].Fork()
			x := distmat.Vector{P: l.part, Pos: e.Pos, Local: vec.Clone(l.vs[e.Pos].p)}
			y := distmat.NewVector(l.part, e.Pos)
			for j := 0; j < reps; j++ {
				if err := m.MatVec(e, y, x, j); err != nil {
					return err
				}
			}
			return nil
		})
		return d / float64(reps), float64(rt.Counters().Floats(cluster.CatRedundancy)) / float64(reps), err
	}
	mv0, _, err := matvec(l.mats0)
	if err != nil {
		return err
	}
	mv3, redFloats, err := matvec(l.mats3)
	if err != nil {
		return err
	}
	l.ms.set("distmat.matvec_phi0_s", mv0)
	l.ms.set("distmat.matvec_phi3_s", mv3)
	l.ms.set("distmat.redundancy_floats_per_iter", redFloats)

	mmReps := reps/blockWidth + 3
	d, err := onRanks(cluster.New(ranks), func(e *distmat.Env) error {
		m := l.mats3[e.Pos].Fork()
		m.SetBlockWidth(blockWidth)
		xs, ys := make([]distmat.Vector, blockWidth), make([]distmat.Vector, blockWidth)
		for c := range xs {
			xs[c] = distmat.Vector{P: l.part, Pos: e.Pos, Local: vec.Clone(l.vs[e.Pos].p)}
			ys[c] = distmat.NewVector(l.part, e.Pos)
		}
		for j := 0; j < mmReps; j++ {
			if err := m.MatMat(e, ys, xs, j); err != nil {
				return err
			}
		}
		return nil
	})
	l.ms.set("distmat.matmat_s_per_col", d/float64(mmReps)/blockWidth)
	return err
}

// factors: localsolve's block ILU(0), precond's application of it, and the
// plain single-threaded PCG every solve_ref_s is read against.
func (l *ladder) factors() error {
	own := make([]*sparse.CSR, ranks)
	for r := range own {
		own[r] = l.mats0[r].OwnBlock()
	}
	var err error
	l.timed("localsolve.factor_s", 2, func() {
		for _, blk := range own {
			if _, ferr := localsolve.NewILU0(blk); ferr != nil {
				err = ferr
			}
		}
	})
	if err != nil {
		return err
	}
	l.ilus = make([]*precond.BlockJacobiILU, ranks)
	for r := range l.ilus {
		if l.ilus[r], err = precond.NewBlockJacobiILU(own[r]); err != nil {
			return err
		}
	}
	l.timed("precond.apply_s", 5, func() {
		for r, p := range l.ilus {
			p.ApplyInv(l.vs[r].z, l.vs[r].r)
		}
	})
	whole, err := localsolve.NewILU0(l.a)
	if err != nil {
		return err
	}
	l.ms.set("localsolve.serial_pcg_s", median(sample(l.slot, 1, 1<<30, func() float64 {
		x := make([]float64, l.a.Rows)
		var res localsolve.CGResult
		d := timeIt(func() { res = localsolve.CG(l.a, x, l.b, whole, tol, 10*l.a.Rows) })
		err := l.check.residual(l.a, x, l.b)
		if err == nil && !res.Converged {
			err = fmt.Errorf("serial PCG did not converge")
		}
		l.tally.op(err)
		return d
	})))
	return nil
}

// drivers: core's two drivers on an already-running runtime (wall over
// iterations, with the protected one's message and float volume), then
// through the public package: the paper's ratios, the reconstruction
// episode, allocation volume, and the phases esr.WithTracer sees.
func (l *ladder) drivers() error {
	driver := func(mats []*distmat.Matrix, protected bool) (iterS float64, iters int, ctr *cluster.Counters, err error) {
		const solves = 3
		perIter := make([]float64, solves)
		rt := cluster.New(ranks)
		_, err = onRanks(rt, func(e *distmat.Env) error {
			lo, hi := l.part.Range(e.Pos)
			prec := core.LocalPrecond{P: l.ilus[e.Pos]}
			for s := 0; s < solves; s++ {
				m := mats[e.Pos].Fork()
				bv := distmat.Vector{P: l.part, Pos: e.Pos, Local: vec.Clone(l.b[lo:hi])}
				x := distmat.NewVector(l.part, e.Pos)
				opts := core.Options{Tol: tol, LocalTol: localTol}
				var res core.Result
				var err error
				if protected {
					res, err = core.ESRPCG(e, m, x, bv, prec, opts, nil)
				} else {
					res, err = core.PCG(e, m, x, bv, prec, opts)
				}
				if err != nil {
					return err
				}
				if e.Pos == 0 {
					perIter[s] = res.SolveTime.Seconds() / float64(res.Iterations)
					iters = res.Iterations
				}
			}
			return nil
		})
		return median(perIter), solves * iters, rt.Counters(), err
	}
	iterS, _, _, err := driver(l.mats0, false)
	if err != nil {
		return err
	}
	protIterS, totalIters, ctr, err := driver(l.mats3, true)
	if err != nil {
		return err
	}
	l.ms.set("core.iter_s", iterS)
	l.ms.set("core.protected_iter_s", protIterS)
	l.ms.set("cluster.msgs_per_iter", float64(ctr.TotalMessages())/float64(totalIters))
	l.ms.set("cluster.floats_per_iter", float64(ctr.TotalFloats())/float64(totalIters))

	lib, err := openLibrary(l.problem)
	if err != nil {
		return fmt.Errorf("preparing sessions: %w", err)
	}
	defer lib.close()
	l.failIter = lib.failIter
	var tr triples
	lib.runTriples(&tr, 4*l.slot, 3)
	l.ms.set("core.protect_over_ref", median(tr.prot)/median(tr.ref))
	l.ms.set("core.recover_over_ref", median(tr.rec)/median(tr.ref))
	l.ms.set("core.reconstruct_s", median(tr.reconstruct))
	l.ms.set("core.recovery_subiters", float64(tr.subIters))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solves := 0.0
	repeat(l.slot, 3, 1<<30, func() {
		_, err := lib.prot.Solve(context.Background(), l.b)
		l.tally.op(err)
		solves++
	})
	runtime.ReadMemStats(&after)
	l.ms.set("core.alloc_bytes_per_solve", float64(after.TotalAlloc-before.TotalAlloc)/solves)
	l.ms.set("core.allocs_per_solve", float64(after.Mallocs-before.Mallocs)/solves)

	var phases phaseSums
	var traced, untraced []float64
	repeat(2*l.slot, 3, 1<<30, func() {
		untraced = append(untraced, lib.protected(0))
		traced = append(traced, lib.protected(0, esr.WithTracer(&phases)))
	})
	wall := phases.wall.Seconds()
	l.ms.set("core.iterations", float64(phases.iterations)/float64(len(traced)))
	l.ms.set("core.trace_spmv_share", phases.spmv.Seconds()/wall)
	l.ms.set("core.trace_precond_share", phases.precond.Seconds()/wall)
	l.ms.set("core.trace_allreduce_share", phases.allreduce.Seconds()/wall)
	l.ms.set("core.unattributed_share", 1-(phases.spmv+phases.precond+phases.allreduce).Seconds()/wall)
	l.ms.set("bench.trace_overhead_share", median(traced)/median(untraced)-1)
	return nil
}

// served: engine (preparation, the fixed cost of a prepared solve, a job
// submitted in process with no store and no HTTP), then a live esrd: its
// start, one caller's round trips on cache hits only, the serving mix for
// the cache and journal counters, and the journal's own append cost.
func (l *ladder) served() error {
	ecfg := engine.Config{Ranks: ranks, Tol: tol, LocalTol: localTol}
	pcfg := ecfg
	pcfg.Phi = phi
	var err error
	l.ms.set("engine.prepare_s", median(sample(l.slot, 2, 7, func() float64 {
		return timeIt(func() {
			p, perr := engine.Prepare(l.a, pcfg)
			if perr != nil {
				err = perr
				return
			}
			p.Close()
		})
	})))
	if err != nil {
		return err
	}
	prep, err := engine.Prepare(l.a, ecfg)
	if err != nil {
		return err
	}
	// Paired with the solve's own clock: what Prepared.Solve spends outside
	// the driver (spawn, Fork, scatter, gather). Subtracting iterations x
	// core.iter_s from another run would bury it in that rung's noise.
	fixed := sample(l.slot, 3, 1<<30, func() float64 {
		var sol engine.Solution
		var err error
		d := timeIt(func() {
			sol, err = prep.Solve(context.Background(), l.b, engine.SolveOpts{Tol: tol, LocalTol: localTol})
		})
		l.tally.op(err)
		return d - sol.Result.SolveTime.Seconds()
	})
	prep.Close()
	l.ms.set("engine.solve_fixed_s", median(fixed))

	eng := engine.New(engine.Options{Workers: runtime.NumCPU()})
	rec, err := eng.PutMatrix(l.cfg.wl.spec(l.cfg.tiny))
	if err != nil {
		eng.Close()
		return err
	}
	spec := engine.JobSpec{MatrixID: rec.ID, RHS: l.b, Config: pcfg, KeepSolution: true}
	inProcess := median(sample(2*l.slot, 3, 1<<30, func() float64 {
		var err error
		d := timeIt(func() { err = submitAndWait(eng, spec) })
		l.tally.op(err)
		return d
	}))
	eng.Close()
	l.ms.set("engine.submit_to_done_s", inProcess)

	srv, err := startServing(l.cfg.esrd, l.dir, l.cfg.wl, l.cfg.tiny, l.problem)
	if err != nil {
		return fmt.Errorf("starting esrd: %w", err)
	}
	stop := sync.OnceFunc(srv.d.stop)
	defer stop()
	l.ms.set("esrd.startup_s", srv.startup)
	var rtts []float64
	i := 0
	hitLatency := median(sample(2*l.slot, 5, 1<<30, func() float64 {
		lat, rtt, err := srv.d.run(srv.job(kindESR, i), l.check)
		i++
		l.tally.op(err)
		rtts = append(rtts, rtt)
		return lat
	}))
	l.ms.set("esrd.submit_rtt_s", median(rtts))
	h0, err := srv.health()
	if err != nil {
		return err
	}
	var ld load
	srv.closedLoop(&ld, 1, 3*l.slot, 2*len(mixBlock))
	h1, err := srv.health()
	if err != nil {
		return err
	}
	jobs := float64(len(ld.latency))
	hits, misses := float64(h1.PrepCache.Hits-h0.PrepCache.Hits), float64(h1.PrepCache.Misses-h0.PrepCache.Misses)
	l.ms.set("engine.prep_cache_hit_share", hits/(hits+misses))
	l.ms.set("store.journal_bytes_per_job", (h1.Store["bytes"]-h0.Store["bytes"])/jobs)
	recordsPerJob := (h1.Store["journal_records_total"] - h0.Store["journal_records_total"]) / jobs
	stop()
	// The daemon's own journal, replayed record by record into a fresh store:
	// the real payloads, no fsync, as the daemon ran.
	appendS, err := replayJournal(filepath.Join(l.dir, "data"), filepath.Join(l.dir, "replay"))
	if err != nil {
		return err
	}
	l.ms.set("store.append_s", appendS)
	l.ms.set("esrd.http_overhead_s", hitLatency-inProcess-recordsPerJob*appendS)
	return nil
}

// submitAndWait submits one job to an in-process engine and follows its
// event stream to the terminal state.
func submitAndWait(eng *engine.Engine, spec engine.JobSpec) error {
	id, err := eng.Submit(spec)
	if err != nil {
		return err
	}
	events, stop, err := eng.Watch(id, 0)
	if err != nil {
		return err
	}
	for range events {
	}
	stop()
	st, err := eng.Get(id)
	if err == nil && st.State != engine.StateDone {
		err = fmt.Errorf("in-process job ended %q: %s", st.State, st.Error)
	}
	return err
}

// onRanks runs fn as an SPMD program on the runtime's eight ranks and returns
// the seconds rank 0 spent in it between two barriers.
func onRanks(rt *cluster.Runtime, fn func(*distmat.Env) error) (float64, error) {
	var elapsed float64
	err := rt.Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		if err := e.Grp.Barrier(); err != nil {
			return err
		}
		start := time.Now()
		if err := fn(e); err != nil {
			rt.Abort(err)
			return err
		}
		if err := e.Grp.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			elapsed = time.Since(start).Seconds()
		}
		return nil
	})
	return elapsed, err
}

// phaseSums is the esr.Tracer of the traced pass: it adds up rank 0's phase
// clocks and the iteration wall time, the distance between two callbacks.
// The first iteration of a solve has no predecessor and is left out of both.
type phaseSums struct {
	spmv, precond, allreduce, wall time.Duration
	iterations                     int
	last                           time.Time
}

func (p *phaseSums) TraceIteration(it esr.IterationTrace) {
	now := time.Now()
	if it.Iteration > 1 {
		p.spmv += it.SpMV
		p.precond += it.Precond
		p.allreduce += it.Allreduce
		p.wall += now.Sub(p.last)
	}
	p.last = now
	p.iterations++
}

func (p *phaseSums) TraceRecovery(esr.RecoveryTrace) {}

// replayJournal appends every record of the journal under from to a fresh
// store under to and returns the mean seconds per Append.
func replayJournal(from, to string) (float64, error) {
	src, err := store.Open(store.Options{Dir: from})
	if err != nil {
		return 0, err
	}
	recs := src.Records()
	if err := src.Close(); err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("the daemon's journal under %s is empty", from)
	}
	dst, err := store.Open(store.Options{Dir: to})
	if err != nil {
		return 0, err
	}
	var appendErr error
	d := timeIt(func() {
		for _, rec := range recs {
			if appendErr = dst.Append(rec); appendErr != nil {
				return
			}
		}
	})
	if err := dst.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	return d / float64(len(recs)), appendErr
}
