package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/precond"
	"repro/internal/vec"
)

// SPCG runs the resilient split-preconditioner conjugate gradient method
// (Saad Alg. 9.2) with a block-local split preconditioner M_i = L_i L_i^T
// (e.g. IC(0), precond.NewIC0Split). This is the paper's SPCG variant
// ([23, Alg. 5]): the solver iterates on the transformed residual
// rhat = L^{-1} r and the ESR reconstruction recovers
//
//	rhat_If = L^T (p(j) - beta(j-1) p(j-1))   (block-local),
//	r_If    = L rhat_If                        (block-local),
//
// followed by the same A_{If,If} x_If = w subsystem solve as PCG.
//
// The stopping criterion is on the true residual norm ||r|| = ||L rhat||,
// recomputed block-locally each iteration, so results are comparable with
// PCG's.
//
// SPCG keeps its own recurrence loop (different state: rhat and the split
// factors) but none of the resilience protocol: it runs on a one-column
// SolverState — R holds rhat, RZ the scalar rho = rhat'rhat, Z is the
// block-local scratch vector — so the wipe, the failure poll and the ESR
// episode are the PCG driver's, to which it supplies only its rebuild step.
func SPCG(e *distmat.Env, a *distmat.Matrix, x, b distmat.Vector, m precond.Split, opts Options, sched *faults.Schedule) (Result, error) {
	if m == nil {
		return Result{}, fmt.Errorf("core: SPCG needs a split preconditioner")
	}
	opts = opts.withDefaults(a.P.N())
	if opts.Resume != nil {
		return Result{}, errResume("SPCG")
	}
	if err := sched.Validate(e.Size()); err != nil {
		return Result{}, err
	}
	if !sched.Empty() && a.Ret == nil {
		return Result{}, fmt.Errorf("core: SPCG needs a resilience-enabled matrix (phi >= 1) to honour a failure schedule")
	}
	start := time.Now()

	st := newSolverState(e, a, nil, []distmat.Vector{x}, []distmat.Vector{b}, opts, sched)
	rhat, p, u, scratch := st.R[0], st.P[0], st.U[0], st.Z[0]
	// The replicated scalars live on the state: a wipe poisons them and the
	// episode restores beta and ||r0||.
	r0, rho, beta := &st.R0[0], &st.RZ[0], &st.Beta[0]
	res := &st.res[0]

	// rebuild is SPCG's phase 3: Z holds zhat = p(j) - beta p(j-1) =
	// L^{-T} rhat(j), so block-local transforms recover rhat and r.
	rebuild := func(ep *episode) ([][]float64, error) {
		if !ep.amFailed {
			return nil, nil
		}
		m.MulLT(rhat.Local, scratch.Local)
		r := make([]float64, len(rhat.Local))
		m.MulL(r, rhat.Local) // r_If = L rhat_If
		return [][]float64{r}, nil
	}

	// r(0) = b - A x(0); rhat(0) = L^{-1} r(0); p(0) = L^{-T} rhat(0).
	if err := a.Residual(e, scratch, b, x, -1); err != nil {
		return Result{}, err
	}
	m.SolveL(rhat.Local, scratch.Local)
	m.SolveLT(p.Local, rhat.Local)
	norms, err := e.Grp.Allreduce(cluster.OpSum, []float64{
		vec.ParNrm2SqN(scratch.Local, opts.Threads), vec.ParNrm2SqN(rhat.Local, opts.Threads)})
	if err != nil {
		return Result{}, err
	}
	*r0 = math.Sqrt(norms[0])
	*rho = norms[1]
	e.Grp.Recycle(norms)
	*beta = 0
	*res = Result{InitialResidual: *r0, FinalResidual: *r0}
	if *r0 == 0 {
		res.Converged = true
		res.SolveTime = time.Since(start)
		return *res, nil
	}

	lastFired := -1
	for j := 0; j < opts.MaxIter; j++ {
		if err := opts.poll(); err != nil {
			return *res, err
		}
		if err := a.MatVec(e, u, p, j); err != nil {
			return *res, err
		}
		if victims := opts.pollFailStop(sched, &lastFired, j); len(victims) > 0 {
			rec, err := st.recoverEpisode(j, victims, rebuild)
			if err != nil {
				return *res, err
			}
			res.Reconstructions = append(res.Reconstructions, rec)
			res.ReconstructTime += rec.Duration
			opts.reportEpisode(StrategyESR, j, -1, rec, res.FinalResidual, relTo(res.FinalResidual, *r0))
			if err := a.MatVec(e, u, p, j); err != nil {
				return *res, err
			}
			*rho, err = e.Grp.AllreduceScalar(cluster.OpSum, vec.ParNrm2SqN(rhat.Local, opts.Threads))
			if err != nil {
				return *res, err
			}
		}
		pu, err := distmat.DotN(e, p, u, opts.Threads)
		if err != nil {
			return *res, err
		}
		// Negated comparison so NaN also trips the breakdown (see step).
		if !(pu > 0) {
			return *res, fmt.Errorf("core: SPCG breakdown, p'Ap = %g at iteration %d", pu, j)
		}
		alpha := *rho / pu
		vec.Axpy(alpha, p.Local, x.Local)
		m.SolveL(scratch.Local, u.Local) // L^{-1} A p, block-local
		vec.Axpy(-alpha, scratch.Local, rhat.Local)
		// True residual norm: r = L rhat block-locally.
		m.MulL(scratch.Local, rhat.Local)
		norms, err := e.Grp.Allreduce(cluster.OpSum, []float64{
			vec.ParNrm2SqN(scratch.Local, opts.Threads), vec.ParNrm2SqN(rhat.Local, opts.Threads)})
		if err != nil {
			return *res, err
		}
		rn := math.Sqrt(norms[0])
		rhoNew := norms[1]
		e.Grp.Recycle(norms)
		res.Iterations = j + 1
		res.FinalResidual = rn
		if math.IsNaN(rn) || math.IsInf(rn, 0) {
			return *res, fmt.Errorf("core: SPCG diverged, ||r|| = %g at iteration %d", rn, j)
		}
		opts.notify(ProgressEvent{Iteration: j + 1, Residual: rn, RelResidual: relTo(rn, *r0)})
		if rn <= opts.Tol**r0 {
			res.Converged = true
			break
		}
		*beta = rhoNew / *rho
		*rho = rhoNew
		m.SolveLT(scratch.Local, rhat.Local)
		vec.Axpby(1, scratch.Local, *beta, p.Local) // p = L^{-T} rhat + beta p
	}

	res.WorkIterations = res.Iterations
	if err := st.verify(); err != nil {
		return *res, err
	}
	res.SolveTime = time.Since(start)
	return *res, nil
}
