// Package bicgstab implements a resilient right-preconditioned BiCGSTAB
// solver with ESR-style exact state reconstruction: the extension the paper
// claims in Sec. 1 ("our proposed algorithmic modifications can also be
// applied to ... preconditioned bi-conjugate gradient stabilized (BiCGSTAB)")
// without giving details. The derivation (DESIGN.md Sec. 6):
//
// BiCGSTAB performs two SpMVs per iteration, on ph = M^{-1} p and
// sh = M^{-1} s. Keeping the two most recent SpMV-input generations
// (ph^(j), sh^(j-1)) in the retention store — exactly the paper's
// "two most recent search directions" budget — suffices for exact
// reconstruction at the poll point after the first SpMV of iteration j:
//
//	ph_If   <- redundant copies (generation 2j)
//	p_If    =  M ph_If                         (block-local)
//	sh_If   <- redundant copies (generation 2j-1)
//	s_If    =  M sh_If                         (block-local)
//	r_If    =  s_If - omega_{j-1} (A sh)_If    (ghost product with survivors)
//	x_If    :  A_{If,If} x_If = b_If - r_If - A_{If,I\If} x_{I\If}
//	v       =  A ph re-done after recovery.
//
// The shadow residual rhat0 and the initial guess x0 are constant during
// the solve and treated as static data (replicated at setup), matching the
// paper's assumption that problem-defining static data is retrievable.
package bicgstab

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/precond"
	"repro/internal/vec"
)

// Recovery phases (mirrors core's numbering so faults.Overlapping specs
// carry over).
const (
	phaseScalars  = 1
	phaseGather   = 2
	phaseR        = 3
	phaseXSystem  = 4
	phaseFinalize = 5
	numPhases     = 5
)

// Message tags (distinct from core's recovery tags).
const (
	tagScalar         = 3<<20 + 30
	tagSHGhost        = 3<<20 + 31
	tagXGhost         = 3<<20 + 32
	tagFailedExchange = 3<<20 + 33
)

const ctxSubA = 11

// Solve runs the resilient preconditioned BiCGSTAB on A x = b with a
// node-local block preconditioner m (may be nil for the unpreconditioned
// method). The failure schedule semantics match core.ESRPCG; phi is taken
// from the matrix's redundancy protocol.
func Solve(e *distmat.Env, a *distmat.Matrix, x, b distmat.Vector, m precond.Preconditioner, opts core.Options, sched *faults.Schedule) (core.Result, error) {
	if m == nil {
		m = precond.Identity{}
	}
	if err := sched.Validate(e.Size()); err != nil {
		return core.Result{}, err
	}
	if !sched.Empty() && a.Ret == nil {
		return core.Result{}, fmt.Errorf("bicgstab: resilience-enabled matrix (phi >= 1) required for a failure schedule")
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 10 * a.P.N()
		if opts.MaxIter < 100 {
			opts.MaxIter = 100
		}
	}
	if opts.LocalTol <= 0 {
		opts.LocalTol = 1e-14
	}
	start := time.Now()

	st := &state{
		e: e, a: a, m: m, b: b, opts: opts, sched: sched,
		x:  x,
		r:  distmat.NewVector(a.P, e.Pos),
		p:  distmat.NewVector(a.P, e.Pos),
		v:  distmat.NewVector(a.P, e.Pos),
		s:  distmat.NewVector(a.P, e.Pos),
		sh: distmat.NewVector(a.P, e.Pos),
		ph: distmat.NewVector(a.P, e.Pos),
		t:  distmat.NewVector(a.P, e.Pos),
	}

	// r(0) = b - A x(0); rhat = r(0). rhat and x0 are replicated as static
	// data (see package doc).
	if err := a.Residual(e, st.r, b, x, -1); err != nil {
		return core.Result{}, err
	}
	var err error
	st.rhatFull, err = distmat.Gather(e, st.r)
	if err != nil {
		return core.Result{}, err
	}
	st.x0Full, err = distmat.Gather(e, x)
	if err != nil {
		return core.Result{}, err
	}
	r0n, err := distmat.Norm2(e, st.r)
	if err != nil {
		return core.Result{}, err
	}
	st.r0 = r0n
	res := core.Result{InitialResidual: r0n, FinalResidual: r0n}
	if r0n == 0 {
		res.Converged = true
		res.SolveTime = time.Since(start)
		return res, nil
	}
	st.alpha, st.omega = 1, 1
	rhoOld := 1.0

	lo, _ := a.P.Range(e.Pos)
	rhatLocal := st.rhatFull[lo : lo+len(st.r.Local)]

	for j := 0; j < opts.MaxIter; j++ {
		rho, err := e.Grp.AllreduceScalar(cluster.OpSum, vec.Dot(rhatLocal, st.r.Local))
		if err != nil {
			return res, err
		}
		if rho == 0 {
			return res, fmt.Errorf("bicgstab: breakdown, (rhat, r) = 0 at iteration %d", j)
		}
		if j == 0 {
			vec.Copy(st.p.Local, st.r.Local)
		} else {
			beta := (rho / rhoOld) * (st.alpha / st.omega)
			// p = r + beta (p - omega v)
			vec.Axpy(-st.omega, st.v.Local, st.p.Local)
			vec.Axpby(1, st.r.Local, beta, st.p.Local)
		}
		st.rho = rho
		m.ApplyInv(st.ph.Local, st.p.Local)
		// SpMV #1: distributes redundancy generation 2j.
		if err := a.MatVec(e, st.v, st.ph, 2*j); err != nil {
			return res, err
		}
		// Poll point (paper semantics: right after the copies exist).
		if victims := sched.AtIteration(j); len(victims) > 0 {
			rec, err := st.recover(j, victims)
			if err != nil {
				return res, err
			}
			res.Reconstructions = append(res.Reconstructions, rec)
			res.ReconstructTime += rec.Duration
			if err := a.MatVec(e, st.v, st.ph, 2*j); err != nil { // redo SpMV #1
				return res, err
			}
			rho, err = e.Grp.AllreduceScalar(cluster.OpSum, vec.Dot(rhatLocal, st.r.Local))
			if err != nil {
				return res, err
			}
			st.rho = rho
		}
		rv, err := e.Grp.AllreduceScalar(cluster.OpSum, vec.Dot(rhatLocal, st.v.Local))
		if err != nil {
			return res, err
		}
		if rv == 0 {
			return res, fmt.Errorf("bicgstab: breakdown, (rhat, v) = 0 at iteration %d", j)
		}
		st.alpha = st.rho / rv
		vec.XpayInto(st.s.Local, st.r.Local, -st.alpha, st.v.Local) // s = r - alpha v
		m.ApplyInv(st.sh.Local, st.s.Local)
		// SpMV #2: distributes redundancy generation 2j+1.
		if err := a.MatVec(e, st.t, st.sh, 2*j+1); err != nil {
			return res, err
		}
		tsAndTT, err := e.Grp.Allreduce(cluster.OpSum, []float64{
			vec.Dot(st.t.Local, st.s.Local), vec.Nrm2Sq(st.t.Local),
		})
		if err != nil {
			return res, err
		}
		if tsAndTT[1] == 0 {
			// t = 0: s is already the residual; accept the half step.
			vec.Axpy(st.alpha, st.ph.Local, x.Local)
			vec.Copy(st.r.Local, st.s.Local)
			res.Iterations = j + 1
			rn, err := distmat.Norm2(e, st.r)
			if err != nil {
				return res, err
			}
			res.FinalResidual = rn
			res.Converged = rn <= opts.Tol*st.r0
			break
		}
		st.omega = tsAndTT[0] / tsAndTT[1]
		// x += alpha ph + omega sh; r = s - omega t.
		vec.Axpy(st.alpha, st.ph.Local, x.Local)
		vec.Axpy(st.omega, st.sh.Local, x.Local)
		vec.XpayInto(st.r.Local, st.s.Local, -st.omega, st.t.Local)
		rhoOld = st.rho

		rn, err := distmat.Norm2(e, st.r)
		if err != nil {
			return res, err
		}
		res.Iterations = j + 1
		res.FinalResidual = rn
		if rn <= opts.Tol*st.r0 {
			res.Converged = true
			break
		}
		if st.omega == 0 {
			return res, fmt.Errorf("bicgstab: breakdown, omega = 0 at iteration %d", j)
		}
	}

	res.WorkIterations = res.Iterations
	// True residual and deviation metric (Eqn. 7).
	tr := distmat.NewVector(a.P, e.Pos)
	if err := a.Residual(e, tr, b, x, -1); err != nil {
		return res, err
	}
	tn, err := distmat.Norm2(e, tr)
	if err != nil {
		return res, err
	}
	res.TrueResidual = tn
	if tn > 0 {
		res.Delta = (res.FinalResidual - tn) / tn
	}
	res.SolveTime = time.Since(start)
	return res, nil
}

// state is the cross-iteration solver state.
type state struct {
	e     *distmat.Env
	a     *distmat.Matrix
	m     precond.Preconditioner
	b     distmat.Vector
	opts  core.Options
	sched *faults.Schedule

	x, r, p, v, s, sh, ph, t distmat.Vector
	rhatFull, x0Full         []float64
	r0, rho, alpha, omega    float64
}

func (st *state) wipe() {
	nan := math.NaN()
	for _, v := range []distmat.Vector{st.x, st.r, st.p, st.v, st.s, st.sh, st.ph, st.t} {
		vec.Fill(v.Local, nan)
	}
	st.r0, st.rho, st.alpha, st.omega = nan, nan, nan, nan
	if st.a.Ret != nil {
		st.a.Ret.Wipe()
	}
	// rhatFull and x0Full are static data: re-read, not wiped.
}

// recover reconstructs the BiCGSTAB state at the poll point of iteration j
// (after the first SpMV), with overlapping-failure restarts.
func (st *state) recover(j int, victims []int) (core.Reconstruction, error) {
	startT := time.Now()
	rec := core.Reconstruction{Iteration: j}
	failed := map[int]bool{}
	wipeNew := func(ranks []int) {
		for _, f := range ranks {
			if !failed[f] {
				failed[f] = true
				if f == st.e.Pos {
					st.wipe()
				}
			}
		}
	}
	wipeNew(victims)

restart:
	failedList := sortedKeys(failed)
	rec.FailedRanks = failedList
	amFailed := failed[st.e.Pos]
	subIters := 0
	for phase := 1; phase <= numPhases; phase++ {
		if more := st.sched.AtRecoveryPhase(j, phase); len(more) > 0 {
			fresh := false
			for _, f := range more {
				if !failed[f] {
					fresh = true
				}
			}
			if fresh {
				wipeNew(more)
				rec.Restarts++
				goto restart
			}
		}
		switch phase {
		case phaseScalars:
			s0 := lowestSurvivor(failed, st.e.Size())
			if st.e.Pos == s0 {
				for _, f := range failedList {
					payload := []float64{st.alpha, st.omega, st.r0, st.rho}
					if err := st.e.C.Send(cluster.CatRecovery, f, tagScalar, payload, nil); err != nil {
						return rec, err
					}
				}
			}
			if amFailed {
				vals, err := st.e.C.RecvFloats(s0, tagScalar)
				if err != nil {
					return rec, err
				}
				st.alpha, st.omega, st.r0, st.rho = vals[0], vals[1], vals[2], vals[3]
			}
		case phaseGather:
			// ph^(j) (gen 2j) and sh^(j-1) (gen 2j-1).
			gens := []int{2 * j}
			out := [][]float64{st.ph.Local}
			if j > 0 {
				gens = append(gens, 2*j-1)
				out = append(out, st.sh.Local)
			}
			if err := core.RecoverBlocks(st.e, st.a, j, failed, failedList, gens, out); err != nil {
				return rec, err
			}
			if amFailed {
				st.m.ApplyM(st.p.Local, st.ph.Local) // p_If = M ph_If
			}
		case phaseR:
			if j == 0 {
				// r(0) is rebuilt together with x0 in phaseXSystem.
				continue
			}
			// r_If = M sh_If - omega_{j-1} (A sh^(j-1))_If. The product
			// A_{If,:} sh needs sh at all columns: survivors provide their
			// entries, replacements exchange their reconstructed blocks
			// among each other, and the own-block part is local.
			ghosts, err := core.GatherGhost(st.e, st.a, [][]float64{st.sh.Local}, failed, failedList, tagSHGhost)
			if err != nil {
				return rec, err
			}
			if amFailed {
				ghost := ghosts[0]
				if err := exchangeAmongFailed(st.e, st.a, st.sh.Local, failed, failedList, ghost); err != nil {
					return rec, err
				}
				sIf := make([]float64, len(st.s.Local))
				st.m.ApplyM(sIf, st.sh.Local) // s^(j-1)_If
				copy(st.s.Local, sIf)
				ash := make([]float64, len(st.r.Local))
				st.a.GhostProduct(ash, ghost) // external columns
				// own-block contribution of A_{If,:} sh.
				ownProduct(st.a, st.sh.Local, ash)
				vec.XpayInto(st.r.Local, sIf, -st.omega, ash)
			}
		case phaseXSystem:
			if j == 0 {
				// x_If = x0_If (static); r_If = b_If - (A x0)_If.
				if amFailed {
					lo, _ := st.a.P.Range(st.e.Pos)
					copy(st.x.Local, st.x0Full[lo:lo+len(st.x.Local)])
					ax := make([]float64, len(st.r.Local))
					st.a.MatVecLocal(ax, st.x0Full)
					vec.Sub(st.r.Local, st.b.Local, ax)
				}
				continue
			}
			ghosts, err := core.GatherGhost(st.e, st.a, [][]float64{st.x.Local}, failed, failedList, tagXGhost)
			if err != nil {
				return rec, err
			}
			if amFailed {
				w := append([]float64(nil), st.b.Local...)
				vec.Axpy(-1, st.r.Local, w)
				neg := make([]float64, len(w))
				st.a.GhostProduct(neg, ghosts[0])
				vec.Axpy(-1, neg, w)
				iters, err := core.SubsystemSolve(st.e, st.a, failedList, [][]float64{w}, [][]float64{st.x.Local}, ctxSubA,
					st.opts.LocalTol, st.opts.LocalMaxIter)
				if err != nil {
					return rec, err
				}
				subIters += iters[0]
			}
		case phaseFinalize:
			iters, err := st.e.Grp.AllreduceScalar(cluster.OpMax, float64(subIters))
			if err != nil {
				return rec, err
			}
			subIters = int(iters)
		}
	}
	rec.SubIterations = subIters
	rec.Duration = time.Since(startT)
	return rec, nil
}

// exchangeAmongFailed lets the replacements exchange the halo entries of a
// freshly reconstructed vector block among each other (needed when failed
// blocks couple in A). Only failed ranks call it; entries land in ghost.
func exchangeAmongFailed(e *distmat.Env, a *distmat.Matrix, local []float64, failed map[int]bool, failedList []int, ghost map[int]float64) error {
	me := e.Pos
	lo, _ := a.P.Range(me)
	const tag = tagFailedExchange
	for _, fb := range failedList {
		if fb == me {
			continue
		}
		idx := a.Plan.SendTo[fb]
		if len(idx) == 0 {
			continue
		}
		vals := make([]float64, len(idx))
		for t, g := range idx {
			vals[t] = local[g-lo]
		}
		if err := e.C.SendFloats(cluster.CatRecovery, fb, tag, vals); err != nil {
			return err
		}
	}
	for _, fa := range failedList {
		if fa == me {
			continue
		}
		idx := a.Plan.RecvFrom[fa]
		if len(idx) == 0 {
			continue
		}
		vals, err := e.C.RecvFloats(fa, tag)
		if err != nil {
			return err
		}
		for t, g := range idx {
			ghost[g] = vals[t]
		}
	}
	return nil
}

// ownProduct adds the own-block part of A_{If,:} v to y: entries whose
// column lies in the caller's block.
func ownProduct(a *distmat.Matrix, local []float64, y []float64) {
	lo, hi := a.P.Range(a.Pos)
	for i := 0; i < a.Rows.Rows; i++ {
		cols, vals := a.Rows.Row(i)
		var s float64
		for t, c := range cols {
			if c >= lo && c < hi {
				s += vals[t] * local[c-lo]
			}
		}
		y[i] += s
	}
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func lowestSurvivor(failed map[int]bool, size int) int {
	for r := 0; r < size; r++ {
		if !failed[r] {
			return r
		}
	}
	return -1
}
