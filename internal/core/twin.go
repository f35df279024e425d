package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/vec"
	"repro/internal/xerr"
)

// sdcDriftTol is the relative tolerance of the true-residual consistency
// check: the recurrence residual ||r|| and the recomputed ||b - A x|| must
// agree to within sdcDriftTol * max(||r0||, ||b - A x||). Benign floating-
// point drift between the two is orders of magnitude below this; a bit flip
// that matters is orders of magnitude above it (a flip whose effect stays
// under the threshold is also below the solve's accuracy target).
const sdcDriftTol = 1e-7

// SDCDetectedError reports that the silent-data-corruption check found the
// recurrence residual inconsistent with the true residual ||b - A x||: some
// solver state was corrupted, and the active strategy cannot repair it. The
// solve is failed instead of converging to a silently wrong answer.
type SDCDetectedError struct {
	// Iteration is the solver iteration of the failed check.
	Iteration int
	// TrueResidual is the recomputed ||b - A x||; RecurrenceResidual is the
	// solver's ||r|| at the check.
	TrueResidual, RecurrenceResidual float64
}

// Error implements the error interface.
func (e *SDCDetectedError) Error() string {
	return fmt.Sprintf("core: silent data corruption detected at iteration %d: true residual %g vs recurrence residual %g",
		e.Iteration, e.TrueResidual, e.RecurrenceResidual)
}

// Is claims the data_loss error class.
func (e *SDCDetectedError) Is(target error) bool { return target == xerr.DataLoss }

// checksum64 is a cheap FNV-1a-style digest over the float bit patterns: the
// twins exchange this one word per vector, and only a mismatch triggers the
// full-state comparison. One multiply per element; collisions are verified
// away by the full compare that follows any mismatch.
func checksum64(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return h
}

// SDCOutcome reports one twin poll to the driver.
type SDCOutcome struct {
	// Detected[c] counts column c's diverged (vector, rank) pairs, every one
	// of them repaired by forward recovery; nil when no column diverged.
	Detected []int
	// Ranks lists the diverged ranks (the RecoveryTrace FailedRanks).
	Ranks []int
	// Redo directs the driver to redo the SpMV of the poll iteration and
	// recompute r'z: the repair rebuilt state non-bitwise (drift repair or
	// an unresolvable u-test), so u must be refreshed from the repaired p.
	Redo bool
}

// sdcPoller is the optional Strategy extension the driver probes at the
// corruption poll point. The twin strategy implements it; strategies without
// it fall back to the detection-only SDCCheck path.
type sdcPoller interface {
	// PollSDC compares the twins of every running column at iteration j's
	// poll point, votes on the healthy replica and copies it forward.
	// Collective: every rank calls it at the same poll points.
	PollSDC(st *SolverState, j int) (SDCOutcome, error)
	// RepairDrift forward-recovers the given columns from detected residual
	// drift: their recurrences restart from the current iterate (r from x
	// and b, z from r, p = z), with no rollback. Collective.
	RepairDrift(st *SolverState, j int, cols []int) error
}

// twinStrategy is the TwinCG-style scheme: shadow replica + checksum
// exchange + forward recovery for corruption, ESR delegation for fail-stop.
// The shadow is the rank's snapshot slot, refreshed at the top of every
// interval-th iteration and compared (checksum first, full state only on
// mismatch) against the primary at the same iteration's poll point — the
// window in between mutates only u, so any divergence is corruption, not
// computation. The replicated scalars are saved too but are not a
// corruption target.
type twinStrategy struct {
	interval int
}

// NewTwinStrategy returns the twin-replica strategy (TwinCG,
// arXiv:1605.04580, adapted to the ESR driver): every `interval` iterations
// the driver snapshots a shadow replica of the solver state and compares a
// cheap checksum against it at the same iteration's poll point. Divergence
// flags corruption; a scalar-residual vote (|| b - A x|| consistency for
// x/r, an A p == u test for p, recomputation for z) picks the healthy twin,
// whose state is copied forward — forward recovery, no rollback. With the
// default interval of 1 a scheduled bit flip is repaired bitwise at its own
// poll point, so the solve stays bit-identical to the fault-free run.
// Fail-stop failures delegate to the ESR reconstruction, so one schedule may
// mix kills with bit flips.
func NewTwinStrategy(interval int) Strategy {
	if interval <= 0 {
		interval = DefaultTwinInterval
	}
	return &twinStrategy{interval: interval}
}

func (t *twinStrategy) Name() string { return StrategyTwin }

func (t *twinStrategy) Init(st *SolverState) error {
	if st.Sched.HasFailStop() && st.A.Ret == nil {
		return fmt.Errorf("core: twin fail-stop recovery delegates to ESR and needs a resilience-enabled matrix (phi >= 1) to honour a failure schedule")
	}
	return nil
}

// Overhead refreshes the shadow at the top of every interval-th iteration,
// after settling a pending episode, since it reads x. Nothing has mutated the
// compared state since the previous iteration's updates, so the snapshot is
// the exact pre-poll-point state of iteration j.
func (t *twinStrategy) Overhead(st *SolverState, j int) error {
	if j%t.interval != 0 {
		return nil
	}
	if err := st.settle(); err != nil {
		return err
	}
	st.save(j)
	return nil
}

// Recover handles fail-stop victims by delegating to the ESR reconstruction.
// The shadow needs no re-arming: the next compare follows the next refresh.
func (t *twinStrategy) Recover(st *SolverState, j int, victims []int) (int, Reconstruction, error) {
	return esrStrategy{}.Recover(st, j, victims)
}

// PollSDC implements sdcPoller: the twins compare checksums; on divergence a
// vote picks the healthy replica per column and vector and copies it forward.
func (t *twinStrategy) PollSDC(st *SolverState, j int) (SDCOutcome, error) {
	var out SDCOutcome
	if j%t.interval != 0 {
		return out, nil
	}
	sn, e := st.snap, st.E
	k, size := st.k(), e.Size()

	// Cheap checksum exchange: one word per column and vector. The divergence
	// flags are shared collectively, so every rank takes the same vote
	// branches.
	flags := make([]float64, 4*k+size)
	for c := 0; c < k; c++ {
		if st.done[c] {
			continue
		}
		for i, pair := range [4][2][]float64{
			{st.X[c].Local, sn.x[c]}, {st.R[c].Local, sn.r[c]}, {st.Z[c].Local, sn.z[c]}, {st.P[c].Local, sn.p[c]},
		} {
			if checksum64(pair[0]) != checksum64(pair[1]) {
				flags[4*c+i] = 1
				flags[4*k+e.Pos] = 1
			}
		}
	}
	global, err := e.Grp.Allreduce(cluster.OpSum, flags)
	if err != nil {
		return out, err
	}
	if !slices.ContainsFunc(global, func(v float64) bool { return v > 0 }) {
		e.Grp.Recycle(global)
		return out, nil
	}
	counts := make([]int, 4*k) // diverged ranks per (column, vector)
	for i := range counts {
		counts[i] = int(global[i])
	}
	for r := 0; r < size; r++ {
		if global[4*k+r] > 0 {
			out.Ranks = append(out.Ranks, r)
		}
	}
	e.Grp.Recycle(global)
	out.Detected = make([]int, k)
	for c := 0; c < k; c++ {
		cx, cr, cz, cp := counts[4*c], counts[4*c+1], counts[4*c+2], counts[4*c+3]
		if cx+cr+cz+cp == 0 {
			continue
		}
		out.Detected[c] = cx + cr + cz + cp
		redo, err := t.vote(st, c, cx+cr > 0, cz > 0, cp > 0)
		if err != nil {
			return out, err
		}
		out.Redo = out.Redo || redo
	}
	return out, nil
}

// vote settles column c's diverged vectors — xr: x or r, z, p — by copying
// the healthy twin forward, and reports whether u must be redone.
// Collective.
func (t *twinStrategy) vote(st *SolverState, c int, xr, z, p bool) (redo bool, err error) {
	sn, e := st.snap, st.E
	// The vote's work vectors: candidate residuals, u-tests, recomputed z.
	scratch, cand := distmat.NewVector(st.A.P, e.Pos), distmat.NewVector(st.A.P, e.Pos)
	// Scalar-residual vote for x/r: score each twin's (x, r) candidate by
	// the consistency |  ||b - A x|| - ||r||  | and copy the winner forward.
	// Ties favour the shadow — the replica the injection never touches.
	if xr {
		if err := st.A.Residual(e, scratch, st.B[c], st.X[c], -1); err != nil {
			return false, err
		}
		tp := vec.Nrm2Sq(scratch.Local)
		rp := st.rec.rnorm2(st, st.R[c].Local, scratch.Local)
		copy(cand.Local, sn.x[c])
		if err := st.A.Residual(e, scratch, st.B[c], cand, -1); err != nil {
			return false, err
		}
		ts := vec.Nrm2Sq(scratch.Local)
		rs := st.rec.rnorm2(st, sn.r[c], scratch.Local)
		norms, err := e.Grp.Allreduce(cluster.OpSum, []float64{tp, rp, ts, rs})
		if err != nil {
			return false, err
		}
		scoreP := math.Abs(math.Sqrt(norms[0]) - math.Sqrt(norms[1]))
		scoreS := math.Abs(math.Sqrt(norms[2]) - math.Sqrt(norms[3]))
		e.Grp.Recycle(norms)
		if !(scoreP < scoreS) {
			// Shadow wins (NaN scores land here too): copy it forward.
			copy(st.X[c].Local, sn.x[c])
			copy(st.R[c].Local, sn.r[c])
		} else {
			copy(sn.x[c], st.X[c].Local)
			copy(sn.r[c], st.R[c].Local)
		}
	}

	// z is a pure function of the (now settled) r: recompute it. The result
	// is bitwise the fault-free z, because z was computed from this same r at
	// the end of the previous iteration.
	if z {
		if err := st.rec.z(st, []distmat.Vector{scratch}, st.R[c:c+1]); err != nil {
			return false, err
		}
		copy(st.Z[c].Local, scratch.Local)
		copy(sn.z[c], st.Z[c].Local)
	}

	// u-test vote for p: u = A p was computed from the clean p this very
	// iteration, before the injection point, so the healthy candidate is the
	// one with A p == u bitwise.
	if p {
		okPrimary, err := t.uTest(st, c, st.P[c], scratch)
		if err != nil {
			return false, err
		}
		if okPrimary {
			copy(sn.p[c], st.P[c].Local)
		} else {
			copy(cand.Local, sn.p[c])
			okShadow, err := t.uTest(st, c, cand, scratch)
			if err != nil {
				return false, err
			}
			// The shadow is authoritative either way (the injection never
			// touches it); if even the shadow fails the u-test, u itself is
			// corrupted (e.g. a corrupted halo wire) and must be redone from
			// the restored p.
			copy(st.P[c].Local, sn.p[c])
			redo = !okShadow
		}
	}
	return redo, nil
}

// uTest computes A·p into scratch and reports whether it matches column c's
// stored u bitwise on every rank. Collective.
func (t *twinStrategy) uTest(st *SolverState, c int, p, scratch distmat.Vector) (bool, error) {
	if err := st.A.MatVec(st.E, scratch, p, -1); err != nil {
		return false, err
	}
	ok := 1.0
	for i, v := range scratch.Local {
		if math.Float64bits(v) != math.Float64bits(st.U[c].Local[i]) {
			ok = 0
			break
		}
	}
	allOK, err := st.E.Grp.AllreduceScalar(cluster.OpMin, ok)
	if err != nil {
		return false, err
	}
	return allOK == 1, nil
}

// RepairDrift implements sdcPoller's forward recovery from residual drift
// (corruption that slipped past the checksum window, e.g. between twin
// exchanges or on a corrupted wire): the columns' recurrences restart from
// the current iterate — iteration 0 of a solve with x as the initial guess —
// with no rollback; ||r0|| (and with it the convergence target) is
// preserved.
func (t *twinStrategy) RepairDrift(st *SolverState, j int, cols []int) error {
	r0 := slices.Clone(st.R0)
	if err := initIteration0(st, cols); err != nil {
		return err
	}
	copy(st.R0, r0)
	st.save(j)
	return nil
}

// applyCorruption flips the scheduled bit in the local block of column col's
// target vector. Only the victim rank mutates state; the index wraps modulo the
// local length so one schedule is meaningful across partitionings.
func applyCorruption(st *SolverState, col int, c faults.CorruptionSite) {
	var v []float64
	switch c.Target {
	case faults.TargetX:
		v = st.X[col].Local
	case faults.TargetR:
		v = st.R[col].Local
	case faults.TargetP:
		v = st.P[col].Local
	case faults.TargetZ:
		v = st.Z[col].Local
	}
	if len(v) == 0 {
		return
	}
	i := c.Index % len(v)
	v[i] = c.Flip(v[i])
}

// sdcDrifted is the consistency test between a true residual norm and the
// recurrence residual norm (see sdcDriftTol). Negated comparison: NaN (a
// corruption that overflowed the state) counts as drift, not as agreement.
func sdcDrifted(rtrue, rrec, r0 float64) bool {
	return !(math.Abs(rtrue-rrec) <= sdcDriftTol*math.Max(r0, rtrue))
}
