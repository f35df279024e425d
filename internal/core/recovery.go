package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/vec"
	"repro/internal/xerr"
)

// Recovery phases. Overlapping failures fire at phase boundaries and
// restart the episode with the enlarged failed set (paper Sec. 4.1: "the
// reconstruction process must be restarted after each node failure").
const (
	phaseScalars  = 1 // replicated scalars reach the replacements
	phasePGather  = 2 // redundant copies of p(j), p(j-1) are gathered
	phaseZR       = 3 // z_If and r_If are reconstructed (Alg. 2 lines 4-6)
	phaseXSystem  = 4 // w is formed and handed to the x-system (lines 7-8)
	phaseFinalize = 5 // the solver resumes; x_If lands at settle
	numPhases     = 5
)

// Message tags of the recovery protocol (user tag space).
const (
	tagRecStatus = 3<<20 + 10
	tagRecScalar = 3<<20 + 11
	tagRecPReq   = 3<<20 + 12
	tagRecPResp  = 3<<20 + 13
	tagRecXHalo  = 3<<20 + 15
	tagRecW      = 3<<20 + 16
	tagRecX      = 3<<20 + 17
)

// DataLossError reports that the redundancy protocol cannot cover the failed
// set: some elements have no surviving copy. This is the failure mode of
// Chen's single-failure strategy under adjacent multi-failures (Sec. 3).
type DataLossError struct {
	// Iteration is the solver iteration of the failed episode.
	Iteration int
	// FailedRanks is the failed set that exceeded the protocol's coverage.
	FailedRanks []int
}

// Error implements the error interface.
func (e *DataLossError) Error() string {
	return fmt.Sprintf("core: unrecoverable data loss at iteration %d: failed ranks %v exceed the stored redundancy",
		e.Iteration, e.FailedRanks)
}

// Is claims the data_loss error class, so API boundaries classify the
// failure without matching the concrete type.
func (e *DataLossError) Is(target error) bool { return target == xerr.DataLoss }

// EpisodeFailures tracks the cumulative failed set of one recovery episode
// and applies the paper's Sec. 4.1 overlapping-failure rule uniformly for
// every recovery strategy: at each recovery-phase boundary, scheduled
// victims that are not yet in the set are wiped (via the strategy's wipe
// callback, on the local rank only) and enlarge it, forcing the episode to
// restart. Sharing this bookkeeping is what keeps one faults.Schedule
// meaning the same thing under ESR reconstruction, checkpoint rollback and
// cold restart.
type EpisodeFailures struct {
	sched *faults.Schedule
	iter  int
	pos   int
	wipe  func()
	// Failed is the cumulative failed set, indexed by rank (shared with
	// episode internals).
	Failed []bool
}

// NewEpisodeFailures starts an episode's failure tracking for the initial
// victims at iteration iter among ranks ranks. pos is the local rank and
// wipe destroys its dynamic state (called when pos itself joins the failed
// set).
func NewEpisodeFailures(sched *faults.Schedule, iter, pos, ranks int, wipe func(), victims []int) *EpisodeFailures {
	ef := &EpisodeFailures{sched: sched, iter: iter, pos: pos, wipe: wipe, Failed: make([]bool, ranks)}
	ef.add(victims)
	return ef
}

// add joins ranks to the failed set, wiping the local rank when it is among
// the fresh ones, and reports whether any rank was fresh.
func (ef *EpisodeFailures) add(ranks []int) (fresh bool) {
	for _, f := range ranks {
		if !ef.Failed[f] {
			fresh = true
			ef.Failed[f] = true
			if f == ef.pos {
				ef.wipe()
			}
		}
	}
	return fresh
}

// AtPhase applies the overlapping failures scheduled right before the given
// recovery phase. It reports whether fresh victims enlarged the set — the
// signal that the episode must restart with the union set (re-running
// completed phases is deterministic: retention and checkpoint reads are
// non-destructive).
func (ef *EpisodeFailures) AtPhase(phase int) bool {
	return ef.add(ef.sched.AtRecoveryPhase(ef.iter, phase))
}

// Ranks returns the sorted failed set.
func (ef *EpisodeFailures) Ranks() []int {
	var out []int
	for r, f := range ef.Failed {
		if f {
			out = append(out, r)
		}
	}
	return out
}

// AmFailed reports whether the local rank is in the failed set.
func (ef *EpisodeFailures) AmFailed() bool { return ef.Failed[ef.pos] }

// recoverEpisode executes one ESR reconstruction episode — Alg. 2 over the
// union failed set I_f, for all k columns of the lost blocks at once — for
// the failure of `victims` detected at iteration j. It returns when every
// rank (survivors and replacements) holds a consistent solver state for
// iteration j, except x_If: the x-system is solved in the background, and
// st.pend holds the episode until settle. This is the only copy of the
// protocol: PCG and SPCG, at any width, differ in the rebuild step
// (rebuildR) alone.
func (st *SolverState) recoverEpisode(j int, victims []int) (Reconstruction, error) {
	startT := time.Now()
	rec := Reconstruction{Iteration: j}
	ef := NewEpisodeFailures(st.Sched, j, st.E.Pos, st.E.Size(), st.Wipe, victims)
	mark := startT

restart:
	rec.FailedRanks = ef.Ranks()
	ep := &episode{
		st:         st,
		iter:       j,
		failed:     ef.Failed,
		failedList: rec.FailedRanks,
		amFailed:   ef.AmFailed(),
	}
	for phase := 1; phase <= numPhases; phase++ {
		// Overlapping failures strike at phase boundaries; restarting with
		// the union set re-runs the completed phases deterministically. A
		// fresh victim is a survivor, never the leader whose x-system solve
		// the restart stops.
		if ef.AtPhase(phase) {
			st.dropPending()
			rec.Restarts++
			goto restart
		}
		var err error
		switch phase {
		case phaseScalars:
			err = ep.runScalars()
		case phasePGather:
			err = ep.runPGather()
		case phaseZR:
			err = ep.runZR()
		case phaseXSystem:
			err = ep.runXSystem()
		}
		if err != nil {
			return rec, err
		}
		// Observer-only: one clock read at the boundary the loop already has.
		now := time.Now()
		rec.Phases[phase-1] += now.Sub(mark)
		mark = now
	}
	rec.SubsystemSetup = ep.subSetup
	rec.Duration = time.Since(startT)
	return rec, nil
}

// settle completes a pending episode, collectively: x_If reaches the
// replacements, which replay the x updates they kept, the per-column
// subsystem iteration counts are replicated, and the episode is booked. A
// no-op when nothing is pending. The driver settles at the first norms
// allreduce after the leader's solve returned, and in any case before
// anything reads x.
func (st *SolverState) settle() error {
	pd := st.pend
	if pd == nil {
		return nil
	}
	st.pend = nil
	if err := pd.deliver(st); err != nil {
		return err
	}
	// The leader's setup and solve times ride beside the iteration counts,
	// the other ranks contributing 0, so every rank reports the leader's.
	rp := pd.report
	k := len(pd.subIters)
	send := append(pd.subIters[:k:k], float64(rp.rec.SubsystemSetup), float64(pd.subSolve))
	got, err := st.E.Grp.Allreduce(cluster.OpMax, send)
	if err != nil {
		return err
	}
	rp.sub = pd.subIters
	copy(rp.sub, got[:k])
	rp.rec.SubsystemSetup, rp.rec.SubsystemSolve = time.Duration(got[k]), time.Duration(got[k+1])
	st.E.Grp.Recycle(got)
	for _, it := range rp.sub {
		rp.rec.SubIterations = max(rp.rec.SubIterations, int(it))
	}
	st.book(rp)
	return nil
}

// dropPending stops a pending episode's x-system solve and waits for it;
// its result is discarded (a restart re-solves, an error ends the solve).
func (st *SolverState) dropPending() {
	if pd := st.pend; pd != nil {
		st.pend = nil
		if pd.sys != nil {
			pd.sys.stop.Store(true)
		}
		pd.join()
	}
}

// episode is the per-attempt state of a reconstruction.
type episode struct {
	st         *SolverState
	iter       int
	failed     []bool
	failedList []int
	amFailed   bool

	pPrev [][]float64 // p(j-1) per column on the replacement's block
	r     [][]float64 // r_If per column, from the rebuild step

	subSetup time.Duration // the leader's x-system setup
}

// lowestSurvivor returns the smallest rank not in the failed set.
func (ep *episode) lowestSurvivor() int {
	for r := 0; r < ep.st.E.Size(); r++ {
		if !ep.failed[r] {
			return r
		}
	}
	return -1 // unreachable: schedules are validated against phi < N
}

// runScalars transfers the replicated scalars — beta(j-1) and ||r0|| of
// every column — from the lowest surviving rank to each replacement in one
// fused message per failed rank (paper Alg. 2 line 3: "retrieve the
// redundant copies of beta(j-1)"; scalars are replicated on all ranks,
// Sec. 2.2).
func (ep *episode) runScalars() error {
	st := ep.st
	k := st.k()
	s0 := ep.lowestSurvivor()
	if st.E.Pos == s0 {
		payload := make([]float64, 2*k)
		copy(payload[:k], st.Beta)
		copy(payload[k:], st.R0)
		for _, f := range ep.failedList {
			if err := st.E.C.Send(cluster.CatRecovery, f, tagRecScalar, payload, nil); err != nil {
				return err
			}
		}
	}
	if ep.amFailed {
		vals, err := st.E.C.RecvFloats(s0, tagRecScalar)
		if err != nil {
			return err
		}
		if len(vals) != 2*k {
			return fmt.Errorf("core: scalar recovery got %d values, want %d", len(vals), 2*k)
		}
		copy(st.Beta, vals[:k])
		copy(st.R0, vals[k:])
	}
	return nil
}

// runPGather reconstructs all k columns of p(j)_If and p(j-1)_If on the
// replacements from the k-strided redundant copies, using the tailored
// recovery context: each replacement derives, from the static
// plan, which surviving rank holds each element and requests exactly one
// copy per element. The interleaved blocks are then split back into the
// per-column vectors.
func (ep *episode) runPGather() error {
	st := ep.st
	k := st.k()
	n := len(st.P[0].Local)
	gens := []int{ep.iter}
	if ep.iter > 0 {
		gens = append(gens, ep.iter-1)
	}
	var out [][]float64 // only replacements receive
	if ep.amFailed {
		for range gens {
			out = append(out, make([]float64, n*k))
		}
	}
	if err := recoverBlocks(st.E, st.A, ep.iter, ep.failed, ep.failedList, gens, out); err != nil {
		return err
	}
	if !ep.amFailed {
		return nil
	}
	ep.pPrev = make([][]float64, k)
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			st.P[c].Local[i] = out[0][i*k+c]
		}
		if ep.iter > 0 {
			ep.pPrev[c] = make([]float64, n)
			for i := 0; i < n; i++ {
				ep.pPrev[c][i] = out[1][i*k+c]
			}
		}
	}
	return nil
}

// runZR reconstructs z_If (Alg. 2 line 4: z = p(j) - beta(j-1) p(j-1)) on
// the replacements and hands over to the rebuild step for the residual side
// (lines 5-6).
func (ep *episode) runZR() error {
	st := ep.st
	if ep.amFailed {
		for c := range st.Z {
			if ep.iter == 0 {
				// p(0) = z(0): no previous search direction exists.
				vec.Copy(st.Z[c].Local, st.P[c].Local)
			} else {
				vec.XpayInto(st.Z[c].Local, st.P[c].Local, -st.Beta[c], ep.pPrev[c])
			}
		}
	}
	var err error
	ep.r, err = st.rebuildR(ep)
	return err
}

// rebuildR is phase 3 of an episode, the one step that depends on the
// recurrence rather than on the protocol: the residual side from z_If. On
// entry every replacement holds z_If = p(j) - beta(j-1) p(j-1) (Alg. 2 line
// 4) in st.Z; the step rebuilds st.R from it and returns the true residual
// blocks r_If, one per column, that the x-system of phase 4 needs (nil on
// survivors). It sends nothing: both preconditioner kinds are block-local.
//
// For the block-aligned local preconditioners of the paper's experiments,
// P_{If, I\If} = 0 and line 6 reduces to the local application
// r_If = M_f z_If ([23, Alg. 3]). Under a split preconditioner st.Z is
// zhat = L^{-T} rhat, so two block-local products recover
// rhat_If = L^T zhat_If and r_If = L rhat_If ([23, Alg. 5]).
func (st *SolverState) rebuildR(ep *episode) ([][]float64, error) {
	if !ep.amFailed {
		return nil, nil
	}
	r := locals(st.R)
	switch pm := st.M.(type) {
	case LocalPrecond:
		for c := range r {
			pm.P.ApplyM(r[c], st.Z[c].Local)
		}
	case SplitPrecond:
		for c := range r {
			pm.P.MulLT(st.R[c].Local, st.Z[c].Local) // rhat_If = L^T zhat_If
			r[c] = make([]float64, len(st.R[c].Local))
			pm.P.MulL(r[c], st.R[c].Local) // r_If = L rhat_If
		}
	default:
		return nil, fmt.Errorf("core: preconditioner %s does not support reconstruction", st.M.Name())
	}
	return r, nil
}

// runXSystem forms w = b_If - r_If - A_{If, I\If} x_{I\If} (Alg. 2 line 7)
// on every replacement — ONE fused k-strided gather of the survivors' ghost
// entries of x into the matrix's ghost slots — and starts the SPD subsystem
// A_{If,If} x_If = w (line 8) for every column. Sec. 4.1 solves it
// cooperatively over the replacements ("additional communication between
// the psi replacement nodes is necessary"); here that communication is a
// gather of w onto one replacement, which solves the whole subsystem alone,
// and a scatter of x_If back at settle (startXSystem), with x_If unchanged to
// the bit.
func (ep *episode) runXSystem() error {
	st := ep.st
	ghost, live, err := gatherGhost(st.E, st.A, locals(st.X), ep.failed, ep.failedList)
	if err != nil {
		return err
	}
	st.pend = &pendingX{failed: ep.failedList, amFailed: ep.amFailed, subIters: make([]float64, st.k())}
	if !ep.amFailed {
		return nil
	}
	st.pend.hist = make([][]xUpdate, st.k())
	w := cloneLocals(st.B)
	neg := make([]float64, len(w[0]))
	for c := range w {
		vec.Axpy(-1, ep.r[c], w[c])
		clear(neg)
		st.A.GhostProduct(neg, ghost, len(w), c, live)
		vec.Axpy(-1, neg, w[c])
	}
	return ep.startXSystem(w)
}
