package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
	"repro/internal/xerr"
)

// startXSystem hands the x-system A_{If,If} x_If = w (paper Alg. 2 line 8)
// to one replacement, the leader — the lowest failed rank. Every other
// replacement sends it its blocks of w in one message here and receives its
// blocks of x_If in one at settle: 2(psi-1) messages per episode, where a
// solve distributed over the failed group costs a halo round and two
// allreduces per subsystem iteration. The leader runs Alg. 1 over the psi
// failed blocks alone, with no message (subsystem.solve): where the rule
// refuses the coupled factor, x_If lands bit for bit as the failed group's
// cooperative PCG would leave it. No step of the recurrence reads x, so the
// leader assembles and solves in the background while the iteration
// resumes. Replacements only: w holds the calling rank's blocks, one per
// column.
func (ep *episode) startXSystem(w [][]float64) error {
	st := ep.st
	if leader := ep.failedList[0]; st.E.Pos != leader {
		return st.E.C.SendOwned(cluster.CatRecovery, leader, tagRecW, joinColumns(st.E.C, w), nil)
	}
	return ep.leadXSystem(w)
}

// leadXSystem is the leader's part of startXSystem: it receives the other
// replacements' blocks of w, looks up the failed ranks' static state and
// starts the background solve, which assembles the subsystem from it.
func (ep *episode) leadXSystem(w [][]float64) error {
	st, pd := ep.st, ep.st.pend
	k, psi := len(w), len(ep.failedList)
	rhs := make([][][]float64, psi)
	pd.x = make([][][]float64, psi)
	rhs[0], pd.x[0] = w, locals(st.X)
	for t := 1; t < psi; t++ {
		f := ep.failedList[t]
		vals, err := st.E.C.RecvFloats(f, tagRecW)
		if err != nil {
			return err
		}
		n := st.A.P.Size(f)
		if len(vals) != k*n {
			return fmt.Errorf("core: x-system gather from %d: %d values, want %d", f, len(vals), k*n)
		}
		rhs[t], pd.x[t] = make([][]float64, k), make([][]float64, k)
		for col := range rhs[t] {
			rhs[t][col] = vals[col*n : (col+1)*n]
			pd.x[t][col] = make([]float64, n)
		}
	}

	setupT := time.Now()
	blocks := make([]*distmat.Matrix, psi)
	precs := make([]Precond, psi)
	for t, f := range ep.failedList {
		var err error
		if blocks[t], precs[t], err = st.staticBlock(f); err != nil {
			return err
		}
	}
	ep.subSetup += time.Since(setupT)
	pd.sys, pd.done = new(subsystem), make(chan struct{})
	xSolvesLive.Add(1)
	go pd.solve(blocks, precs, rhs, st.Opts.LocalTol, st.Opts.LocalMaxIter)
	return nil
}

// pendingX is an episode whose x-system is still being solved. Every rank
// holds one from phase 4 until settle; the leader also runs the solve, and
// every replacement keeps the x updates of the iterations run meanwhile.
type pendingX struct {
	failed   []int // the episode's failed ranks, failed[0] the leader
	amFailed bool
	// hist[c] lists column c's updates x += alpha p since the episode, in
	// order, each p a copy; replacements only.
	hist [][]xUpdate
	// subIters holds the per-column subsystem iterations (the leader's until
	// settle allreduces them).
	subIters []float64
	// report is the episode's record, booked at settle.
	report episodeReport

	// The leader's solve: sys is built by the solve, x[t][c] is failed rank
	// t's block of column c (the leader's own are its X), done closes when
	// solve returns. Nil elsewhere.
	sys      *subsystem
	x        [][][]float64
	done     chan struct{}
	err      error
	subSolve time.Duration
}

// xUpdate is one deferred x += alpha p.
type xUpdate struct {
	alpha float64
	p     []float64
}

// xSolvesLive counts the background x-system solves started and not yet
// joined; every solve is joined before SolveBlock returns.
var xSolvesLive atomic.Int64

// LiveXSolves reports the background x-system solves not yet joined.
func LiveXSolves() int64 { return xSolvesLive.Load() }

// solve is the leader's background solve: it assembles the subsystem over
// the failed blocks, then solves it column by column. maxIter <= 0 selects
// defaultLocalMaxIter.
func (pd *pendingX) solve(blocks []*distmat.Matrix, precs []Precond, rhs [][][]float64, tol float64, maxIter int) {
	defer close(pd.done)
	start := time.Now()
	defer func() { pd.subSolve = time.Since(start) }()
	if err := pd.sys.build(blocks, precs); err != nil {
		pd.err = err
		return
	}
	if maxIter <= 0 {
		maxIter = defaultLocalMaxIter(pd.sys.n)
	}
	wc, xc := make([][]float64, len(rhs)), make([][]float64, len(rhs))
	for col := range pd.subIters {
		for t := range wc {
			wc[t], xc[t] = rhs[t][col], pd.x[t][col]
		}
		it, err := pd.sys.solve(wc, xc, tol, maxIter)
		if err != nil {
			pd.err = xerr.Wrap(xerr.DataLoss, fmt.Errorf("%w (column %d)", err, col))
			return
		}
		pd.subIters[col] = float64(it)
	}
}

// solved is the leader's "x_If is solved" flag: 1 once its solve returned.
func (pd *pendingX) solved() float64 {
	select {
	case <-pd.done: // a nil channel (not the leader) never delivers
		return 1
	default:
		return 0
	}
}

// join waits for the leader's solve, if one was started, and returns its
// error.
func (pd *pendingX) join() error {
	if pd.done == nil {
		return nil
	}
	<-pd.done
	xSolvesLive.Add(-1)
	return pd.err
}

// deliver is settle's half of the x-system exchange: the leader waits for
// its solve and scatters x_If, one message per other replacement (a failure
// status instead when the solve failed, so that no one waits), and every
// replacement writes its blocks and replays the x updates it kept — the
// multiply-adds the iterations would have made, in the same order, so x is
// bit for bit the eager one.
func (pd *pendingX) deliver(st *SolverState) error {
	c := st.E.C
	x := locals(st.X)
	switch leader := pd.failed[0]; {
	case st.E.Pos == leader:
		err := pd.join()
		for t, f := range pd.failed[1:] {
			var payload []float64
			var status []int
			if err == nil {
				payload = joinColumns(c, pd.x[t+1])
			} else {
				status = []int{1}
			}
			if serr := c.SendOwned(cluster.CatRecovery, f, tagRecX, payload, status); serr != nil && err == nil {
				err = serr
			}
		}
		if err != nil {
			return err
		}
	case pd.amFailed:
		msg, err := c.Recv(leader, tagRecX)
		if err != nil {
			return err
		}
		if len(msg.I) > 0 {
			return xerr.Newf(xerr.DataLoss, "core: the x-system failed on leader rank %d", leader)
		}
		if n := len(x[0]); len(msg.F) != len(x)*n {
			return fmt.Errorf("core: x-system scatter from %d: %d values, want %d", leader, len(msg.F), len(x)*n)
		}
		for col := range x {
			copy(x[col], msg.F[col*len(x[col]):])
		}
		c.Recycle(msg)
	}
	for col, steps := range pd.hist {
		for _, s := range steps {
			vec.Axpy(s.alpha, s.p, x[col])
		}
	}
	return nil
}

// staticBlock returns failed rank f's static state — its matrix and
// preconditioner, only read — the calling rank's own or through
// Options.Session.
func (st *SolverState) staticBlock(f int) (*distmat.Matrix, Precond, error) {
	if f == st.E.Pos {
		return st.A, st.M, nil
	}
	if st.Opts.Session == nil {
		return nil, nil, fmt.Errorf("core: the x-system needs rank %d's static state, and the solve has no Options.Session", f)
	}
	m, p := st.Opts.Session(f)
	return m, p, nil
}

// joinColumns packs the given columns back to back into one pooled payload.
func joinColumns(c *cluster.Comm, cols [][]float64) []float64 {
	n := 0
	for _, col := range cols {
		n += len(col)
	}
	out, at := c.GetFloats(n), 0
	for _, col := range cols {
		at += copy(out[at:], col)
	}
	return out
}

// subsystem is the reconstruction x-system on the leader: A_{If,If}
// assembled over the failed blocks, its preconditioner and the PCG vectors
// over all of If.
type subsystem struct {
	a *sparse.CSR
	// prec[t] preconditions, and the dot products take one partial over, the
	// rows [bounds[t], bounds[t+1]): one part per failed block, or one for
	// the whole system when the coupled factor is used.
	prec          []precond.Preconditioner
	bounds        []int
	x, r, z, p, u []float64
	parts, parts2 []float64
	n             int
	coupled       bool // the coupled factor is in use
	// stop, once set, ends solve at its next iteration.
	stop atomic.Bool
}

// newSubsystem assembles the subsystem over the failed ranks' matrices (in
// ascending rank order) and session preconditioners.
func newSubsystem(blocks []*distmat.Matrix, precs []Precond) (*subsystem, error) {
	s := new(subsystem)
	return s, s.build(blocks, precs)
}

// build assembles A_{If,If} (distmat.Restrict) and picks its
// preconditioner: one ILU(0) of the whole operator where couples says it
// pays, else each failed block's own (blockILU). The leader runs it at the
// start of its background solve, off the episode's held path.
func (s *subsystem) build(blocks []*distmat.Matrix, precs []Precond) error {
	a, err := distmat.Restrict(blocks)
	if err != nil {
		return err
	}
	s.a, s.n, s.bounds = a, a.Rows, []int{0}
	for _, m := range blocks {
		s.bounds = append(s.bounds, s.bounds[len(s.bounds)-1]+m.P.Size(m.Pos))
	}
	if couples(a, s.bounds) {
		if ilu, err := newSubsystemILU(a); err == nil {
			s.prec, s.bounds, s.coupled = []precond.Preconditioner{ilu}, []int{0, s.n}, true
		}
	}
	if s.prec == nil {
		for t, m := range blocks {
			s.prec = append(s.prec, blockILU(m, precs[t]))
		}
	}
	s.parts, s.parts2 = make([]float64, len(s.prec)), make([]float64, len(s.prec))
	v := make([]float64, 5*s.n)
	s.x, s.r, s.z, s.p, s.u = v[:s.n], v[s.n:2*s.n], v[2*s.n:3*s.n], v[3*s.n:4*s.n], v[4*s.n:]
	return nil
}

// The coupled factor's thresholds (see couples).
const (
	coupledCrossShare = 0.05
	coupledFactorWork = 2
)

// couples is the static rule that picks the coupled preconditioner of the
// x-system A_{If,If}, the failed blocks at bounds. Factoring the whole
// operator pays when at least coupledCrossShare of the stored entries
// couple two failed blocks — what the block factors ignore — and its IKJ
// row updates, the sum over the strictly lower entries (i, j) of row j's
// strictly upper entries, stay within coupledFactorWork times the entries,
// about one sweep of the solve. A single block couples nothing, and
// elasticity's 27-point stencil costs 17 times its entries.
func couples(a *sparse.CSR, bounds []int) bool {
	nnz := a.NNZ()
	upper := make([]int, a.Rows)
	cross, work, t := 0, 0, 0
	for i := 0; i < a.Rows; i++ {
		for i >= bounds[t+1] {
			t++
		}
		cols, _ := a.Row(i)
		for _, j := range cols {
			if j < bounds[t] || j >= bounds[t+1] {
				cross++
			}
			if j < i {
				work += upper[j]
			} else if j > i {
				upper[i]++
			}
		}
		if work > coupledFactorWork*nnz {
			return false
		}
	}
	return float64(cross) >= coupledCrossShare*float64(nnz)
}

// blockILU returns a failed block's subsystem preconditioner: the session's
// ILU(0) factor of it when the session holds one, else the block's own
// ILU(0), factored now, or the identity where that breaks down.
func blockILU(m *distmat.Matrix, session Precond) precond.Preconditioner {
	if lp, ok := session.(LocalPrecond); ok {
		if ilu, ok := lp.P.(*precond.BlockJacobiILU); ok {
			return ilu
		}
	}
	if ilu, err := newSubsystemILU(m.OwnBlock()); err == nil {
		return ilu
	}
	return precond.Identity{}
}

// newSubsystemILU factors the coupled A_{If,If}, or a lost block for a
// session that holds no ILU(0) of it. A variable so a test can count
// factorisations or hold the solve.
var newSubsystemILU = func(block *sparse.CSR) (precond.Preconditioner, error) {
	return precond.NewBlockJacobiILU(block)
}

// defaultLocalMaxIter is the subsystem iteration bound Options.LocalMaxIter
// <= 0 selects for a subsystem of n unknowns.
func defaultLocalMaxIter(n int) int {
	return max(20*n, 500)
}

// solve runs Alg. 1 on A_{If,If} x = w from x = 0 until ||r|| <= tol ||r0||
// or maxIter iterations, and returns the iteration count; w and x hold one
// block per failed rank. Every step is the driver's k = 1 step, and every
// dot product is formed as one partial per part combined in the failed
// group's reduction order (cluster.TreeSum). With the block factors, x, the
// count and each stopping decision are bit for bit those of the driver's
// PCG run by the failed ranks together, each on its own block, the
// reference TestSubsystemSolveMatchesRebuiltReference holds it to; with the
// coupled factor, those of the driver's PCG on one rank over A_{If,If}. It
// checks stop once per iteration.
func (s *subsystem) solve(w, x [][]float64, tol float64, maxIter int) (int, error) {
	r, z, p, u := s.r, s.z, s.p, s.u
	// r = w - A x at x = 0, formed as the driver forms the initial residual.
	clear(s.x)
	at := 0
	for _, wt := range w {
		at += copy(u[at:], wt)
	}
	s.a.MulMatScatter(r, s.x, nil, 1)
	vec.Axpby(1, u, -1, r)
	s.precondition()
	vec.Copy(p, z)
	r0 := math.Sqrt(s.dot(r, r))
	rz := s.dot(r, z)
	if r0 == 0 {
		s.scatterX(x)
		return 0, nil
	}
	rn := r0
	for j := 0; j < maxIter; j++ {
		if s.stop.Load() {
			return 0, fmt.Errorf("core: x-system solve stopped at iteration %d", j)
		}
		s.a.MulMatScatter(u, p, nil, 1)
		pu := s.dot(p, u)
		// Negated so that NaN trips it too, as in the driver.
		if !(pu > 0) {
			return 0, fmt.Errorf("core: reconstruction subsystem breakdown, p'Ap = %g at iteration %d", pu, j)
		}
		alpha := rz / pu
		vec.AxpyAxpy(alpha, p, s.x, -alpha, u, r)
		s.precondition()
		for t := range s.prec {
			lo, hi := s.bounds[t], s.bounds[t+1]
			s.parts[t], s.parts2[t] = vec.Dot2(r[lo:hi], r[lo:hi], r[lo:hi], z[lo:hi])
		}
		rzNew := cluster.TreeSum(s.parts2)
		rn = math.Sqrt(cluster.TreeSum(s.parts))
		if math.IsNaN(rn) || math.IsInf(rn, 0) {
			return 0, fmt.Errorf("core: reconstruction subsystem diverged, ||r|| = %g at iteration %d", rn, j)
		}
		if rn <= tol*r0 {
			s.scatterX(x)
			return j + 1, nil
		}
		beta := rzNew / rz
		rz = rzNew
		vec.Axpby(1, z, beta, p)
	}
	if rel := rn / r0; rel > 1e-6 {
		return 0, fmt.Errorf("core: reconstruction subsystem stagnated (relres %.2e)", rel)
	}
	s.scatterX(x)
	return maxIter, nil
}

// precondition applies z = M^{-1} r part by part.
func (s *subsystem) precondition() {
	for t, m := range s.prec {
		lo, hi := s.bounds[t], s.bounds[t+1]
		m.ApplyInv(s.z[lo:hi], s.r[lo:hi])
	}
}

// scatterX copies the solution out to the failed ranks' blocks.
func (s *subsystem) scatterX(x [][]float64) {
	at := 0
	for _, xt := range x {
		at += copy(xt, s.x[at:])
	}
}

// dot is the subsystem-wide a'b: per-part partials in the failed group's
// reduction order.
func (s *subsystem) dot(a, b []float64) float64 {
	for t := range s.prec {
		lo, hi := s.bounds[t], s.bounds[t+1]
		s.parts[t] = vec.Dot(a[lo:hi], b[lo:hi])
	}
	return cluster.TreeSum(s.parts)
}
