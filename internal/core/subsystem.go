package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/precond"
	"repro/internal/vec"
)

// solveXSystem solves A_{If,If} x_If = w (paper Alg. 2 line 8) for every
// column on one replacement, the leader — the lowest failed rank. Every other
// replacement sends it its blocks of w in one message and receives its blocks
// of x_If back in one: 2(psi-1) messages per episode, where a solve
// distributed over the failed group costs a halo round and two allreduces per
// subsystem iteration. The leader runs Alg. 1 over the psi failed blocks
// alone, with no message (subsystem.solve), so x_If lands in st.X bit for
// bit as the failed group's cooperative PCG would leave it. Replacements
// only: w holds the calling rank's blocks, one per column.
func (ep *episode) solveXSystem(w [][]float64) error {
	st := ep.st
	c := st.E.C
	leader := ep.failedList[0]
	if st.E.Pos != leader {
		if err := c.SendOwned(cluster.CatRecovery, leader, tagRecW, joinColumns(c, w), nil); err != nil {
			return err
		}
		msg, err := c.Recv(leader, tagRecX)
		if err != nil {
			return err
		}
		if len(msg.I) > 0 {
			return fmt.Errorf("core: the x-system failed on leader rank %d", leader)
		}
		x := locals(st.X)
		if n := len(x[0]); len(msg.F) != len(x)*n {
			return fmt.Errorf("core: x-system scatter from %d: %d values, want %d", leader, len(msg.F), len(x)*n)
		}
		for col := range x {
			copy(x[col], msg.F[col*len(x[col]):])
		}
		c.Recycle(msg)
		return nil
	}
	x, err := ep.leadXSystem(w)
	for t, f := range ep.failedList[1:] {
		var payload []float64
		var status []int
		if err == nil {
			payload = joinColumns(c, x[t+1])
		} else {
			status = []int{1} // the others fail too, instead of waiting
		}
		if serr := c.SendOwned(cluster.CatRecovery, f, tagRecX, payload, status); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// leadXSystem is the leader's part of solveXSystem: it receives the other
// replacements' blocks of w, assembles the subsystem from the failed ranks'
// static state and solves it column by column. It returns x_If as x[t][c],
// failed rank t's block of column c; the leader's own blocks are st.X's.
func (ep *episode) leadXSystem(w [][]float64) ([][][]float64, error) {
	st := ep.st
	k, psi := len(w), len(ep.failedList)
	rhs := make([][][]float64, psi)
	x := make([][][]float64, psi)
	rhs[0], x[0] = w, locals(st.X)
	for t := 1; t < psi; t++ {
		f := ep.failedList[t]
		vals, err := st.E.C.RecvFloats(f, tagRecW)
		if err != nil {
			return nil, err
		}
		n := st.A.P.Size(f)
		if len(vals) != k*n {
			return nil, fmt.Errorf("core: x-system gather from %d: %d values, want %d", f, len(vals), k*n)
		}
		rhs[t], x[t] = make([][]float64, k), make([][]float64, k)
		for col := range rhs[t] {
			rhs[t][col] = vals[col*n : (col+1)*n]
			x[t][col] = make([]float64, n)
		}
	}

	setupT := time.Now()
	blocks := make([]*distmat.Matrix, psi)
	precs := make([]Precond, psi)
	for t, f := range ep.failedList {
		var err error
		if blocks[t], precs[t], err = st.staticBlock(f); err != nil {
			return nil, err
		}
	}
	sys, err := newSubsystem(blocks, precs)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	maxIter := st.Opts.LocalMaxIter
	if maxIter <= 0 {
		maxIter = defaultLocalMaxIter(sys.n)
	}
	solveT := time.Now()
	wc, xc := make([][]float64, psi), make([][]float64, psi)
	for col := 0; col < k; col++ {
		for t := range wc {
			wc[t], xc[t] = rhs[t][col], x[t][col]
		}
		it, err := sys.solve(wc, xc, st.Opts.LocalTol, maxIter)
		if err != nil {
			return nil, fmt.Errorf("%w (column %d)", err, col)
		}
		ep.subIters[col] += float64(it)
	}
	ep.subSetup += solveT.Sub(setupT)
	ep.subSolve += time.Since(solveT)
	return x, nil
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

// subsystem is the reconstruction x-system on the leader: A_{If,If} over the
// failed blocks and each block's ILU(0) preconditioner, with the PCG vectors
// one block per failed rank.
type subsystem struct {
	a          *distmat.Principal
	prec       []precond.Preconditioner
	r, z, p, u [][]float64
	// parts holds one partial per block of a dot product, parts2 the second
	// of a fused pair.
	parts, parts2 []float64
	n             int
	crew          *crew
}

// newSubsystem assembles the subsystem over the failed ranks' matrices (in
// ascending rank order) and session preconditioners. A block whose session
// preconditioner is block-Jacobi ILU(0) reuses that factor; any other block
// (jacobi, SSOR, Cholesky and IC(0)/SPCG sessions) is factored here, once per
// episode, falling back to the identity when its ILU(0) breaks down.
func newSubsystem(blocks []*distmat.Matrix, precs []Precond) (*subsystem, error) {
	a, err := distmat.NewPrincipal(blocks)
	if err != nil {
		return nil, err
	}
	psi := len(blocks)
	s := &subsystem{a: a, prec: make([]precond.Preconditioner, psi), parts: make([]float64, psi), parts2: make([]float64, psi)}
	vs := make([][]float64, 4*psi)
	for t, m := range blocks {
		s.prec[t] = blockILU(m, precs[t])
		n := m.P.Size(m.Pos)
		s.n += n
		for v := 0; v < 4; v++ {
			vs[v*psi+t] = make([]float64, n)
		}
	}
	s.r, s.z, s.p, s.u = vs[:psi], vs[psi:2*psi], vs[2*psi:3*psi], vs[3*psi:]
	s.crew = newCrew(min(psi, runtime.GOMAXPROCS(0)) - 1)
	return s, nil
}

// close stops the subsystem's helpers.
func (s *subsystem) close() { s.crew.stop() }

// blockILU returns a failed block's subsystem preconditioner: the session's
// ILU(0) factor of it when the session holds one, else the block's own
// ILU(0), factored now.
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

// newSubsystemILU factors a lost block for a session that holds no ILU(0) of
// it. A variable so a test can count factorisations.
var newSubsystemILU = precond.NewBlockJacobiILU

// defaultLocalMaxIter is the subsystem iteration bound Options.LocalMaxIter
// <= 0 selects for a subsystem of n unknowns.
func defaultLocalMaxIter(n int) int {
	return max(20*n, 500)
}

// solve runs Alg. 1 on A_{If,If} x = w from x = 0 until ||r|| <= tol ||r0||
// or maxIter iterations, and returns the iteration count; w and x hold one
// block per failed rank. Every step is the driver's k = 1 step applied block
// by block — the same kernels on the same blocks — and every dot product is
// formed as per-block partials combined in the failed group's reduction order
// (cluster.TreeSum). So x, the count and each stopping decision are bit for
// bit those of the driver's PCG run by the failed ranks together, each on its
// own block, the reference TestSubsystemSolveMatchesRebuiltReference holds it
// to. The blocks of a step are independent — each writes only its own
// vectors and partial slots — so the crew spreads them over goroutines
// without the result depending on which ran which.
func (s *subsystem) solve(w, x [][]float64, tol float64, maxIter int) (int, error) {
	r, z, p, u := s.r, s.z, s.p, s.u
	// r = w - A x at x = 0, formed as the driver forms the initial residual.
	for t := range x {
		clear(x[t])
	}
	s.a.MatVec(r, x)
	for t := range r {
		vec.Axpby(1, w[t], -1, r[t])
		s.prec[t].ApplyInv(z[t], r[t])
		vec.Copy(p[t], z[t])
	}
	r0 := math.Sqrt(s.dot(r, r))
	rz := s.dot(r, z)
	if r0 == 0 {
		return 0, nil
	}
	rn := r0
	for j := 0; j < maxIter; j++ {
		s.crew.run(len(u), func(t int) {
			s.a.MatVecBlock(t, u[t], p)
			s.parts[t] = vec.ParDot(p[t], u[t])
		})
		pu := cluster.TreeSum(s.parts)
		// Negated so that NaN trips it too, as in the driver.
		if !(pu > 0) {
			return 0, fmt.Errorf("core: reconstruction subsystem breakdown, p'Ap = %g at iteration %d", pu, j)
		}
		alpha := rz / pu
		s.crew.run(len(x), func(t int) {
			vec.ParAxpyAxpy(alpha, p[t], x[t], -alpha, u[t], r[t], 0)
			s.prec[t].ApplyInv(z[t], r[t])
			s.parts[t], s.parts2[t] = vec.ParDot2(r[t], r[t], r[t], z[t])
		})
		rzNew := cluster.TreeSum(s.parts2)
		rn = math.Sqrt(cluster.TreeSum(s.parts))
		if math.IsNaN(rn) || math.IsInf(rn, 0) {
			return 0, fmt.Errorf("core: reconstruction subsystem diverged, ||r|| = %g at iteration %d", rn, j)
		}
		if rn <= tol*r0 {
			return j + 1, nil
		}
		beta := rzNew / rz
		rz = rzNew
		for t := range p {
			vec.Axpby(1, z[t], beta, p[t])
		}
	}
	if rel := rn / r0; rel > 1e-6 {
		return 0, fmt.Errorf("core: reconstruction subsystem stagnated (relres %.2e)", rel)
	}
	return maxIter, nil
}

// dot is the subsystem-wide a'b: per-block partials in the failed group's
// reduction order.
func (s *subsystem) dot(a, b [][]float64) float64 {
	for t := range a {
		s.parts[t] = vec.ParDot(a[t], b[t])
	}
	return cluster.TreeSum(s.parts)
}

// crew runs the blocks of a solver step on the calling goroutine and on
// helpers that, for the life of one x-system, wait for the next step by
// polling rather than parking. A step of a small subsystem lasts tens of
// microseconds, while a parked goroutine can take as long to wake (on a
// virtualised 2-core box the shared worker pool, whose workers park between
// calls, was measured to leave the second core idle for steps of 150 µs).
// The caller claims every block no helper has claimed, so a helper that is
// late, descheduled or absent (GOMAXPROCS 1) costs only its share of the
// parallelism; a polling helper yields its core whenever another goroutine
// is runnable.
type crew struct {
	step atomic.Pointer[crewStep]
	done atomic.Bool
	wg   sync.WaitGroup
}

// crewStep is one published step: blocks are claimed off next, and left
// counts those not yet finished.
type crewStep struct {
	f          func(t int)
	n          int
	next, left atomic.Int64
}

// newCrew starts a crew with the given number of helpers.
func newCrew(helpers int) *crew {
	c := &crew{}
	c.wg.Add(helpers)
	for range helpers {
		go c.help()
	}
	return c
}

// help works on every step published until the crew stops.
func (c *crew) help() {
	defer c.wg.Done()
	var last *crewStep
	for !c.done.Load() {
		if s := c.step.Load(); s != nil && s != last {
			last = s
			s.work()
			continue
		}
		runtime.Gosched()
	}
}

// run calls f(t) for every t in [0, n) and returns once all have returned.
func (c *crew) run(n int, f func(t int)) {
	s := &crewStep{f: f, n: n}
	s.left.Store(int64(n))
	c.step.Store(s)
	s.work()
	for s.left.Load() > 0 {
		runtime.Gosched()
	}
}

// work runs unclaimed blocks of the step until none is left to claim.
func (s *crewStep) work() {
	for {
		t := int(s.next.Add(1)) - 1
		if t >= s.n {
			return
		}
		s.f(t)
		s.left.Add(-1)
	}
}

// stop ends the helpers and waits for them.
func (c *crew) stop() {
	c.done.Store(true)
	c.wg.Wait()
}
