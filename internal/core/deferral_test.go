package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/xerr"
)

// The deferred x-system: the leader solves A_{If,If} x_If = w in the
// background while the iteration resumes, and settle delivers x_If. These
// tests hold its edges to the eager episode's answers and to its lifecycle:
// every background solve is joined before SolveBlock returns.

// deferralProblem is the system the deferral tests solve: Poisson 16² on 8
// ranks, phi 3, the identity preconditioner — so that every x-system
// factor, of the coupled A_{If,If} or of each lost block, is made through
// newSubsystemILU, which gateXSystem holds.
var deferralProblem = matgen.Poisson2D(16, 16)

// probe is the ESR strategy with a hook at every rank's Overhead, the top of
// each iteration; strategy hooks run on every rank concurrently.
type probe struct {
	Strategy
	at func(st *SolverState, j int)
}

func (p probe) Overhead(st *SolverState, j int) error {
	p.at(st, j)
	return p.Strategy.Overhead(st, j)
}

// runDeferral solves deferralProblem under sched with the given options
// (the Tracer is kept on rank 0 only) and strategy (nil is ESR).
// A rank's error aborts the runtime, as the engine does, so that survivors
// waiting on a failed replacement unwind. It fails the test if a background
// x-system solve was left unjoined.
func runDeferral(t *testing.T, sched *faults.Schedule, opts Options, strat Strategy) harnessOut {
	t.Helper()
	rt := cluster.New(8)
	var mu sync.Mutex
	var out harnessOut
	ss := newSessionStub()
	out.err = rt.Run(func(c *cluster.Comm) error {
		err := func() error {
			e, m, x, b, err := setupProblem(c, deferralProblem, 3)
			if err != nil {
				return err
			}
			o := opts
			if c.Rank() != 0 {
				o.Tracer = nil
			}
			res, err := ResilientPCG(e, m, x, b, nil, ss.file(o, e, m, IdentityPrecond()), sched, strat)
			if err != nil {
				return err
			}
			full, err := distmat.Gather(e, []distmat.Vector{x})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				mu.Lock()
				out.res, out.x = res, full[0]
				mu.Unlock()
			}
			return nil
		}()
		if err != nil {
			rt.Abort(err)
		}
		return err
	})
	if n := xSolvesLive.Load(); n != 0 {
		t.Fatalf("%d background x-system solves left unjoined", n)
	}
	return out
}

// digest fingerprints a solve: its iterations, every episode's failed set,
// restarts and subsystem iterations, and a hash of x's bits.
func digest(out harnessOut) string {
	s := fmt.Sprintf("%d", out.res.Iterations)
	for _, rec := range out.res.Reconstructions {
		s += fmt.Sprintf(" %v/%d/%d", rec.FailedRanks, rec.Restarts, rec.SubIterations)
	}
	return fmt.Sprintf("%s %016x", s, checksum64(out.x))
}

// gateXSystem holds every x-system solve the leader starts in its first
// preconditioner application until open is called, so that a test decides
// how long an episode stays pending. The cleanup opens the gate.
func gateXSystem(t *testing.T) (open func()) {
	gate := make(chan struct{})
	orig := newSubsystemILU
	newSubsystemILU = func(block *sparse.CSR) (precond.Preconditioner, error) {
		p, err := orig(block)
		if err != nil {
			return nil, err
		}
		return gated{p, gate}, nil
	}
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		open()
		newSubsystemILU = orig
	})
	return open
}

type gated struct {
	precond.Preconditioner
	gate chan struct{}
}

func (g gated) ApplyInv(z, r []float64) {
	<-g.gate
	g.Preconditioner.ApplyInv(z, r)
}

// recEvents returns the iterations of the reconstruction episodes among the
// recovery traces.
func recEvents(rts []RecoveryTrace) []int {
	var its []int
	for _, rt := range rts {
		if rt.Reconstruction != nil {
			its = append(its, rt.Iteration)
		}
	}
	return its
}

// TestDeferredPhase5OverlapRestarts: a failure at phase 5 strikes after the
// leader (rank 3) started its background solve; the episode restarts with
// the union {1, 3} under a new leader, the stale solve is stopped and
// joined, and the answer is the eager episode's bit for bit (the digest was
// recorded before the x-system was deferred).
func TestDeferredPhase5OverlapRestarts(t *testing.T) {
	sched := faults.NewSchedule(faults.Simultaneous(6, 3), faults.Overlapping(6, phaseFinalize, 1))
	out := runDeferral(t, sched, Options{Tol: 1e-9}, nil)
	if out.err != nil {
		t.Fatal(out.err)
	}
	const want = "53 [1 3]/1/12 d1f4f675dac1167e"
	if got := digest(out); got != want {
		t.Fatalf("digest %q, eager %q", got, want)
	}
}

// TestDeferredSettlesBeforeTheLeaderFailsAgain: the first episode's leader,
// rank 2, is a victim of the second; the first x-system is held until the
// second event's iteration, so the episode is still pending there and must
// settle before the second episode wipes the leader.
func TestDeferredSettlesBeforeTheLeaderFailsAgain(t *testing.T) {
	open := gateXSystem(t)
	var log eventLog
	opts := Options{Tol: 1e-9, Tracer: &log}
	var pending sync.Map // iterations whose Overhead saw the episode pending
	strat := probe{NewESRStrategy(), func(st *SolverState, j int) {
		if st.pend != nil {
			pending.Store(j, true)
		}
		if j == 8 {
			open()
		}
	}}
	sched := faults.NewSchedule(faults.Simultaneous(6, 2, 3, 4), faults.Simultaneous(8, 2, 5))
	out := runDeferral(t, sched, opts, strat)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if _, ok := pending.Load(8); !ok {
		t.Fatal("the first episode was settled before the second event's iteration")
	}
	if got := recEvents(log.recoveries); !slices.Equal(got, []int{6, 8}) {
		t.Fatalf("reconstruction events at %v, want [6 8]", got)
	}
	// The first episode's x-system is coupled, the second's is not.
	const want = "53 [2 3 4]/0/19 [2 5]/0/12 f0ca5f7c285cf9b0"
	if got := digest(out); got != want {
		t.Fatalf("digest %q, eager %q", got, want)
	}
}

// TestDeferredHistoryReplaysAndDrops: while the x-system is held, a
// replacement keeps one x update per iteration; settle replays them — the
// answer is the one of a solve whose episode settled at once — and drops
// them with the episode.
func TestDeferredHistoryReplaysAndDrops(t *testing.T) {
	sched := faults.NewSchedule(faults.Simultaneous(6, 2, 3, 4))
	eager := runDeferral(t, sched, Options{Tol: 1e-9}, nil)
	if eager.err != nil {
		t.Fatal(eager.err)
	}
	open := gateXSystem(t)
	var mu sync.Mutex
	hist := map[int]int{} // iteration -> x updates rank 3 kept at its top
	var settledAt []int   // iterations whose top saw rank 3 settled again
	var st3 *SolverState
	strat := probe{NewESRStrategy(), func(st *SolverState, j int) {
		if j == 10 {
			open()
			if st.E.Pos == 2 {
				// The leader waits for its own solve, so iteration 10's
				// norms allreduce carries the done flag and settles there,
				// never later in finish.
				<-st.pend.done
			}
		}
		if st.E.Pos != 3 || j <= 6 {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		st3 = st
		if st.pend != nil {
			hist[j] = len(st.pend.hist[0])
		} else {
			settledAt = append(settledAt, j)
		}
	}}
	out := runDeferral(t, sched, Options{Tol: 1e-9}, strat)
	if out.err != nil {
		t.Fatal(out.err)
	}
	for j := 7; j <= 10; j++ {
		if hist[j] != j-6 {
			t.Fatalf("rank 3 kept %v x updates by iteration, want j-6 at iterations 7..10", hist)
		}
	}
	if len(settledAt) == 0 || settledAt[0] != 11 || st3.pend != nil {
		t.Fatalf("rank 3 settled again at %v, pending after the solve: %v", settledAt, st3.pend != nil)
	}
	if got, want := digest(out), digest(eager); got != want {
		t.Fatalf("held episode %q, prompt episode %q", got, want)
	}
}

// TestDeferredBatchColumnsLandApart: in a 16-column batch whose columns land
// at different iterations, with the failure between the first and the last
// landing, every column is its solo solve bit for bit — the columns landed
// before the failure carry no episode, the others carry it with their own
// subsystem iterations.
func TestDeferredBatchColumnsLandApart(t *testing.T) {
	a := deferralProblem
	const k = 16
	rhs := make([][]float64, k)
	for c := range rhs {
		rhs[c] = testColumn(a.Rows, c)
	}
	clean := solveColumns(t, a, 8, 3, rhs, iluFactory, Options{Tol: 1e-9}, nil)
	lands := make([]int, k)
	for c, run := range clean {
		lands[c] = run.res.Iterations
	}
	first, last := slices.Min(lands), slices.Max(lands)
	if last-first < 2 {
		t.Fatalf("columns land at %v: want a spread", lands)
	}
	failAt := (first + last) / 2
	sched := func() *faults.Schedule { return faults.NewSchedule(faults.Simultaneous(failAt, 2, 3, 4)) }
	block := solveColumns(t, a, 8, 3, rhs, iluFactory, Options{Tol: 1e-9}, sched())
	episodes := 0
	for c := range rhs {
		solo := solveColumns(t, a, 8, 3, rhs[c:c+1], iluFactory, Options{Tol: 1e-9}, sched())
		requireSameColumn(t, fmt.Sprintf("column %d (lands at %d, failure at %d)", c, lands[c], failAt), block[c], solo[0])
		episodes += len(block[c].res.Reconstructions)
	}
	if episodes == 0 || episodes == k {
		t.Fatalf("%d of %d columns lived through the episode: want the failure between landings %v", episodes, k, lands)
	}
	if n := xSolvesLive.Load(); n != 0 {
		t.Fatalf("%d background x-system solves left unjoined", n)
	}
}

// TestDeferredCancelJoinsTheSolve: a context cancelled while the x-system is
// pending ends the solve with the context's error, and the held solve is
// stopped and joined (runDeferral checks) before SolveBlock returns.
func TestDeferredCancelJoinsTheSolve(t *testing.T) {
	open := gateXSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledPending bool
	strat := probe{NewESRStrategy(), func(st *SolverState, j int) {
		if st.E.Pos == 0 && j == 9 {
			cancelledPending = st.pend != nil
			cancel()
			open()
		}
	}}
	out := runDeferral(t, faults.NewSchedule(faults.Simultaneous(6, 2, 3, 4)), Options{Tol: 1e-9, Ctx: ctx}, strat)
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", out.err)
	}
	if !cancelledPending {
		t.Fatal("the episode was settled before the cancellation")
	}
}

// TestDeferredXSystemBreakdownIsDataLoss: an x-system that fails in the
// background — one subsystem iteration cannot reach LocalTol — surfaces at
// settle as data_loss on every replacement, and nothing is left running.
func TestDeferredXSystemBreakdownIsDataLoss(t *testing.T) {
	out := runDeferral(t, faults.NewSchedule(faults.Simultaneous(6, 2, 3, 4)), Options{Tol: 1e-9, LocalMaxIter: 1}, nil)
	if !errors.Is(out.err, xerr.DataLoss) {
		t.Fatalf("err = %v, want data_loss", out.err)
	}
}

// TestXSystemTraffic holds one episode's recovery traffic to its closed form
// (the first float-volume identity of the episode), on Poisson 16², 8 ranks,
// victims {2, 3, 4} at iteration 6 > 0, so two p generations are gathered:
//
//   - status: every replacement to every other rank, psi(N-1) messages;
//   - p requests and responses: psi(N-psi) each way, the responses carrying
//     both generations of every lost element, 2n_f floats;
//   - scalars: beta and ||r0|| to each replacement, psi messages of 2;
//   - x ghosts: one frame per (survivor, replacement) pair the halo plan
//     links, carrying the planned entries;
//   - the x-system: w to the leader and x_If back, 2(psi-1) messages of the
//     other replacements' n_i floats.
func TestXSystemTraffic(t *testing.T) {
	const ranks, phi = 8, 3
	victims := []int{2, 3, 4}
	psi := len(victims)
	rt := cluster.New(ranks)
	sendTo := make([][][]int, ranks) // rank -> destination -> planned x entries
	sizes := make([]int, ranks)
	ss := newSessionStub()
	sched := faults.NewSchedule(faults.Simultaneous(6, victims...))
	err := rt.Run(func(c *cluster.Comm) error {
		e, m, x, b, err := setupProblem(c, deferralProblem, phi)
		if err != nil {
			return err
		}
		sendTo[e.Pos], sizes[e.Pos] = m.Plan.SendTo, m.P.Size(e.Pos)
		pc, err := iluFactory(e, m)
		if err != nil {
			return err
		}
		_, err = ss.esrpcg(e, m, x, b, pc, Options{Tol: 1e-9}, sched)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	failed := map[int]bool{}
	nf := 0
	for _, f := range victims {
		failed[f] = true
		nf += sizes[f]
	}
	msgs := psi*(ranks-1) + 2*psi*(ranks-psi) + psi + 2*(psi-1)
	floats := 2*nf + 2*psi + 2*(nf-sizes[victims[0]])
	for s := 0; s < ranks; s++ {
		for _, f := range victims {
			if n := len(sendTo[s][f]); !failed[s] && n > 0 {
				msgs++
				floats += n
			}
		}
	}
	cnt := rt.Counters()
	if got := [2]int64{cnt.Messages(cluster.CatRecovery), cnt.Floats(cluster.CatRecovery)}; got != [2]int64{int64(msgs), int64(floats)} {
		t.Fatalf("recovery traffic %d messages / %d floats, closed form %d / %d", got[0], got[1], msgs, floats)
	}
}
