package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sparse"
	"repro/internal/xerr"
)

// The configuration-lattice generator: one seeded walk over
//
//	recurrence {pcg, split/ic0} x strategy {esr, checkpoint, restart, twin}
//	x width {1, 3, 8 with one zero RHS and one duplicate column}
//	x schedule {none, simultaneous, overlapping at each phase, a flip on each
//	  target, mixed kill+flip, more failures than phi}
//	x SDCCheckInterval {0, n} x traced {no, yes}
//
// on one Prepared per (matrix, preconditioner), holding every point to the
// same contract:
//
//	(a) column c of a block is its solo solve: bits of X and every integer
//	    field of Result;
//	(b) ||b - A x|| <= tol ||r0||, recomputed serially outside the solver;
//	(c) WorkIterations = Iterations + the iterations the episodes redid;
//	(d) outside the contract — more failures than phi, a flip the strategy
//	    cannot repair — a classed error within a deadline, never a hang.
//
// Seeds below latticeGrid enumerate recurrence x strategy x schedule class
// (every phase, every target) once, so the short budget already visits each;
// seeds above draw every axis at random. LATTICE_SEEDS sizes the walk (the
// nightly runs a large one), LATTICE_SEED replays a single seed.
const (
	latticeRanks    = 8
	latticePhi      = 3
	latticeTol      = 1e-8
	latticeInterval = 4 // checkpoint period
	latticeSDC      = 3 // the armed SDCCheckInterval
	latticeDeadline = 60 * time.Second
)

var (
	latticeStrategies = []string{StrategyESR, StrategyCheckpoint, StrategyRestart, StrategyTwin}
	latticeWidths     = []int{1, 3, 8}
	latticeTargets    = []string{faults.TargetX, faults.TargetR, faults.TargetP, faults.TargetZ}
)

// Schedule classes, in grid order.
const (
	classNone         = iota
	classSimultaneous // 1..phi victims at one poll point
	classOverlap1     // a second victim at recovery phase 1 .. 5
	classOverlap5     = classOverlap1 + core.NumRecoveryPhases - 1
	classFlipX        = classOverlap5 + 1 // one bit flip on x, r, p, z
	classFlipZ        = classFlipX + 3
	classMixed        = classFlipZ + 1 // flip, kill, flip
	classOverload     = classMixed + 1 // phi+1 contiguous victims
	numClasses        = classOverload + 1
)

const latticeGrid = 2 * 4 * numClasses

// latticePoint is one visited configuration.
type latticePoint struct {
	seed     int64
	session  int // index into the prepared sessions
	split    bool
	strategy string
	width    int
	class    int
	sched    *faults.Schedule
	sdc      int
	traced   bool
}

func (p latticePoint) String() string {
	sched, _ := json.Marshal(p.sched)
	return fmt.Sprintf("session=%d split=%v strategy=%s width=%d class=%d sdc=%d traced=%v schedule=%s",
		p.session, p.split, p.strategy, p.width, p.class, p.sdc, p.traced, sched)
}

// hasFlip reports whether the point's schedule corrupts state; repairs
// whether its strategy puts every flip right again.
func (p latticePoint) hasFlip() bool { return p.sched.HasCorruption() }
func (p latticePoint) repairs() bool { return p.strategy == StrategyTwin }

// latticePointAt derives the configuration of one seed.
func latticePointAt(seed int64, sessions int) latticePoint {
	rng := rand.New(rand.NewSource(seed))
	p := latticePoint{seed: seed}
	if seed < latticeGrid {
		g := int(seed)
		p.split, p.strategy, p.class = g%2 == 1, latticeStrategies[g/2%4], g/8
	} else {
		p.split, p.strategy, p.class = rng.Intn(2) == 1, latticeStrategies[rng.Intn(4)], rng.Intn(numClasses)
	}
	// Sessions alternate pcg, split per matrix.
	p.session = 2 * rng.Intn(sessions/2)
	if p.split {
		p.session++
	}
	p.width = latticeWidths[rng.Intn(len(latticeWidths))]
	if rng.Intn(2) == 1 {
		p.sdc = latticeSDC
	}
	p.traced = rng.Intn(2) == 1

	// Every event strikes within the first iterations, well before any column
	// of these systems converges. Flipped bits stay below the high exponent
	// bits: the corrupted value is wrong by up to 2^±8 but finite, so what a
	// detector sees is drift, not an overflowed iterate.
	iter := func() int { return rng.Intn(10) }
	victims := func(n int) []int { return rng.Perm(latticeRanks)[:n] }
	flip := func(target string) faults.Event {
		return faults.BitFlip(iter(), rng.Intn(latticeRanks), target, rng.Intn(64), rng.Intn(56))
	}
	switch {
	case p.class == classSimultaneous:
		n := latticePhi // the grid pins the most the redundancy covers
		if seed >= latticeGrid {
			n = 1 + rng.Intn(latticePhi)
		}
		p.sched = faults.NewSchedule(faults.Simultaneous(iter(), victims(n)...))
	case p.class >= classOverlap1 && p.class <= classOverlap5:
		j, v := iter(), victims(2)
		p.sched = faults.NewSchedule(faults.Simultaneous(j, v[0]),
			faults.Overlapping(j, p.class-classOverlap1+1, v[1]))
	case p.class >= classFlipX && p.class <= classFlipZ:
		p.sched = faults.NewSchedule(flip(latticeTargets[p.class-classFlipX]))
	case p.class == classMixed:
		p.sched = faults.NewSchedule(flip(latticeTargets[rng.Intn(4)]),
			faults.Simultaneous(iter(), victims(1+rng.Intn(2))...), flip(latticeTargets[rng.Intn(4)]))
	case p.class == classOverload:
		p.sched = faults.NewSchedule(faults.Simultaneous(iter(),
			faults.ContiguousRanks(rng.Intn(latticeRanks), latticePhi+1, latticeRanks)...))
	}
	return p
}

// latticeRHS builds the point's right-hand sides: distinct smooth columns,
// and at width 8 one zero column and one duplicate of column 0.
func latticeRHS(n, width int, seed int64) [][]float64 {
	bs := make([][]float64, width)
	for c := range bs {
		bs[c] = make([]float64, n)
		for i := range bs[c] {
			bs[c][i] = 1 + 0.5*math.Sin(float64(c+1)*float64(i+1)+float64(seed%7))
		}
	}
	if width == 8 {
		bs[3] = make([]float64, n)
		bs[7] = bs[0]
	}
	return bs
}

// countingTracer counts what a traced solve reported.
type countingTracer struct{ iterations, recoveries int }

func (c *countingTracer) TraceIteration(core.IterationTrace) { c.iterations++ }
func (c *countingTracer) TraceRecovery(core.RecoveryTrace)   { c.recoveries++ }

func TestConfigurationLattice(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = latticeGrid
	}
	if v := os.Getenv("LATTICE_SEEDS"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			t.Fatalf("bad LATTICE_SEEDS %q", v)
		}
		seeds = n
	}
	first := int64(0)
	if v := os.Getenv("LATTICE_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			t.Fatalf("bad LATTICE_SEED %q", v)
		}
		first, seeds = n, n+1
	}

	specs := []MatrixSpec{
		{Generator: "poisson2d", Params: map[string]float64{"nx": 16, "ny": 14}},
		{Generator: "circuit", Params: map[string]float64{"n": 240, "avgdeg": 2.9, "longrange": 0.35, "seed": 3}},
	}
	var mats []*sparse.CSR
	var sessions []*Prepared
	for _, spec := range specs {
		a, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{
			{Ranks: latticeRanks, Phi: latticePhi, Preconditioner: PrecondBlockJacobiILU},
			{Ranks: latticeRanks, Phi: latticePhi, Preconditioner: PrecondIC0, Method: MethodSPCG},
		} {
			ps, err := Prepare(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()
			mats, sessions = append(mats, a), append(sessions, ps)
		}
	}

	for seed := first; seed < seeds; seed++ {
		p := latticePointAt(seed, len(sessions))
		if msg := checkLatticePoint(p, mats[p.session], sessions[p.session]); msg != "" {
			t.Errorf("%s\n  repro: LATTICE_SEED=%d go test -run TestConfigurationLattice ./internal/engine  (%s)", msg, seed, p)
		}
	}
}

// checkLatticePoint solves the point as one block and column by column and
// returns the first contract violation ("" for none).
func checkLatticePoint(p latticePoint, a *sparse.CSR, ps *Prepared) string {
	bs := latticeRHS(a.Rows, p.width, p.seed)
	opts := Config{Tol: latticeTol, Schedule: p.sched, Strategy: p.strategy,
		CheckpointInterval: latticeInterval, SDCCheckInterval: p.sdc}
	ctx, cancel := context.WithTimeout(context.Background(), latticeDeadline)
	defer cancel()

	blockOpts := opts
	var tracer countingTracer
	if p.traced {
		blockOpts.Tracer = &tracer
	}
	sols, colErrs, err := ps.SolveBlock(ctx, bs, blockOpts)
	if ctx.Err() != nil {
		return "block solve missed the deadline"
	}
	if err != nil {
		// A failure of the whole block is legitimate only outside the
		// contract, and then it is classed — and some column's solo solve
		// fails the same way (a column that had landed before the event never
		// sees it).
		if p.class != classOverload || p.strategy == StrategyCheckpoint || p.strategy == StrategyRestart {
			return fmt.Sprintf("block failed inside the contract: %v", err)
		}
		if !errors.Is(err, xerr.DataLoss) {
			return fmt.Sprintf("block failure %v is not data_loss-classed", err)
		}
		for c := range bs {
			if _, soloErr := ps.Solve(ctx, bs[c], opts); xerr.ClassOf(soloErr) == xerr.DataLoss {
				return ""
			}
		}
		return fmt.Sprintf("block failed with %v, no solo column did", err)
	}
	if p.traced && tracer.iterations == 0 && sols[0].Result.Iterations > 0 {
		return "the tracer saw no iteration"
	}

	// A flip the strategy cannot repair is outside the contract.
	unrepaired := p.hasFlip() && !p.repairs()
	for c := range bs {
		solo, soloErr := ps.Solve(ctx, bs[c], opts)
		if ctx.Err() != nil {
			return fmt.Sprintf("column %d: solo solve missed the deadline", c)
		}
		// (a) the same outcome ...
		if (colErrs[c] == nil) != (soloErr == nil) || xerr.ClassOf(colErrs[c]) != xerr.ClassOf(soloErr) {
			return fmt.Sprintf("column %d: block error %v, solo error %v", c, colErrs[c], soloErr)
		}
		if colErrs[c] != nil {
			// (d) ... which is a failure only where a flip went unrepaired, as
			// loud in the block as alone: the armed detector refusing to land
			// the column — data_loss-classed, at the same iteration — or the
			// corrupted recurrence breaking down before any check sees it.
			var be, se *core.SDCDetectedError
			switch {
			case !unrepaired:
				return fmt.Sprintf("column %d: failure inside the contract: %v", c, colErrs[c])
			case errors.As(colErrs[c], &be) != errors.As(soloErr, &se):
				return fmt.Sprintf("column %d: block error %v, solo error %v", c, colErrs[c], soloErr)
			case be != nil && (p.sdc == 0 || be.Iteration != se.Iteration || !errors.Is(colErrs[c], xerr.DataLoss)):
				return fmt.Sprintf("column %d: detection %v, solo %v", c, colErrs[c], soloErr)
			}
			continue
		}
		// ... down to the bits of x and every count.
		got, want := sols[c], solo
		for i := range want.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				return fmt.Sprintf("column %d: x[%d] = %x, solo %x", c, i, got.X[i], want.X[i])
			}
		}
		if g, w := latticeCounts(got.Result), latticeCounts(want.Result); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("column %d: counts %+v, solo %+v", c, g, w)
		}
		// With no detector armed an unrepaired flip promises nothing more than
		// the determinism just checked — the corrupted recurrence may land on
		// a wrong x or never land at all.
		if unrepaired && p.sdc == 0 {
			continue
		}
		res := got.Result
		if !res.Converged {
			return fmt.Sprintf("column %d did not converge: %+v", c, res)
		}

		// (c) every executed iteration is a converged one or a redone one.
		redone := 0
		for _, rec := range res.Reconstructions {
			switch p.strategy {
			case StrategyCheckpoint:
				redone += rec.Iteration%latticeInterval + 1
			case StrategyRestart:
				redone += rec.Iteration + 1
			}
		}
		if res.WorkIterations != res.Iterations+redone {
			return fmt.Sprintf("column %d: %d work iterations, want %d + %d redone", c, res.WorkIterations, res.Iterations, redone)
		}
		if p.repairs() && (res.SDCDetected != res.SDCInjected || res.SDCCorrected != res.SDCInjected || res.SDCLatency != 0) {
			return fmt.Sprintf("column %d: twin left SDC counters %d/%d/%d latency %d", c,
				res.SDCInjected, res.SDCDetected, res.SDCCorrected, res.SDCLatency)
		}

		// (b) the answer is an answer. With the detector armed, an unrepaired
		// column lands only within the detector's own drift tolerance of the
		// target.
		bound := latticeTol
		if unrepaired {
			bound += 1e-7
		}
		r := make([]float64, a.Rows)
		a.MulVec(r, got.X)
		rn, bn := 0.0, 0.0
		for i := range r {
			rn += (bs[c][i] - r[i]) * (bs[c][i] - r[i])
			bn += bs[c][i] * bs[c][i]
		}
		// One percent of slack: the recurrence residual meets the target, the
		// true one follows it to rounding and the subsystem tolerance.
		if math.Sqrt(rn) > 1.01*bound*math.Sqrt(bn) {
			return fmt.Sprintf("column %d: ||b - A x|| = %g exceeds %g ||b|| = %g", c, math.Sqrt(rn), bound, bound*math.Sqrt(bn))
		}
	}
	if p.width == 8 {
		if r := sols[3].Result; r.Iterations != 0 || len(r.Reconstructions) != 0 || r.SDCInjected != 0 {
			return fmt.Sprintf("the zero column ran: %+v", r)
		}
		if colErrs[0] == nil && colErrs[7] == nil && !reflect.DeepEqual(sols[0].X, sols[7].X) {
			return "duplicate columns diverged"
		}
	}
	return ""
}

// latticeCounts is every integer field of a Result (and the per-episode
// ones), the part of (a) beyond the solution bits.
func latticeCounts(r core.Result) []int {
	counts := []int{r.Iterations, r.WorkIterations, r.SDCInjected, r.SDCDetected, r.SDCCorrected, r.SDCLatency,
		len(r.Reconstructions)}
	for _, rec := range r.Reconstructions {
		counts = append(counts, rec.Iteration, rec.Restarts, rec.SubIterations, len(rec.FailedRanks))
		counts = append(counts, rec.FailedRanks...)
	}
	return counts
}
