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
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sparse"
	"repro/internal/xerr"
)

// The configuration-lattice generator: one seeded walk over
//
//	recurrence {pcg, split/ic0}
//	x preconditioner {identity, jacobi, block-Jacobi ILU, block-Jacobi
//	  Cholesky, SSOR, IC(0)} (the split recurrence on IC(0) only)
//	x strategy {esr, checkpoint, restart, twin}
//	x checkpoint interval {1, 4, 7} x twin interval {1, 2}
//	x transport {chan, chaos, net self-loop, poisoned recycler}
//	x width {1, 3, 8 with one zero RHS and one duplicate column}
//	x schedule {none, simultaneous, overlapping at each phase, a flip on each
//	  target, mixed kill+flip, more failures than phi}
//	x SDCCheckInterval {0, n} x traced {no, yes}
//
// on one Prepared per (matrix, preconditioner), holding every point to the
// same contract:
//
//	(a) column c of a block run on the point's transport is its solo solve on
//	    chan: bits of X and FinalResidual and every integer field of Result;
//	(b) ||b - A x|| <= tol ||r0||, recomputed serially outside the solver;
//	(c) WorkIterations = Iterations + the iterations the episodes redid, and an
//	    overlap-class episode restarts exactly once (Sec. 4.1);
//	(d) outside the contract — more failures than phi, a flip the strategy
//	    cannot repair — a data_loss-classed error within a deadline, never a
//	    hang;
//	(e) a traced block reports one iteration trace per executed iteration,
//	    the last one the Result's, and one recovery trace per fail-stop
//	    episode naming its strategy and failed ranks.
//
// chan and net (every message through the wire codec and a loopback TCP
// socket) are fabrics the session builds itself; chaos delivers every message
// asynchronously after a seeded delay, reordered across wires; the poisoned
// recycler NaN-fills every payload buffer handed back, so a read after
// recycle anywhere — halo exchange, retention, collectives, an episode —
// shows up as a wrong bit.
//
// Seeds below latticeGrid enumerate recurrence x strategy x schedule class
// (every phase, every target) once and rotate the other axes across them, so
// the short budget already visits every transport x strategy pair and every
// value of every axis; seeds above draw every axis at random. LATTICE_SEEDS
// sizes the walk (the nightly runs a large one), LATTICE_SEED replays a
// single seed.
const (
	latticeRanks    = 8
	latticePhi      = 3
	latticeTol      = 1e-8
	latticeSDC      = 3 // the armed SDCCheckInterval
	latticeDeadline = 60 * time.Second
	// latticeChaosDelay bounds the chaos wire's seeded per-message delay:
	// enough to reorder deliveries across wires at a fraction of the default
	// 200 µs's cost.
	latticeChaosDelay = time.Microsecond
)

var (
	latticePreconds = []string{PrecondIdentity, PrecondJacobi, PrecondBlockJacobiILU,
		PrecondBlockJacobiChol, PrecondSSOR, PrecondIC0}
	latticeStrategies  = []string{StrategyESR, StrategyCheckpoint, StrategyRestart, StrategyTwin}
	latticeTransports  = []string{TransportChan, chaos, TransportNet, poisoned}
	latticeCheckpoints = []int{1, 4, 7}
	latticeTwins       = []int{1, 2}
	latticeWidths      = []int{1, 3, 8}
	latticeTargets     = []string{faults.TargetX, faults.TargetR, faults.TargetP, faults.TargetZ}
)

// ic0 is IC(0)'s index in latticePreconds, the split recurrence's session.
var ic0 = slices.Index(latticePreconds, PrecondIC0)

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
	seed      int64
	matrix    int
	precond   int // index into latticePreconds
	split     bool
	strategy  string
	ckpt      int
	twin      int
	transport string
	width     int
	class     int
	sched     *faults.Schedule
	sdc       int
	traced    bool
}

func (p latticePoint) String() string {
	sched, _ := json.Marshal(p.sched)
	return fmt.Sprintf("matrix=%d precond=%s split=%v strategy=%s ckpt=%d twin=%d transport=%s width=%d class=%d sdc=%d traced=%v schedule=%s",
		p.matrix, latticePreconds[p.precond], p.split, p.strategy, p.ckpt, p.twin, p.transport, p.width, p.class, p.sdc, p.traced, sched)
}

// hasFlip reports whether the point's schedule corrupts state; repairs
// whether its strategy puts every flip right again: the twin's compare
// points are the multiples of its interval.
func (p latticePoint) hasFlip() bool { return p.sched.HasCorruption() }
func (p latticePoint) repairs() bool {
	if p.strategy != StrategyTwin {
		return false
	}
	for _, ev := range p.sched.Events() {
		if ev.IsCorruption() && ev.Iteration%p.twin != 0 {
			return false
		}
	}
	return true
}

func (p latticePoint) overlap() bool { return p.class >= classOverlap1 && p.class <= classOverlap5 }

// latticePointAt derives the configuration of one seed.
func latticePointAt(seed int64, matrices int) latticePoint {
	rng := rand.New(rand.NewSource(seed))
	p := latticePoint{seed: seed}
	if seed < latticeGrid {
		g := int(seed)
		s, class := g/2%4, g/8
		p.split, p.strategy, p.class = g%2 == 1, latticeStrategies[s], class
		// Every strategy meets every transport across the classes, and every
		// class every transport across the strategies.
		p.transport = latticeTransports[(s+class)%4]
		p.precond = g / 2 % len(latticePreconds)
		p.ckpt = latticeCheckpoints[class%3]
		p.twin = latticeTwins[(class+g)%2]
		p.width = latticeWidths[g%3]
	} else {
		p.split, p.strategy, p.class = rng.Intn(2) == 1, latticeStrategies[rng.Intn(4)], rng.Intn(numClasses)
		p.transport = latticeTransports[rng.Intn(len(latticeTransports))]
		p.precond = rng.Intn(len(latticePreconds))
		p.ckpt = latticeCheckpoints[rng.Intn(len(latticeCheckpoints))]
		p.twin = latticeTwins[rng.Intn(len(latticeTwins))]
		p.width = latticeWidths[rng.Intn(len(latticeWidths))]
	}
	if p.split {
		p.precond = ic0
	}
	p.matrix = rng.Intn(matrices)
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
	case p.overlap():
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

// poisonTransport is the in-process fabric with a recycler that bites:
// PutFloats overwrites the buffer with NaN and never hands it out again.
// With pooled payloads on every fabric there is no plain-allocation
// transport left to diff against, so this is the ownership oracle — a read
// after recycle, which the real pool turns into a lucky pass or a rare
// heisenbug, becomes a NaN on the first run. No configuration name selects
// it: the lattice hands its runtime to solveOn.
type poisonTransport struct{ *cluster.LocalTransport }

func (poisonTransport) PutFloats(_ int, buf []float64) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = math.NaN()
	}
}

// chaos and poisoned label the lattice's axis values for the two fabrics
// it builds itself: the seeded chaos wire and poisonTransport.
const (
	chaos    = cluster.TransportChaos
	poisoned = "poisoned-recycler"
)

// latticeTracer records what a traced solve reported.
type latticeTracer struct {
	iterations []core.IterationTrace
	recoveries []core.RecoveryTrace
}

func (l *latticeTracer) TraceIteration(it core.IterationTrace) {
	l.iterations = append(l.iterations, it)
}
func (l *latticeTracer) TraceRecovery(rt core.RecoveryTrace) { l.recoveries = append(l.recoveries, rt) }

func TestConfigurationLattice(t *testing.T) {
	seeds := int64(2 * latticeGrid)
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
	mats := make([]*sparse.CSR, len(specs))
	sessions := make([][]*Prepared, len(specs))
	for m, spec := range specs {
		a, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		mats[m] = a
		for _, pc := range latticePreconds {
			ps, err := Prepare(a, Config{Ranks: latticeRanks, Phi: latticePhi, Preconditioner: pc})
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()
			sessions[m] = append(sessions[m], ps)
		}
	}

	// seen collects the visited values of the axes the coverage line reports.
	seen := map[string]map[string]bool{}
	visit := func(axis string, value any) {
		if seen[axis] == nil {
			seen[axis] = map[string]bool{}
		}
		seen[axis][fmt.Sprint(value)] = true
	}
	for seed := first; seed < seeds; seed++ {
		p := latticePointAt(seed, len(mats))
		visit("transport x strategy", p.transport+"/"+p.strategy)
		if p.width > 1 {
			visit("transports at width > 1", p.transport)
		}
		visit("preconditioners", latticePreconds[p.precond])
		switch p.strategy {
		case StrategyCheckpoint:
			visit("checkpoint intervals", p.ckpt)
		case StrategyTwin:
			visit("twin intervals", p.twin)
		}
		if msg := checkLatticePoint(p, mats[p.matrix], sessions[p.matrix][p.precond]); msg != "" {
			t.Errorf("%s\n  repro: LATTICE_SEED=%d go test -run TestConfigurationLattice ./internal/engine  (%s)", msg, seed, p)
		}
	}

	var line []string
	for _, ax := range []struct {
		name string
		n    int
	}{
		{"transport x strategy", len(latticeTransports) * len(latticeStrategies)},
		{"transports at width > 1", len(latticeTransports)},
		{"preconditioners", len(latticePreconds)},
		{"checkpoint intervals", len(latticeCheckpoints)},
		{"twin intervals", len(latticeTwins)},
	} {
		line = append(line, fmt.Sprintf("%s %d/%d", ax.name, len(seen[ax.name]), ax.n))
		if first == 0 && seeds >= latticeGrid && len(seen[ax.name]) != ax.n {
			t.Errorf("the walk missed %s: visited %v", ax.name, seen[ax.name])
		}
	}
	t.Logf("coverage of seeds %d..%d: %s", first, seeds-1, strings.Join(line, ", "))
}

// latticeBlock solves the point's right-hand sides as one block on the
// point's transport: chan and net on a runtime the session builds, chaos and
// the poisoned recycler on one built here.
func latticeBlock(ctx context.Context, p latticePoint, ps *Prepared, bs [][]float64, opts Config) ([]Solution, []error, error) {
	var rt *cluster.Runtime
	switch p.transport {
	case chaos:
		rt = cluster.New(ps.Ranks(), cluster.WithTransport(cluster.NewChaosTransport(cluster.NewLocalTransport(),
			cluster.ChaosConfig{Seed: p.seed + 1, MaxDelay: latticeChaosDelay})))
	case poisoned:
		rt = cluster.New(ps.Ranks(), cluster.WithTransport(poisonTransport{cluster.NewLocalTransport()}))
	default:
		opts.Transport = p.transport
	}
	cfg, err := ps.policy(&opts)
	if err != nil {
		return nil, nil, err
	}
	return ps.solveOn(ctx, rt, nil, bs, cfg, core.Options{})
}

// checkLatticePoint solves the point as one block on its transport and
// column by column on chan, and returns the first contract violation (""
// for none).
func checkLatticePoint(p latticePoint, a *sparse.CSR, ps *Prepared) string {
	bs := latticeRHS(a.Rows, p.width, p.seed)
	opts := Config{Tol: latticeTol, Schedule: p.sched, Strategy: p.strategy,
		CheckpointInterval: p.ckpt, TwinInterval: p.twin, SDCCheckInterval: p.sdc}
	if p.split {
		opts.Method = MethodSPCG
	}
	ctx, cancel := context.WithTimeout(context.Background(), latticeDeadline)
	defer cancel()

	// The solo solves run beside the block: every solve is deterministic,
	// and these are latency-bound enough to share the cores.
	solos, soloErrs := make([]Solution, len(bs)), make([]error, len(bs))
	var wg sync.WaitGroup
	for c := range bs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			solos[c], soloErrs[c] = ps.Solve(ctx, bs[c], opts)
		}()
	}
	blockOpts := opts
	var tracer latticeTracer
	if p.traced {
		blockOpts.Tracer = &tracer
	}
	sols, colErrs, err := latticeBlock(ctx, p, ps, bs, blockOpts)
	wg.Wait()
	if ctx.Err() != nil {
		return "a solve missed the deadline"
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
		for _, soloErr := range soloErrs {
			if xerr.ClassOf(soloErr) == xerr.DataLoss {
				return ""
			}
		}
		return fmt.Sprintf("block failed with %v, no solo column did", err)
	}

	// A flip the strategy cannot repair is outside the contract.
	unrepaired := p.hasFlip() && !p.repairs()
	failed := false
	for c := range bs {
		solo, soloErr := solos[c], soloErrs[c]
		// (a) the same outcome ...
		if (colErrs[c] == nil) != (soloErr == nil) || xerr.ClassOf(colErrs[c]) != xerr.ClassOf(soloErr) {
			return fmt.Sprintf("column %d: block error %v, solo error %v", c, colErrs[c], soloErr)
		}
		if colErrs[c] != nil {
			// (d) ... which is a failure only where a flip went unrepaired, as
			// loud in the block as alone and data_loss-classed: the armed
			// detector refusing to land the column at the same iteration, or
			// the corrupted recurrence breaking down before any check sees it.
			failed = true
			var be, se *core.SDCDetectedError
			switch {
			case !unrepaired:
				return fmt.Sprintf("column %d: failure inside the contract: %v", c, colErrs[c])
			case !errors.Is(colErrs[c], xerr.DataLoss):
				return fmt.Sprintf("column %d: failure %v is not data_loss-classed", c, colErrs[c])
			case errors.As(colErrs[c], &be) != errors.As(soloErr, &se):
				return fmt.Sprintf("column %d: block error %v, solo error %v", c, colErrs[c], soloErr)
			case be != nil && (p.sdc == 0 || be.Iteration != se.Iteration):
				return fmt.Sprintf("column %d: detection %v, solo %v", c, colErrs[c], soloErr)
			}
			continue
		}
		// ... down to the bits of x, of the final residual and every count.
		got, want := sols[c], solo
		for i := range want.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				return fmt.Sprintf("column %d: x[%d] = %x, solo %x", c, i, got.X[i], want.X[i])
			}
		}
		if g, w := got.Result.FinalResidual, want.Result.FinalResidual; math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("column %d: final residual %x, solo %x", c, g, w)
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

		// (c) every executed iteration is a converged one or a redone one ...
		redone := 0
		for _, rec := range res.Reconstructions {
			switch p.strategy {
			case StrategyCheckpoint:
				redone += rec.Iteration%p.ckpt + 1
			case StrategyRestart:
				redone += rec.Iteration + 1
			}
		}
		if res.WorkIterations != res.Iterations+redone {
			return fmt.Sprintf("column %d: %d work iterations, want %d + %d redone", c, res.WorkIterations, res.Iterations, redone)
		}
		// ... and a failure overlapping an episode restarts it once (Sec. 4.1).
		if p.overlap() && res.Iterations > 0 && (len(res.Reconstructions) != 1 || res.Reconstructions[0].Restarts != 1) {
			return fmt.Sprintf("column %d: overlapping failure gave episodes %+v, want one restarted once", c, res.Reconstructions)
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
	if p.traced && !failed {
		return checkLatticeTrace(&tracer, sols, p.strategy)
	}
	return ""
}

// checkLatticeTrace holds the trace of a block whose every column landed to
// (e). The last iteration the block executed is that of the column landing
// last (the largest residual among columns landing together), which lived
// through every pass of the loop: its iterations, plus the iterations each
// fail-stop episode threw away and the loop then ran again, are the passes
// traced. Its episodes are the fail-stop recovery traces.
func checkLatticeTrace(tr *latticeTracer, sols []Solution, strategy string) string {
	last := sols[0].Result
	for _, s := range sols[1:] {
		if r := s.Result; r.Iterations > last.Iterations || r.Iterations == last.Iterations && r.FinalResidual > last.FinalResidual {
			last = r
		}
	}
	want := last.Iterations
	var episodes []core.RecoveryTrace
	for _, rt := range tr.recoveries {
		if !rt.Corruption {
			episodes = append(episodes, rt)
			want += rt.RedoneIterations
		}
	}
	if len(tr.iterations) != want {
		return fmt.Sprintf("%d iteration traces, want %d iterations + %d redone", len(tr.iterations), last.Iterations, want-last.Iterations)
	}
	if want > 0 {
		if it := tr.iterations[want-1]; it.Iteration != last.Iterations || it.Residual != last.FinalResidual {
			return fmt.Sprintf("last iteration trace %+v, result iteration %d residual %v", it, last.Iterations, last.FinalResidual)
		}
	}
	if len(episodes) != len(last.Reconstructions) {
		return fmt.Sprintf("%d fail-stop recovery traces, %d episodes", len(episodes), len(last.Reconstructions))
	}
	for i, rec := range last.Reconstructions {
		if rt := episodes[i]; rt.Strategy != strategy || rt.Iteration != rec.Iteration || !reflect.DeepEqual(rt.FailedRanks, rec.FailedRanks) {
			return fmt.Sprintf("recovery trace %+v, episode %+v under %s", rt, rec, strategy)
		}
	}
	for _, it := range tr.iterations {
		if it.SpMV > 0 && it.Precond > 0 && it.Allreduce > 0 {
			return ""
		}
	}
	if want > 0 {
		return "no iteration trace carried all three phase durations"
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
