package engine

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/matgen"
)

// TestQuickTransportConfigValidation: transport names are validated at the
// door and defaulted to chan, which the accepted synonym "fast" resolves to.
func TestQuickTransportConfigValidation(t *testing.T) {
	cfg := Config{Transport: "carrier-pigeon"}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "transport") {
		t.Fatalf("want transport validation error, got %v", err)
	}
	for _, tr := range []string{"", TransportChan, fastSynonym, TransportChaos, TransportNet} {
		cfg := Config{Transport: tr}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("transport %q should validate: %v", tr, err)
		}
	}
	for _, tr := range []string{"", fastSynonym} {
		if got := (Config{Transport: tr}).WithDefaults().Transport; got != TransportChan {
			t.Fatalf("transport %q resolves to %q, want %q", tr, got, TransportChan)
		}
	}
}

// TestQuickTransportPrepKey: preparation is deterministic and
// fabric-independent, so neither the transport nor the chaos seed may
// fragment the prepared-session cache key.
func TestQuickTransportPrepKey(t *testing.T) {
	base := prepKey("h", Config{Ranks: 4})
	for _, cfg := range []Config{
		{Ranks: 4, Transport: fastSynonym},
		{Ranks: 4, Transport: TransportNet},
		{Ranks: 4, TransportSeed: 99},
		{Ranks: 4, Transport: TransportChaos},
		{Ranks: 4, Transport: TransportChaos, TransportSeed: 99},
	} {
		if prepKey("h", cfg) != base {
			t.Fatalf("%+v keys the prep cache; the fabric must not", cfg)
		}
	}
}

// TestCrossTransportBitIdentical: a fixed-seed ESR-PCG solve with a 2-node
// failure produces bit-identical solutions on every transport — the chaos
// wire's reordering/latency and the net wire's codec must not change a
// single ulp, because the reduction tree and the selective matching pin the
// numerics — and on the poisoning recycler (poisonTransport), where any read
// of a payload after it was recycled would surface as a NaN instead.
func TestCrossTransportBitIdentical(t *testing.T) {
	a := matgen.Poisson2D(32, 32)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)/7
	}
	sched := func() *faults.Schedule {
		return faults.NewSchedule(faults.Simultaneous(5, 2, 3))
	}
	solve := func(tr string) Solution {
		t.Helper()
		cfg := Config{Ranks: 8, Phi: 2}
		if tr != poisoned {
			cfg.Transport = tr
		}
		ps, err := Prepare(a, cfg)
		if err != nil {
			t.Fatalf("transport %q: %v", tr, err)
		}
		defer ps.Close()
		var sol Solution
		if tr == poisoned {
			sol, err = ps.solveOne(context.Background(), poisonedRuntime(ps.Ranks()), nil, b, &Config{Schedule: sched()}, core.Options{})
		} else {
			sol, err = ps.Solve(context.Background(), b, Config{Schedule: sched()})
		}
		if err != nil {
			t.Fatalf("transport %q: %v", tr, err)
		}
		if !sol.Result.Converged {
			t.Fatalf("transport %q: did not converge", tr)
		}
		if len(sol.Result.Reconstructions) != 1 {
			t.Fatalf("transport %q: %d reconstructions, want 1",
				tr, len(sol.Result.Reconstructions))
		}
		return sol
	}
	same := func(label string, got, ref Solution) {
		t.Helper()
		if got.Result.Iterations != ref.Result.Iterations {
			t.Fatalf("%s: %d iterations, reference took %d",
				label, got.Result.Iterations, ref.Result.Iterations)
		}
		if got.Result.FinalResidual != ref.Result.FinalResidual {
			t.Fatalf("%s: final residual %g != reference %g",
				label, got.Result.FinalResidual, ref.Result.FinalResidual)
		}
		for i := range ref.X {
			if got.X[i] != ref.X[i] {
				t.Fatalf("%s: x[%d] = %g differs from reference %g",
					label, i, got.X[i], ref.X[i])
			}
		}
	}
	ref := solve(TransportChan)
	// net runs in self-loop mode here: every message crosses a real loopback
	// TCP socket, and the wire codec's float64-bit round-trip must not change
	// a single ulp. (The multi-process leg, with the failure as a real
	// SIGKILLed worker process, is TestCrossTransportBitIdenticalNetProcessKill.)
	for _, tr := range []string{TransportChaos, TransportNet, poisoned} {
		same("transport "+tr, solve(tr), ref)
	}

	// Tracing is observer-only: a solve with a Tracer installed must stay
	// bit-identical to the untraced reference — the clock reads sit outside
	// every floating-point statement — while actually capturing the
	// iteration phases, residual trajectory and the recovery episode.
	var iters []core.IterationTrace
	var recs []core.RecoveryTrace
	traced := func() Solution {
		t.Helper()
		ps, err := Prepare(a, Config{Ranks: 8, Phi: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		sol, err := ps.Solve(context.Background(), b, Config{
			Schedule: sched(),
			Tracer: core.MultiTracer(traceFunc{
				iter: func(it core.IterationTrace) { iters = append(iters, it) },
				rec:  func(rt core.RecoveryTrace) { recs = append(recs, rt) },
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	sol := traced()
	same("traced solve", sol, ref)
	if len(iters) != sol.Result.Iterations {
		t.Fatalf("tracer saw %d iterations, solve took %d", len(iters), sol.Result.Iterations)
	}
	last := iters[len(iters)-1]
	if last.Iteration != sol.Result.Iterations || last.Residual != sol.Result.FinalResidual {
		t.Fatalf("last trace %+v does not match result %+v", last, sol.Result)
	}
	if len(recs) != 1 || recs[0].Strategy != StrategyESR || len(recs[0].FailedRanks) != 2 {
		t.Fatalf("recovery traces = %+v", recs)
	}
	var sawPhases bool
	for _, it := range iters {
		if it.SpMV > 0 && it.Precond > 0 && it.Allreduce > 0 {
			sawPhases = true
		}
	}
	if !sawPhases {
		t.Fatal("no iteration carried all three phase durations")
	}
}

// poisonTransport is the in-process fabric with a recycler that bites:
// PutFloats overwrites the buffer with NaN and never hands it out again.
// With pooled payloads on every fabric there is no plain-allocation
// transport left to diff against, so this is the ownership oracle — a read
// after recycle, which the real pool turns into a lucky pass or a rare
// heisenbug, becomes a NaN residual on the first run. No configuration name
// selects it: tests hand its runtime to solveOne / solveOn.
type poisonTransport struct{ *cluster.LocalTransport }

func (poisonTransport) PutFloats(buf []float64) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = math.NaN()
	}
}

// poisoned labels the poisonTransport legs of the bit-identity suites.
const poisoned = "poisoned-recycler"

func poisonedRuntime(ranks int) *cluster.Runtime {
	return cluster.New(ranks, cluster.WithTransport(poisonTransport{cluster.NewLocalTransport()}))
}

// TestPoisonedRecyclerBitIdentical runs the two other bit-identity suites of
// the public API — the mixed fail-stop + bit-flip schedule under the twin
// strategy, and blocked-vs-looped batches with and without failures —
// against the poisoning recycler: each solve must equal its default-fabric
// run to the bit, which a single read-after-recycle anywhere in the halo
// exchange, retention, the collectives or a recovery episode would break
// with a NaN.
func TestPoisonedRecyclerBitIdentical(t *testing.T) {
	ctx := context.Background()
	equal := func(t *testing.T, label string, got, want Solution) {
		t.Helper()
		if !got.Result.Converged || got.Result.Iterations != want.Result.Iterations {
			t.Fatalf("%s: converged %v in %d iterations, default fabric took %d",
				label, got.Result.Converged, got.Result.Iterations, want.Result.Iterations)
		}
		for i := range want.X {
			if got.X[i] != want.X[i] {
				t.Fatalf("%s: x[%d] = %x, default fabric %x", label, i, got.X[i], want.X[i])
			}
		}
	}
	rhs := func(n, j int) []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = 1 + float64((i+3*j)%7)/7
		}
		return b
	}

	t.Run("mixed-schedule-twin", func(t *testing.T) {
		a := matgen.Poisson2D(20, 20)
		ps, err := Prepare(a, Config{Ranks: 4, Phi: 1, Strategy: StrategyTwin})
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		opts := func() *Config {
			return &Config{Schedule: faults.NewSchedule(
				faults.BitFlip(5, 1, faults.TargetX, 3, 52),
				faults.Simultaneous(8, 2),
				faults.BitFlip(12, 0, faults.TargetR, 0, 51),
			)}
		}
		b := rhs(a.Rows, 0)
		want, err := ps.Solve(ctx, b, *opts())
		if err != nil {
			t.Fatal(err)
		}
		got, err := ps.solveOne(ctx, poisonedRuntime(4), nil, b, opts(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r := got.Result; len(r.Reconstructions) != 1 || r.SDCInjected != 2 || r.SDCCorrected != 2 {
			t.Fatalf("episodes %d, SDC %d/%d/%d, want 1 and 2/2/2",
				len(r.Reconstructions), r.SDCInjected, r.SDCDetected, r.SDCCorrected)
		}
		equal(t, "twin", got, want)
	})

	for name, sched := range map[string]func() *faults.Schedule{
		"blocked-vs-looped":      func() *faults.Schedule { return nil },
		"blocked-under-failures": func() *faults.Schedule { return faults.NewSchedule(faults.Simultaneous(6, 1, 2)) },
	} {
		t.Run(name, func(t *testing.T) {
			a := matgen.Poisson2D(16, 16)
			ps, err := Prepare(a, Config{Ranks: 4, Phi: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()
			const k = 4
			bs := make([][]float64, k)
			for j := range bs {
				bs[j] = rhs(a.Rows, j)
			}
			cfg, err := ps.policy(&Config{Schedule: sched()})
			if err != nil {
				t.Fatal(err)
			}
			blocked, colErrs, err := ps.solveOn(ctx, poisonedRuntime(4), nil, bs, cfg, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for j := range bs {
				if colErrs[j] != nil {
					t.Fatalf("column %d: %v", j, colErrs[j])
				}
				want, err := ps.Solve(ctx, bs[j], Config{Schedule: sched()})
				if err != nil {
					t.Fatal(err)
				}
				looped, err := ps.solveOne(ctx, poisonedRuntime(4), nil, bs[j], &Config{Schedule: sched()}, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				equal(t, "looped column", looped, want)
				equal(t, "blocked column", blocked[j], want)
			}
		})
	}
}

// traceFunc adapts two closures to core.Tracer for tests.
type traceFunc struct {
	iter func(core.IterationTrace)
	rec  func(core.RecoveryTrace)
}

func (f traceFunc) TraceIteration(it core.IterationTrace) { f.iter(it) }
func (f traceFunc) TraceRecovery(rt core.RecoveryTrace)   { f.rec(rt) }

// TestQuickTransportSessionStats: prepared sessions report their transport
// (the synonym "fast" as the fabric it resolves to), accumulate per-runtime
// stats, and the engine's default transport applies to jobs that did not
// pick one.
func TestQuickTransportSessionStats(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	prep, err := Prepare(a, Config{Ranks: 4, Transport: fastSynonym})
	if err != nil {
		t.Fatal(err)
	}
	defer prep.Close()
	if prep.TransportName() != TransportChan {
		t.Fatalf("TransportName = %q", prep.TransportName())
	}
	afterPrep := prep.TransportStats()
	if afterPrep.Delivered == 0 {
		t.Fatalf("preparation exchanged no messages? %+v", afterPrep)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	if _, err := prep.Solve(context.Background(), b, Config{}); err != nil {
		t.Fatal(err)
	}
	afterSolve := prep.TransportStats()
	if afterSolve.Delivered <= afterPrep.Delivered {
		t.Fatalf("solve did not add transport stats: %+v -> %+v", afterPrep, afterSolve)
	}
	if afterSolve.PoolGets == 0 {
		t.Fatalf("recycler unused: %+v", afterSolve)
	}

	eng := New(Options{Workers: 1, Defaults: Defaults{Transport: TransportChaos}})
	defer eng.Close()
	id, err := eng.Submit(JobSpec{
		Matrix: MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 12}},
		Config: Config{Ranks: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, eng, id, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	usage := eng.TransportStats()
	u, ok := usage[TransportChaos]
	if !ok || u.Runs < 2 { // one preparation + one solve
		t.Fatalf("engine transport gauges missing chaos runs: %+v", usage)
	}
	if _, ok := usage[TransportChan]; ok {
		t.Fatalf("no chan runtime should have run: %+v", usage)
	}
}
