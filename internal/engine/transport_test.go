package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/matgen"
)

// TestQuickTransportConfigValidation: transport names are validated at the
// door and defaulted to chan.
func TestQuickTransportConfigValidation(t *testing.T) {
	cfg := Config{Transport: "carrier-pigeon"}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "transport") {
		t.Fatalf("want transport validation error, got %v", err)
	}
	for _, tr := range []string{"", TransportChan, TransportFast, TransportChaos, TransportNet} {
		cfg := Config{Transport: tr}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("transport %q should validate: %v", tr, err)
		}
	}
	if got := (Config{}).WithDefaults().Transport; got != TransportChan {
		t.Fatalf("default transport = %q, want %q", got, TransportChan)
	}
}

// TestQuickTransportPrepKey: preparation is deterministic and
// fabric-independent, so neither the transport nor the chaos seed may
// fragment the prepared-session cache key.
func TestQuickTransportPrepKey(t *testing.T) {
	base := prepKey("h", Config{Ranks: 4})
	for _, cfg := range []Config{
		{Ranks: 4, Transport: TransportFast},
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
// failure produces bit-identical solutions on the chan and fast transports
// (the zero-copy contract must not change a single ulp), and the chaos
// wire's reordering/latency must not either — the reduction tree and the
// selective matching pin the numerics. The overlapped (communication-hiding)
// SpMV must equal the phased reference on every transport too, under the
// same failure schedule: the interior/boundary row split never changes a
// row's accumulation order, even through a reconstruction episode.
func TestCrossTransportBitIdentical(t *testing.T) {
	a := matgen.Poisson2D(32, 32)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)/7
	}
	sched := func() *faults.Schedule {
		return faults.NewSchedule(faults.Simultaneous(5, 2, 3))
	}
	solve := func(tr string, overlap bool) Solution {
		t.Helper()
		ps, err := Prepare(a, Config{Ranks: 8, Phi: 2, Transport: tr})
		if err != nil {
			t.Fatalf("transport %q: %v", tr, err)
		}
		defer ps.Close()
		ps.SetOverlap(overlap)
		sol, err := ps.Solve(context.Background(), b, SolveOpts{Schedule: sched()})
		if err != nil {
			t.Fatalf("transport %q overlap %v: %v", tr, overlap, err)
		}
		if !sol.Result.Converged {
			t.Fatalf("transport %q overlap %v: did not converge", tr, overlap)
		}
		if len(sol.Result.Reconstructions) != 1 {
			t.Fatalf("transport %q overlap %v: %d reconstructions, want 1",
				tr, overlap, len(sol.Result.Reconstructions))
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
	ref := solve(TransportChan, true)
	// net runs in self-loop mode here: every message crosses a real loopback
	// TCP socket, and the wire codec's float64-bit round-trip must not change
	// a single ulp. (The multi-process leg, with the failure as a real
	// SIGKILLed worker process, is TestCrossTransportBitIdenticalNetProcessKill.)
	for _, tr := range []string{TransportFast, TransportChaos, TransportNet} {
		same("transport "+tr, solve(tr, true), ref)
	}
	// Overlapped vs phased under the 2-node failure schedule, per transport.
	for _, tr := range []string{TransportChan, TransportFast, TransportChaos, TransportNet} {
		same("phased on "+tr, solve(tr, false), ref)
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
		sol, err := ps.Solve(context.Background(), b, SolveOpts{
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

// traceFunc adapts two closures to core.Tracer for tests.
type traceFunc struct {
	iter func(core.IterationTrace)
	rec  func(core.RecoveryTrace)
}

func (f traceFunc) TraceIteration(it core.IterationTrace) { f.iter(it) }
func (f traceFunc) TraceRecovery(rt core.RecoveryTrace)   { f.rec(rt) }

// TestQuickTransportSessionStats: prepared sessions on a non-default
// transport report it, accumulate per-runtime stats, and the engine's
// default transport applies to jobs that did not pick one.
func TestQuickTransportSessionStats(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	prep, err := Prepare(a, Config{Ranks: 4, Transport: TransportFast})
	if err != nil {
		t.Fatal(err)
	}
	defer prep.Close()
	if prep.TransportName() != TransportFast {
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
	if _, err := prep.Solve(context.Background(), b, SolveOpts{}); err != nil {
		t.Fatal(err)
	}
	afterSolve := prep.TransportStats()
	if afterSolve.Delivered <= afterPrep.Delivered {
		t.Fatalf("solve did not add transport stats: %+v -> %+v", afterPrep, afterSolve)
	}
	if afterSolve.PoolGets == 0 {
		t.Fatalf("fast transport recycler unused: %+v", afterSolve)
	}

	eng := New(Options{Workers: 1, Defaults: Defaults{Transport: TransportFast}})
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
	u, ok := usage[TransportFast]
	if !ok || u.Runs < 2 { // one preparation + one solve
		t.Fatalf("engine transport gauges missing fast runs: %+v", usage)
	}
	if _, ok := usage[TransportChan]; ok {
		t.Fatalf("no chan runtime should have run: %+v", usage)
	}
}
