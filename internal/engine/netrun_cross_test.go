// External test package: the multi-process leg of the cross-transport
// bit-identity suite. It lives outside package engine because it drives
// internal/netrun, which itself imports engine.
package engine_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/netrun"
	"repro/internal/xerr"
)

// errorRankEnv names the rank whose worker process, instead of running
// RunWorker, answers its job with a classed error result
// (TestNetFleetFirstErrorEndsAttempt).
const errorRankEnv = "NETRUN_TEST_ERROR_RANK"

// TestMain doubles this test binary as the netrun worker executable: the
// coordinator re-execs os.Args[0], and the ESRD_NET_* environment routes
// the child into RunWorker before any test runs.
func TestMain(m *testing.M) {
	if netrun.IsWorker() {
		run := netrun.RunWorker
		if r := os.Getenv(errorRankEnv); r != "" && r == os.Getenv(netrun.EnvRank) {
			run = answerWithError
		}
		if err := run(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// answerWithError plays a worker that reports in with a data listener it
// never serves, waits for its job and answers it with a data_loss result,
// speaking the control protocol's newline JSON by hand. Its peers stay
// blocked on its rank for good.
func answerWithError() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", os.Getenv(netrun.EnvCoord))
	if err != nil {
		return err
	}
	defer conn.Close()
	rank := os.Getenv(netrun.EnvRank)
	enc := json.NewEncoder(conn)
	if err := enc.Encode(map[string]any{"type": "hello", "rank": json.Number(rank), "addr": ln.Addr().String()}); err != nil {
		return err
	}
	var start struct{ Type string }
	if err := json.NewDecoder(conn).Decode(&start); err != nil || start.Type != "start" {
		return fmt.Errorf("waiting for start: %q, %v", start.Type, err)
	}
	return enc.Encode(map[string]any{"type": "result", "err": "rank " + rank + ": injected failure", "code": xerr.DataLoss.Code()})
}

// TestNetFleetFirstErrorEndsAttempt: the first error result ends the
// attempt with that error's class, at once and without a retry, although
// the other workers are blocked on the failed rank and will never send
// theirs; the coordinator kills them.
func TestNetFleetFirstErrorEndsAttempt(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a fleet of worker processes")
	}
	t.Setenv(errorRankEnv, "2")
	coord, err := netrun.NewCoordinator(netrun.Options{Command: []string{os.Args[0]}, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, _, err = coord.Run(ctx, engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 32}},
		Config: engine.Config{Ranks: 4, Transport: engine.TransportNet},
	}, &fleetLog{})
	if !errors.Is(err, xerr.DataLoss) || !strings.Contains(fmt.Sprint(err), "rank 2: injected failure") {
		t.Fatalf("fleet job: %v (class %q), want rank 2's %q result", err, xerr.Code(err), xerr.DataLoss.Code())
	}
	if coord.JobRetries() != 0 {
		t.Fatalf("fleet job retried %d times, want none", coord.JobRetries())
	}
	for coord.LiveWorkers() != 0 {
		if ctx.Err() != nil {
			t.Fatalf("%d worker processes still running after the attempt ended", coord.LiveWorkers())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrossTransportBitIdenticalNetProcessKill: a fixed-seed solve under a
// 2-node failure schedule, with every rank in its own OS process over TCP
// and the scheduled failure realized as two workers reporting their deaths
// mid-solve and being SIGKILLed by the coordinator — the multi-process leg
// of the contract TestConfigurationLattice holds in process on every
// fabric. The coordinator
// respawns them, the replacements join the recovery episode via Resume, and
// the solution must be bitwise identical to the in-process chan reference —
// iterations, final residual, and every solution component.
func TestCrossTransportBitIdenticalNetProcessKill(t *testing.T) {
	netProcessKillBitIdentical(t, engine.Config{Ranks: 8, Phi: 2})
}

// TestCrossTransportBitIdenticalNetProcessKillSPCG: SPCG survives a real
// process death. The split recurrence runs the driver's loop, so the
// replacements rejoin through the same Resume entry and the same episode —
// with the split rebuild step — bit for bit.
func TestCrossTransportBitIdenticalNetProcessKillSPCG(t *testing.T) {
	netProcessKillBitIdentical(t, engine.Config{Ranks: 8, Phi: 2,
		Method: engine.MethodSPCG, Preconditioner: engine.PrecondIC0})
}

// fleetLog is a Tracer recording what a fleet's rank 0 shipped.
type fleetLog struct {
	iterations []core.IterationTrace
	recoveries []core.RecoveryTrace
}

func (l *fleetLog) TraceIteration(it core.IterationTrace) { l.iterations = append(l.iterations, it) }
func (l *fleetLog) TraceRecovery(rt core.RecoveryTrace)   { l.recoveries = append(l.recoveries, rt) }

// netProcessKillBitIdentical solves one system under a scheduled 2-node
// failure twice — in process on the chan fabric, and on a fleet of worker
// processes whose victims really die — and requires identical bits.
func netProcessKillBitIdentical(t *testing.T, cfg engine.Config) {
	if testing.Short() {
		t.Skip("spawns a fleet of worker processes")
	}
	a := matgen.Poisson2D(32, 32)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)/7
	}
	sched := faults.NewSchedule(faults.Simultaneous(5, 2, 3))

	ps, err := engine.Prepare(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ref, err := ps.Solve(context.Background(), b, engine.Config{Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Result.Converged || len(ref.Result.Reconstructions) != 1 {
		t.Fatalf("reference: converged=%v reconstructions=%d", ref.Result.Converged, len(ref.Result.Reconstructions))
	}

	coord, err := netrun.NewCoordinator(netrun.Options{
		Command: []string{os.Args[0]},
		Log:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cfg.Transport, cfg.Schedule = engine.TransportNet, sched
	var seen fleetLog
	sol, stats, err := coord.Run(ctx, engine.JobSpec{
		Matrix:       engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 32, "ny": 32}},
		RHS:          b,
		Config:       cfg,
		KeepSolution: true,
	}, &seen)
	if err != nil {
		t.Fatalf("multi-process solve: %v", err)
	}
	if !sol.Result.Converged {
		t.Fatal("multi-process solve did not converge")
	}
	if got := len(sol.Result.Reconstructions); got != 1 {
		t.Fatalf("reconstructions = %d, want 1", got)
	}
	if got := coord.Respawns(); got != 2 {
		t.Fatalf("respawns = %d, want 2 (one per SIGKILLed victim)", got)
	}
	// Rank 0's traces cross the control connection intact: one per
	// iteration, and the episode with the record its Result carries.
	if len(seen.iterations) != sol.Result.Iterations || len(seen.recoveries) != 1 {
		t.Fatalf("fleet traced %d iterations and %d episodes; want %d and 1",
			len(seen.iterations), len(seen.recoveries), sol.Result.Iterations)
	}
	if rec := seen.recoveries[0].Reconstruction; rec == nil || !reflect.DeepEqual(*rec, sol.Result.Reconstructions[0]) {
		t.Fatalf("fleet traced episode %+v, result %+v", rec, sol.Result.Reconstructions[0])
	}
	if stats.BytesSent == 0 || stats.BytesReceived == 0 {
		t.Fatalf("fleet reported no wire traffic: %+v", stats)
	}

	if sol.Result.Iterations != ref.Result.Iterations {
		t.Fatalf("iterations %d != reference %d", sol.Result.Iterations, ref.Result.Iterations)
	}
	if sol.Result.FinalResidual != ref.Result.FinalResidual {
		t.Fatalf("final residual %g != reference %g", sol.Result.FinalResidual, ref.Result.FinalResidual)
	}
	if len(sol.X) != len(ref.X) {
		t.Fatalf("solution length %d != reference %d", len(sol.X), len(ref.X))
	}
	for i := range ref.X {
		if sol.X[i] != ref.X[i] {
			t.Fatalf("x[%d] = %g differs from reference %g", i, sol.X[i], ref.X[i])
		}
	}
}

// TestNetFleetDataLossKeepsClass: a fleet job losing more ranks at once
// than phi covers ends data_loss, as the same job does in process: the
// worker's error class crosses the control connection, and the failing
// rank is named once.
func TestNetFleetDataLossKeepsClass(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a fleet of worker processes")
	}
	coord, err := netrun.NewCoordinator(netrun.Options{Command: []string{os.Args[0]}, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, _, err = coord.Run(ctx, engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 32, "ny": 32}},
		Config: engine.Config{Ranks: 8, Phi: 1, Transport: engine.TransportNet,
			Schedule: faults.NewSchedule(faults.Simultaneous(5, 2, 3))},
	}, &fleetLog{})
	if !errors.Is(err, xerr.DataLoss) {
		t.Fatalf("fleet job losing 2 ranks at phi 1: %v (class %q), want %q", err, xerr.Code(err), xerr.DataLoss.Code())
	}
	if regexp.MustCompile(`rank \d+: rank \d+:`).MatchString(err.Error()) {
		t.Fatalf("rank named twice: %v", err)
	}
}

// TestNetFleetSetupFailureKeepsClass: a worker whose setup fails (here the
// matrix, which holds a nan entry) reports the failure as its result, so the
// job fails once with the class the in-process path gives it: no retry on a
// fresh fleet, no respawn.
func TestNetFleetSetupFailureKeepsClass(t *testing.T) {
	mm := "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 nan\n2 2 1\n"
	fleetJobFailsOnce(t, engine.JobSpec{
		Matrix: engine.MatrixSpec{MatrixMarket: []byte(mm)},
		Config: engine.Config{Ranks: 2, Transport: engine.TransportNet},
	}, "not finite")
}

// TestNetFleetCholBlockCap: TestQuickCholBlockCap's refusal holds on a
// fleet, where every worker prepares its own session: a 4 225-row dense
// Cholesky block on one rank fails invalid_argument naming the cap.
func TestNetFleetCholBlockCap(t *testing.T) {
	fleetJobFailsOnce(t, engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 65}},
		Config: engine.Config{Ranks: 1, Transport: engine.TransportNet, Preconditioner: engine.PrecondBlockJacobiChol},
	}, "exceeds 4096")
}

// fleetJobFailsOnce runs spec on a fresh coordinator and requires it to
// fail invalid_argument with an error containing want, on its first fleet
// and with no respawn.
func fleetJobFailsOnce(t *testing.T, spec engine.JobSpec, want string) {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns a fleet of worker processes")
	}
	coord, err := netrun.NewCoordinator(netrun.Options{Command: []string{os.Args[0]}, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, _, err = coord.Run(ctx, spec, &fleetLog{})
	if !errors.Is(err, xerr.InvalidArgument) || !strings.Contains(fmt.Sprint(err), want) {
		t.Fatalf("fleet job: %v (class %q), want %q naming %q", err, xerr.Code(err), xerr.InvalidArgument.Code(), want)
	}
	if coord.JobRetries() != 0 || coord.Respawns() != 0 {
		t.Fatalf("fleet job: %d retries and %d respawns, want none", coord.JobRetries(), coord.Respawns())
	}
}

// TestQuickNetRunnerEngineDispatch: an engine with a NetRunner hook routes
// net-transport jobs through it — with the daemon defaults resolved into
// the spec — while jobs on the in-process fabrics never touch the hook.
func TestQuickNetRunnerEngineDispatch(t *testing.T) {
	specs := make(chan engine.JobSpec, 2)
	eng := engine.New(engine.Options{
		Workers: 1,
		NetRunner: func(ctx context.Context, spec engine.JobSpec, tr core.Tracer) (engine.Solution, cluster.TransportStats, error) {
			specs <- spec
			tr.TraceIteration(core.IterationTrace{Iteration: 1, Residual: 0.5})
			return engine.Solution{Result: core.Result{Converged: true, Iterations: 1}}, cluster.TransportStats{}, nil
		},
	})
	defer eng.Close()

	id, err := eng.Submit(engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 8}},
		Config: engine.Config{Ranks: 2, Transport: engine.TransportNet},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, eng, id, 30*time.Second)
	if st.State != engine.StateDone {
		t.Fatalf("net job state %s: %s", st.State, st.Error)
	}
	if st.Result == nil || !st.Result.Result.Converged {
		t.Fatalf("net job result not taken from the hook: %+v", st.Result)
	}
	spec := <-specs
	if spec.Config.Transport != engine.TransportNet {
		t.Fatalf("hook saw transport %q", spec.Config.Transport)
	}

	id, err = eng.Submit(engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 8}},
		Config: engine.Config{Ranks: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, eng, id, 30*time.Second)
	if st.State != engine.StateDone {
		t.Fatalf("chan job state %s: %s", st.State, st.Error)
	}
	select {
	case s := <-specs:
		t.Fatalf("in-process job leaked into the net hook: %+v", s.Config)
	default:
	}
}

// TestNetRunnerFeedsTracerChain: a fleet job's replayed traces reach the
// chain an in-process job's do — the /trace ring, the iteration and episode
// series, the event stream — and the counters the fleet returns are booked as
// one run of the net transport.
func TestNetRunnerFeedsTracerChain(t *testing.T) {
	rec := &core.Reconstruction{Iteration: 2, FailedRanks: []int{1}}
	eng := engine.New(engine.Options{
		Workers: 1, TraceIters: 8,
		NetRunner: func(ctx context.Context, spec engine.JobSpec, tr core.Tracer) (engine.Solution, cluster.TransportStats, error) {
			for i := 1; i <= 3; i++ {
				tr.TraceIteration(core.IterationTrace{Iteration: i, Residual: 1 / float64(i)})
			}
			tr.TraceRecovery(core.RecoveryTrace{Iteration: 2, Strategy: engine.StrategyESR,
				FailedRanks: rec.FailedRanks, Duration: time.Millisecond, Reconstruction: rec})
			return engine.Solution{Result: core.Result{Converged: true, Iterations: 3}},
				cluster.TransportStats{Delivered: 7}, nil
		},
	})
	defer eng.Close()
	id, err := eng.Submit(engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 8}},
		Config: engine.Config{Ranks: 2, Phi: 1, Transport: engine.TransportNet},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, eng, id, 30*time.Second); st.State != engine.StateDone {
		t.Fatalf("net job state %s: %s", st.State, st.Error)
	}

	tr, err := eng.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Iterations) != 3 || tr.IterationsSeen != 3 || len(tr.Recoveries) != 1 {
		t.Fatalf("trace holds %d iterations (%d seen) and %d recoveries, want 3 and 1",
			len(tr.Iterations), tr.IterationsSeen, len(tr.Recoveries))
	}
	if iters, _ := eng.Metrics().Gather().Value("solver_iterations_total"); iters != 3 {
		t.Fatalf("solver_iterations_total = %g, want 3", iters)
	}
	if count, _, _, _ := episodeSeries(eng, engine.StrategyESR); count != 1 {
		t.Fatalf("episode histogram count %d, want 1", count)
	}
	if u := eng.TransportStats()[engine.TransportNet]; u.Runs != 1 || u.Stats.Delivered != 7 {
		t.Fatalf("net transport usage %+v, want one run with the fleet's 7 deliveries", u)
	}

	ch, stop, err := eng.Watch(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var kinds []engine.EventKind
	for ev := range ch {
		kinds = append(kinds, ev.Kind)
	}
	want := []engine.EventKind{engine.EventState, engine.EventState, engine.EventProgress, engine.EventProgress,
		engine.EventProgress, engine.EventReconstruction, engine.EventState}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event stream %v, want %v", kinds, want)
	}
}

// TestQuickEngineDrain: Drain stops new submissions but lets the accepted
// work finish — the opposite of Close's cancellation — and times out via
// its context when a job refuses to end.
func TestQuickEngineDrain(t *testing.T) {
	release := make(chan struct{})
	eng := engine.New(engine.Options{
		Workers: 1,
		NetRunner: func(ctx context.Context, spec engine.JobSpec, tr core.Tracer) (engine.Solution, cluster.TransportStats, error) {
			select {
			case <-release:
				return engine.Solution{Result: core.Result{Converged: true}}, cluster.TransportStats{}, nil
			case <-ctx.Done():
				return engine.Solution{}, cluster.TransportStats{}, ctx.Err()
			}
		},
	})
	defer eng.Close()
	spec := engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 8}},
		Config: engine.Config{Ranks: 2, Transport: engine.TransportNet},
	}
	id, err := eng.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, eng, id, engine.StateRunning, 30*time.Second)

	// With the job still running, a bounded Drain must report the deadline,
	// not cancel the job.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err = eng.Drain(ctx)
	cancel()
	if err == nil {
		t.Fatal("Drain returned before the running job finished")
	}
	if st, err := eng.Get(id); err != nil || st.State != engine.StateRunning {
		t.Fatalf("job after timed-out Drain: %+v, %v", st, err)
	}
	if _, err := eng.Submit(spec); err == nil {
		t.Fatal("Submit accepted a job on a draining engine")
	}

	close(release)
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := eng.Drain(ctx); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	st := waitTerminal(t, eng, id, 30*time.Second)
	if st.State != engine.StateDone {
		t.Fatalf("drained job state %s: %s", st.State, st.Error)
	}
}

// waitTerminal polls the engine until the job reaches a terminal state.
func waitTerminal(t *testing.T, eng *engine.Engine, id string, timeout time.Duration) engine.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := eng.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitState polls until the job reaches the given (possibly transient)
// state, failing if it goes terminal first.
func waitState(t *testing.T, eng *engine.Engine, id string, want engine.State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := eng.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
