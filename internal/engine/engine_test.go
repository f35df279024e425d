package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mmio"
	"repro/internal/xerr"
)

// tinySpec is a quick failure-free job on a small Poisson system.
func tinySpec() JobSpec {
	return JobSpec{
		Matrix: MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16, "ny": 16}},
		Config: Config{Ranks: 4},
	}
}

// resilientSpec is a job with phi redundancy and a mid-solve failure batch.
func resilientSpec() JobSpec {
	return JobSpec{
		Matrix: MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16, "ny": 16}},
		Config: Config{
			Ranks: 4, Phi: 2,
			Schedule: faults.NewSchedule(faults.Simultaneous(5, 1, 2)),
		},
	}
}

// slowSpec is a job that runs long enough to cancel mid-solve: a large
// system at a tight tolerance.
func slowSpec() JobSpec {
	return JobSpec{
		Matrix:       MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 180, "ny": 180}},
		Config:       Config{Ranks: 4, Preconditioner: PrecondIdentity, Tol: 1e-12},
		KeepSolution: true,
	}
}

// waitTerminal polls job id until it is terminal and returns its status. A
// job that failed without an error class (recorded internal and counted on
// esrd_jobs_unclassed_total) fails the test: every failure a job can end in
// is classed at its source.
func waitTerminal(t *testing.T, e *Engine, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := e.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			if st.State == StateFailed && e.metrics.jobsUnclassed.Value() != 0 {
				t.Fatalf("job %s failed with no error class: %s", id, st.Error)
			}
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSolveSystemMatchesDirectPath checks the shared single-job path against
// a plain solve with an explicit matrix.
func TestSolveSystemMatchesDirectPath(t *testing.T) {
	spec := tinySpec()
	a, b, err := spec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveSystem(context.Background(), a, b, spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Converged {
		t.Fatalf("not converged: %+v", sol.Result)
	}
	if len(sol.X) != a.Rows {
		t.Fatalf("solution length %d != %d", len(sol.X), a.Rows)
	}
}

// TestPoolSaturation submits many more jobs than workers and checks that
// every one of them reaches a terminal state with a stored result.
func TestPoolSaturation(t *testing.T) {
	e := New(Options{Workers: 3, QueueCap: 64})
	defer e.Close()
	const n = 12
	ids := make([]string, n)
	for i := range ids {
		spec := tinySpec()
		if i%3 == 1 {
			spec = resilientSpec()
		}
		id, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		st := waitTerminal(t, e, id, 30*time.Second)
		if st.State != StateDone {
			t.Fatalf("job %d (%s): state %s, err %q", i, id, st.State, st.Error)
		}
		if st.Result == nil || !st.Result.Result.Converged {
			t.Fatalf("job %d (%s): missing or unconverged result", i, id)
		}
		if i%3 == 1 && len(st.Result.Result.Reconstructions) == 0 {
			t.Fatalf("job %d (%s): resilient job recorded no reconstructions", i, id)
		}
	}
}

// TestQueueFull checks the bounded-queue backpressure path.
func TestQueueFull(t *testing.T) {
	e := New(Options{Workers: 1, QueueCap: 1})
	defer e.Close()
	// Occupy the worker and fill the queue: eventually a submit must fail.
	sawFull := false
	for i := 0; i < 64; i++ {
		_, err := e.Submit(slowSpec())
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("queue never reported ErrQueueFull")
	}
}

// TestCancelQueued checks that cancelling a job before a worker picks it up
// goes terminal immediately and the worker later skips it.
func TestCancelQueued(t *testing.T) {
	e := New(Options{Workers: 1, QueueCap: 8})
	defer e.Close()
	// Block the single worker with a slow job, then queue and cancel.
	blocker, err := e.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st, err := e.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s", st.State)
	}
	if err := e.Cancel(id); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second cancel = %v, want ErrTerminal", err)
	}
	if err := e.Cancel(blocker); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, e, blocker, 30*time.Second)
}

// TestCancelRunningNoGoroutineLeak cancels a job mid-solve and checks that
// (a) it terminates promptly as cancelled and (b) the cluster goroutines of
// the aborted solve do not leak.
func TestCancelRunningNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	e := New(Options{Workers: 2, QueueCap: 8})
	id, err := e.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is actually running and has made some progress.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := e.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning && st.Events > 3 {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("slow job finished before it could be cancelled: %s (%s); enlarge slowSpec", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, e, id, 10*time.Second)
	if st.State != StateCancelled {
		t.Fatalf("state after mid-solve cancel = %s (err %q)", st.State, st.Error)
	}
	e.Close()

	// All rank goroutines, watcher goroutines, and workers must be gone.
	var after int
	for i := 0; i < 100; i++ {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after cancelled solve", before, after)
}

// TestWatchReplaysAndStreams checks event-stream semantics: full replay from
// seq 0, monotone sequence numbers and iterations, a terminal state event
// last, and stream close at terminal.
func TestWatchReplaysAndStreams(t *testing.T) {
	e := New(Options{Workers: 1, QueueCap: 4})
	defer e.Close()
	id, err := e.Submit(resilientSpec())
	if err != nil {
		t.Fatal(err)
	}
	ch, stopFn, err := e.Watch(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stopFn()
	var events []Event
	timeout := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				goto done
			}
			events = append(events, ev)
		case <-timeout:
			t.Fatal("event stream never closed")
		}
	}
done:
	if len(events) < 4 {
		t.Fatalf("too few events: %+v", events)
	}
	lastIter := 0
	sawRec := false
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.JobID != id {
			t.Fatalf("event %d has job id %q", i, ev.JobID)
		}
		switch ev.Kind {
		case EventProgress:
			if ev.Iteration <= lastIter {
				t.Fatalf("non-monotone iteration %d after %d", ev.Iteration, lastIter)
			}
			lastIter = ev.Iteration
		case EventReconstruction:
			sawRec = true
			if ev.Reconstruction == nil {
				t.Fatal("reconstruction event without payload")
			}
		}
	}
	if !sawRec {
		t.Fatal("no reconstruction event streamed")
	}
	if first, last := events[0], events[len(events)-1]; first.State != StateQueued || last.State != StateDone {
		t.Fatalf("lifecycle events wrong: first %+v last %+v", first, last)
	}
	// A second watch after the fact replays the identical log.
	ch2, stop2, err := e.Watch(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	count := 0
	for range ch2 {
		count++
	}
	if count != len(events) {
		t.Fatalf("replay delivered %d events, want %d", count, len(events))
	}
	// Watching from beyond the end of the log must not panic and must close
	// immediately on a terminal job.
	ch3, stop3, err := e.Watch(id, len(events)+100)
	if err != nil {
		t.Fatal(err)
	}
	defer stop3()
	select {
	case ev, ok := <-ch3:
		if ok {
			t.Fatalf("watch past end delivered %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch past end never closed")
	}
}

// TestJobSpecJSONRoundTrip checks that a spec with a failure schedule
// survives the daemon's wire format.
func TestJobSpecJSONRoundTrip(t *testing.T) {
	spec := JobSpec{
		Matrix: MatrixSpec{Generator: "M1", Params: map[string]float64{"scale": 0}},
		Config: Config{
			Ranks: 6, Phi: 2, Preconditioner: PrecondJacobi, Tol: 1e-6,
			Schedule: faults.NewSchedule(
				faults.Simultaneous(4, 1, 2),
				faults.Overlapping(4, 2, 3),
			),
		},
		TimeoutMillis: 5000,
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Config.Ranks != 6 || back.Config.Phi != 2 || back.Config.Preconditioner != PrecondJacobi {
		t.Fatalf("config lost in round trip: %+v", back.Config)
	}
	evs := back.Config.Schedule.Events()
	if len(evs) != 2 || evs[0].Iteration != 4 || len(evs[0].Ranks) != 2 || evs[1].Phase != 2 {
		t.Fatalf("schedule lost in round trip: %+v", evs)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := back.Materialize(); err != nil {
		t.Fatal(err)
	}
	// A misspelled schedule field must be rejected, not decoded as a no-op
	// failure event.
	var bad JobSpec
	typo := []byte(`{"matrix":{"generator":"poisson2d"},"config":{"ranks":4,"phi":1,"schedule":[{"iteration":10,"rank":[2,3]}]}}`)
	if err := json.Unmarshal(typo, &bad); err == nil {
		t.Fatal("schedule with unknown field accepted")
	}
}

// TestSpecValidation covers the submission-time error paths.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"empty matrix", JobSpec{}},
		{"both sources", JobSpec{Matrix: MatrixSpec{Generator: "poisson2d", MatrixMarket: []byte("x")}}},
		{"negative timeout", JobSpec{Matrix: MatrixSpec{Generator: "poisson2d"}, TimeoutMillis: -1}},
		{"bad phi", JobSpec{Matrix: MatrixSpec{Generator: "poisson2d"}, Config: Config{Ranks: 4, Phi: 4}}},
		{"bad schedule", JobSpec{Matrix: MatrixSpec{Generator: "poisson2d"},
			Config: Config{Ranks: 4, Phi: 1, Schedule: faults.NewSchedule(faults.Simultaneous(0, 9))}}},
		{"oversized generator", JobSpec{Matrix: MatrixSpec{Generator: "poisson2d",
			Params: map[string]float64{"nx": 1e9}}}},
		{"non-positive dimension", JobSpec{Matrix: MatrixSpec{Generator: "poisson3d",
			Params: map[string]float64{"nx": -4}}}},
		{"non-finite param", JobSpec{Matrix: MatrixSpec{Generator: "circuit",
			Params: map[string]float64{"n": math.Inf(1)}}}},
		{"oversized matrix_market header", JobSpec{Matrix: MatrixSpec{MatrixMarket: []byte(
			"%%MatrixMarket matrix coordinate real general\n1000000000000 1000000000000 1\n1 1 1.0\n")}}},
		{"banded zero halfband (matgen would panic)", JobSpec{Matrix: MatrixSpec{Generator: "banded",
			Params: map[string]float64{"halfband": 0}}}},
		{"banded unbounded nnz", JobSpec{Matrix: MatrixSpec{Generator: "banded",
			Params: map[string]float64{"n": 4096, "nnzperrow": 1e15}}}},
		{"circuit unbounded degree", JobSpec{Matrix: MatrixSpec{Generator: "circuit",
			Params: map[string]float64{"n": 4096, "avgdeg": 1e15}}}},
		{"invalid elasticity stencil (matgen would panic)", JobSpec{Matrix: MatrixSpec{Generator: "elasticity3d",
			Params: map[string]float64{"stencil": 9}}}},
		{"NaN rhs", JobSpec{Matrix: MatrixSpec{Generator: "poisson2d"},
			RHS: append(make([]float64, 4095), math.NaN())}},
		{"unknown preconditioner", JobSpec{Matrix: MatrixSpec{Generator: "poisson2d"},
			Config: Config{Preconditioner: "ilu"}}},
		{"rows within cap but nnz explodes", JobSpec{Matrix: MatrixSpec{Generator: "elasticity3d",
			Params: map[string]float64{"nx": 110, "ny": 110, "nz": 110, "stencil": 27}}}},
		{"schedule event without ranks", JobSpec{Matrix: MatrixSpec{Generator: "poisson2d"},
			Config: Config{Ranks: 4, Phi: 1, Schedule: faults.NewSchedule(faults.Event{Iteration: 10})}}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", tc.name)
		}
	}
	if err := tinySpec().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := (MatrixSpec{Generator: "no-such-gen"}).Build(); !errors.Is(err, xerr.InvalidArgument) {
		t.Fatalf("unknown generator: %v, want %q", err, xerr.InvalidArgument.Code())
	}
}

// TestCoordinatorRefusesAtSubmit: a coordinator daemon refuses at Submit,
// classed failed_precondition, every net job its fleet of rank processes
// cannot run — before the job is queued or journalled, so no record and no
// dispatch — while the jobs it can run, and the same refused jobs on an
// in-process fabric, are accepted.
func TestCoordinatorRefusesAtSubmit(t *testing.T) {
	var dispatched atomic.Int64
	e := New(Options{
		Workers: 1, QueueCap: 16,
		NetRunner: func(ctx context.Context, spec JobSpec, tr core.Tracer) (Solution, cluster.TransportStats, error) {
			dispatched.Add(1)
			return Solution{Result: core.Result{Converged: true}}, cluster.TransportStats{}, nil
		},
	})
	defer e.Close()
	inline := MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16}}
	phase1 := faults.Simultaneous(4, 2)
	phase1.Phase = 1
	net := func(c Config) Config { c.Transport = TransportNet; return c }
	for _, c := range []struct {
		name   string
		spec   JobSpec
		refuse bool
	}{
		{"inline esr phase 0", JobSpec{Matrix: inline, Config: net(Config{Ranks: 4, Phi: 2,
			Schedule: faults.NewSchedule(faults.Simultaneous(3, 1), faults.Simultaneous(6, 2, 3))})}, false},
		{"inline esr no schedule", JobSpec{Matrix: inline, Config: net(Config{Ranks: 4})}, false},
		{"matrix_id", JobSpec{MatrixID: "mat-000001", Config: net(Config{Ranks: 4})}, true},
		{"batch", JobSpec{Matrix: inline, RHSBatch: batchRHS(256, 2), Config: net(Config{Ranks: 4})}, true},
		{"checkpoint strategy", JobSpec{Matrix: inline, Config: net(Config{Ranks: 4,
			Strategy: StrategyCheckpoint})}, true},
		{"phase 1 event", JobSpec{Matrix: inline, Config: net(Config{Ranks: 4, Phi: 1,
			Schedule: faults.NewSchedule(phase1)})}, true},
		{"rank 0 victim", JobSpec{Matrix: inline, Config: net(Config{Ranks: 4, Phi: 2,
			Schedule: faults.NewSchedule(faults.Simultaneous(3, 0, 1))})}, true},
	} {
		before := len(e.List())
		id, err := e.Submit(c.spec)
		switch {
		case !c.refuse && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.refuse && err == nil:
			t.Errorf("%s: accepted as %s", c.name, id)
		case c.refuse && !errors.Is(err, xerr.FailedPrecondition):
			t.Errorf("%s: %v is classed %q, want %q", c.name, err, xerr.Code(err), xerr.FailedPrecondition.Code())
		case c.refuse && len(e.List()) != before:
			t.Errorf("%s: the refusal left a job record", c.name)
		}
		if c.refuse && c.spec.MatrixID == "" {
			// In process, the same job is served.
			inProc := c.spec
			inProc.Config.Transport = TransportChan
			if _, err := e.Submit(inProc); err != nil {
				t.Errorf("%s on chan: refused: %v", c.name, err)
			}
		}
	}
	for _, st := range e.List() {
		waitTerminal(t, e, st.ID, 30*time.Second)
	}
	if got := dispatched.Load(); got != 2 {
		t.Fatalf("%d jobs reached the fleet, want the 2 accepted net jobs", got)
	}
}

// TestStatusRedactsBulkPayloads checks that uploaded MatrixMarket bytes and
// explicit RHS vectors do not leak into status snapshots or outlive the run.
func TestStatusRedactsBulkPayloads(t *testing.T) {
	e := New(Options{Workers: 1, QueueCap: 4})
	defer e.Close()
	var mm bytes.Buffer
	if err := func() error {
		spec := tinySpec()
		a, _, err := spec.Materialize()
		if err != nil {
			return err
		}
		return mmio.WriteCSR(&mm, a, false)
	}(); err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, 256)
	for i := range rhs {
		rhs[i] = 1
	}
	id, err := e.Submit(JobSpec{
		Matrix: MatrixSpec{MatrixMarket: mm.Bytes()},
		RHS:    rhs,
		Config: Config{Ranks: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, e, id, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}
	if len(st.Spec.Matrix.MatrixMarket) != 0 || st.Spec.RHS != nil {
		t.Fatalf("bulk payloads leaked into status: %d MM bytes, %d rhs entries",
			len(st.Spec.Matrix.MatrixMarket), len(st.Spec.RHS))
	}
}

// TestEventTelemetryNotOmitted checks that iteration 0 / zero residuals
// still serialize (no omitempty on telemetry fields).
func TestEventTelemetryNotOmitted(t *testing.T) {
	raw, err := json.Marshal(Event{Kind: EventReconstruction, Iteration: 0, Residual: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"iteration":0`, `"residual":0`, `"rel_residual":0`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Fatalf("serialized event %s is missing %s", raw, key)
		}
	}
}

// TestCancelQueuedReleasesPayloadBudget checks that cancelling a queued job
// returns its uploaded payload bytes to the pending budget immediately,
// instead of pinning them until a worker dequeues the corpse.
func TestCancelQueuedReleasesPayloadBudget(t *testing.T) {
	oldBudget := maxPendingPayloadBytes
	maxPendingPayloadBytes = 4096
	defer func() { maxPendingPayloadBytes = oldBudget }()

	e := New(Options{Workers: 1, QueueCap: 8})
	defer e.Close()
	blocker, err := e.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	payload := JobSpec{
		Matrix: MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 12}},
		RHS:    make([]float64, 144), // 1152 bytes of budget
		Config: Config{Ranks: 2},
	}
	for i := range payload.RHS {
		payload.RHS[i] = 1
	}
	ids := make([]string, 3)
	for i := range ids {
		if ids[i], err = e.Submit(payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Submit(payload); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("budget not enforced: %v", err)
	}
	if err := e.Cancel(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(payload); err != nil {
		t.Fatalf("cancelled queued job did not release its budget: %v", err)
	}
	if err := e.Cancel(blocker); err != nil {
		t.Fatal(err)
	}
}

// TestProgressEventCap checks that the per-job event log stops retaining
// progress events at the cap while lifecycle events still arrive.
func TestProgressEventCap(t *testing.T) {
	old := maxProgressEventsPerJob
	maxProgressEventsPerJob = 5
	defer func() { maxProgressEventsPerJob = old }()

	e := New(Options{Workers: 1, QueueCap: 4})
	defer e.Close()
	// A job guaranteed to run for more than 5 iterations.
	id, err := e.Submit(JobSpec{
		Matrix: MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 32}},
		Config: Config{Ranks: 4, Preconditioner: PrecondIdentity},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, e, id, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}
	if st.Result.Result.Iterations <= 5 {
		t.Fatalf("test needs > 5 iterations, got %d", st.Result.Result.Iterations)
	}
	ch, stop, err := e.Watch(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	progress, states := 0, 0
	for ev := range ch {
		switch ev.Kind {
		case EventProgress:
			progress++
		case EventState:
			states++
		}
	}
	if progress != 5 {
		t.Fatalf("retained %d progress events, want exactly the cap (5)", progress)
	}
	if states < 3 {
		t.Fatalf("lifecycle events missing: %d", states)
	}
}

// onIteration is a Tracer calling itself after every iteration; it ignores
// recovery episodes.
type onIteration func(core.IterationTrace)

func (f onIteration) TraceIteration(it core.IterationTrace) { f(it) }
func (onIteration) TraceRecovery(core.RecoveryTrace)        {}

// holdStreamToResult runs spec as an in-process job, its own tracer beside
// the engine's, and holds the job's event stream to what that tracer saw and
// to the job's Result: every progress event carries the bits of its traced
// iteration, the reconstruction events are Result.Reconstructions in order
// (want of them), and the job's trace capture holds those episodes plus the
// twin's corruption corrections (corrections of them), which never reach
// the stream.
func holdStreamToResult(t *testing.T, spec JobSpec, want, corrections int) {
	t.Helper()
	e := New(Options{Workers: 1, TraceIters: 1 << 16})
	defer e.Close()
	var seen latticeTracer
	spec.Config.Tracer = &seen
	id, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, e, id, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}
	ch, stop, err := e.Watch(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var iters []Event
	var recs []*core.Reconstruction
	for ev := range ch {
		switch ev.Kind {
		case EventProgress:
			iters = append(iters, ev)
		case EventReconstruction:
			recs = append(recs, ev.Reconstruction)
		}
	}
	if len(iters) == 0 || len(iters) != len(seen.iterations) {
		t.Fatalf("%d progress events, %d traced iterations", len(iters), len(seen.iterations))
	}
	for i, ev := range iters {
		it := seen.iterations[i]
		if ev.Iteration != it.Iteration || math.Float64bits(ev.Residual) != math.Float64bits(it.Residual) ||
			math.Float64bits(ev.RelResidual) != math.Float64bits(it.RelResidual) {
			t.Fatalf("progress event %d (%d, %v, %v), traced (%d, %v, %v)",
				i, ev.Iteration, ev.Residual, ev.RelResidual, it.Iteration, it.Residual, it.RelResidual)
		}
	}
	res := st.Result.Result.Reconstructions
	if len(recs) != want || len(res) != want {
		t.Fatalf("%d reconstruction events, %d in the result; want %d", len(recs), len(res), want)
	}
	for i, rec := range recs {
		if rec == nil || !reflect.DeepEqual(*rec, res[i]) {
			t.Fatalf("reconstruction event %d carries %+v, result %+v", i, rec, res[i])
		}
	}
	tr, err := e.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	fixed := 0
	for _, rt := range tr.Recoveries {
		if rt.Corruption {
			fixed++
		}
	}
	if fixed != corrections || len(tr.Recoveries) != want+corrections {
		t.Fatalf("trace holds %d episodes, %d of them corrections; want %d and %d", len(tr.Recoveries), fixed, want+corrections, corrections)
	}
}

// TestEventStreamHeldToResultESR: a phi-2 job losing two ranks at once.
func TestEventStreamHeldToResultESR(t *testing.T) {
	holdStreamToResult(t, resilientSpec(), 1, 0)
}

// TestEventStreamHeldToResultTwin: a twin job correcting two bit flips.
func TestEventStreamHeldToResultTwin(t *testing.T) {
	spec := tinySpec()
	spec.Config.Strategy = StrategyTwin
	spec.Config.Schedule = faults.NewSchedule(
		faults.BitFlip(5, 1, faults.TargetX, 3, 52), faults.BitFlip(9, 2, faults.TargetR, 0, 51))
	holdStreamToResult(t, spec, 0, 2)
}

// TestDeadline checks that a job deadline fails the job rather than leaving
// it running.
func TestDeadline(t *testing.T) {
	e := New(Options{Workers: 1, QueueCap: 4})
	defer e.Close()
	spec := slowSpec()
	spec.TimeoutMillis = 30
	id, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, e, id, 30*time.Second)
	if st.State != StateFailed || st.Error != "deadline exceeded" {
		t.Fatalf("deadline job: state %s err %q", st.State, st.Error)
	}
}

// TestNumericalFailuresAreClassed: a job the solver cannot serve ends failed
// with a class, never with an empty error_code. An indefinite matrix breaks
// PCG down under every preconditioner that builds on it, a zero diagonal
// refuses Jacobi, and a dense Cholesky meeting a non-positive pivot or an
// incomplete factorisation meeting a row without its diagonal entry refuses
// the matrix at prepare: the input is outside the SPD contract or the chosen
// preconditioner cannot serve it, so each is invalid_argument.
func TestNumericalFailuresAreClassed(t *testing.T) {
	// tridiag is a 64-row symmetric tridiagonal MatrixMarket matrix with
	// diagonal diag(i) on row i (1-based), NaN meaning no entry at all, and
	// off on both off-diagonals.
	tridiag := func(diag func(i int) float64, off float64) []byte {
		const n = 64
		var entries bytes.Buffer
		nnz := 0
		entry := func(i, j int, v float64) {
			if !math.IsNaN(v) {
				fmt.Fprintf(&entries, "%d %d %g\n", i, j, v)
				nnz++
			}
		}
		for i := 1; i <= n; i++ {
			if i > 1 {
				entry(i, i-1, off)
			}
			entry(i, i, diag(i))
			if i < n {
				entry(i, i+1, off)
			}
		}
		return fmt.Appendf(nil, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n%s", n, n, nnz, entries.Bytes())
	}
	// row5 is the diagonal 2 but for v on row 5.
	row5 := func(v float64) func(int) float64 {
		return func(i int) float64 {
			if i == 5 {
				return v
			}
			return 2
		}
	}
	indefinite := tridiag(func(i int) float64 { return float64(1 - 2*(i%2)) }, 0.25)
	zeroDiag := tridiag(row5(0), -1)
	noDiag := tridiag(row5(math.NaN()), -1)
	cases := []struct {
		name string
		mm   []byte
		cfg  Config
	}{
		{"indefinite/identity", indefinite, Config{Preconditioner: PrecondIdentity}},
		{"indefinite/jacobi", indefinite, Config{Preconditioner: PrecondJacobi}},
		{"indefinite/block-jacobi-ilu", indefinite, Config{Preconditioner: PrecondBlockJacobiILU}},
		{"indefinite/ic0", indefinite, Config{Preconditioner: PrecondIC0}},
		{"indefinite/identity/phi2", indefinite, Config{Preconditioner: PrecondIdentity, Phi: 2}},
		{"zero-diagonal/jacobi", zeroDiag, Config{Preconditioner: PrecondJacobi}},
		// The preconditioner's factorisation refuses the matrix at prepare.
		{"indefinite/block-jacobi-cholesky", indefinite, Config{Preconditioner: PrecondBlockJacobiChol}},
		{"zero-diagonal/block-jacobi-cholesky", zeroDiag, Config{Preconditioner: PrecondBlockJacobiChol}},
		{"no-diagonal/block-jacobi-ilu", noDiag, Config{Preconditioner: PrecondBlockJacobiILU}},
		{"no-diagonal/ic0", noDiag, Config{Preconditioner: PrecondIC0}},
		{"no-diagonal/block-jacobi-cholesky", noDiag, Config{Preconditioner: PrecondBlockJacobiChol}},
	}
	e := New(Options{Workers: 2})
	defer e.Close()
	ids := make([]string, len(cases))
	for i, tc := range cases {
		tc.cfg.Ranks = 4
		var err error
		if ids[i], err = e.Submit(JobSpec{Matrix: MatrixSpec{MatrixMarket: tc.mm}, Config: tc.cfg}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	for i, tc := range cases {
		st := waitTerminal(t, e, ids[i], 30*time.Second)
		if st.State != StateFailed || st.ErrorCode != xerr.InvalidArgument.Code() {
			t.Errorf("%s: %s, %q (%s); want failed invalid_argument", tc.name, st.State, st.ErrorCode, st.Error)
		}
	}
}
