package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/xerr"
)

// testLogger exercises the structured access-log path without polluting the
// test output.
func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer wires a fresh engine behind an httptest server.
func newTestServer(t *testing.T, workers int) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: workers, QueueCap: 64})
	ts := httptest.NewServer(newMux(eng, testLogger()))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts, eng
}

func postJob(t *testing.T, ts *httptest.Server, spec engine.JobSpec) string {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("submit returned empty id")
	}
	return out.ID
}

func getStatus(t *testing.T, ts *httptest.Server, id string) engine.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", id, resp.StatusCode)
	}
	var st engine.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls job id over HTTP until it is terminal and returns its
// status. A job that failed without an error class (recorded internal and
// counted on esrd_jobs_unclassed_total) fails the test: every failure a job
// can end in is classed at its source.
func waitState(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) engine.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			if st.State == engine.StateFailed {
				if _, metrics := getBody(t, ts.URL+"/metrics"); !strings.Contains(metrics, "\nesrd_jobs_unclassed_total 0\n") {
					t.Fatalf("job %s failed with no error class: %s", id, st.Error)
				}
			}
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readEvents drains the NDJSON stream for a job.
func readEvents(t *testing.T, ts *httptest.Server, id string, from int) []engine.Event {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, id, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events %s: status %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	var events []engine.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev engine.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestQuickHealthz is the CI smoke test for the daemon wiring.
func TestQuickHealthz(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if ok, _ := out["ok"].(bool); !ok {
		t.Fatalf("healthz = %v", out)
	}
	if _, ok := out["transports"]; !ok {
		t.Fatalf("healthz missing transports gauges: %v", out)
	}
}

// TestQuickTransportJob: a job can pick its communication fabric over the
// wire, and the healthz transport gauges reflect the runs.
func TestQuickTransportJob(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	id := postJob(t, ts, engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 12}},
		Config: engine.Config{Ranks: 4, Transport: engine.TransportChan},
	})
	st := waitState(t, ts, id, 30*time.Second)
	if st.State != engine.StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Transports map[string]engine.TransportUsage `json:"transports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	u, ok := out.Transports[engine.TransportChan]
	if !ok || u.Runs < 2 || u.Stats.Delivered == 0 || len(out.Transports) != 1 {
		t.Fatalf("healthz transport gauges = %+v", out.Transports)
	}

	// An unknown fabric is rejected at submission time.
	body, _ := json.Marshal(engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 8}},
		Config: engine.Config{Transport: "bogus"},
	})
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown transport: status %d, want 400", resp2.StatusCode)
	}
}

// postRefused posts a raw job body and returns the response status and the
// error envelope's code and message.
func postRefused(t *testing.T, ts *httptest.Server, body string) (status int, code, message string) {
	t.Helper()
	return postRefusedAt(t, ts, "/v1/jobs", body)
}

// postRefusedAt is postRefused on any POST route.
func postRefusedAt(t *testing.T, ts *httptest.Server, path, body string) (status int, code, message string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Error.Code, out.Error.Message
}

// TestCoordinatorRefusesAtPost: on a coordinator daemon (a NetRunner
// installed) a net job the fleet cannot run — here a phase-1 schedule event,
// an overlapping failure inside an episode — is answered 409
// failed_precondition at POST /v1/jobs and leaves no job record, instead of
// being accepted (202) and failing once dispatched.
func TestCoordinatorRefusesAtPost(t *testing.T) {
	dispatched := make(chan struct{}, 1)
	eng := engine.New(engine.Options{Workers: 1, QueueCap: 4,
		NetRunner: func(ctx context.Context, spec engine.JobSpec, tr core.Tracer) (engine.Solution, cluster.TransportStats, error) {
			dispatched <- struct{}{}
			return engine.Solution{}, cluster.TransportStats{}, xerr.New(xerr.FailedPrecondition, "refused after dispatch")
		}})
	ts := httptest.NewServer(newMux(eng, testLogger()))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	status, code, msg := postRefused(t, ts, `{"matrix": {"generator": "poisson2d", "params": {"nx": 8}},
		"config": {"ranks": 4, "phi": 2, "transport": "net",
		           "schedule": [{"iteration": 3, "ranks": [1]}, {"iteration": 3, "phase": 2, "ranks": [2]}]}}`)
	if status != http.StatusConflict || code != "failed_precondition" {
		t.Fatalf("net job with a phase-2 event: status %d, error %s %q; want 409 failed_precondition", status, code, msg)
	}
	if jobs := eng.List(); len(jobs) != 0 {
		t.Fatalf("refused submission left %d job records", len(jobs))
	}
	select {
	case <-dispatched:
		t.Fatal("the refused job reached the fleet")
	default:
	}
}

// TestCoordinatorRefusesWideNetJob: a -peers 2 daemon runs a net job's
// ranks as at most two worker processes, so a four-rank net job is answered
// 409 failed_precondition at POST /v1/jobs, with no job record and nothing
// dispatched, instead of being accepted (202) and failing at run time. A
// two-rank net job on the same daemon is accepted and dispatched.
func TestCoordinatorRefusesWideNetJob(t *testing.T) {
	dispatched := make(chan int, 1)
	eng := engine.New(engine.Options{Workers: 1, QueueCap: 4, NetPeers: 2,
		NetRunner: func(ctx context.Context, spec engine.JobSpec, tr core.Tracer) (engine.Solution, cluster.TransportStats, error) {
			dispatched <- spec.Config.Ranks
			return engine.Solution{}, cluster.TransportStats{}, xerr.New(xerr.FailedPrecondition, "no fleet in this test")
		}})
	ts := httptest.NewServer(newMux(eng, testLogger()))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	const job = `{"matrix": {"generator": "poisson2d", "params": {"nx": 8}},
		"config": {"ranks": %d, "transport": "net"}}`
	status, code, msg := postRefused(t, ts, fmt.Sprintf(job, 4))
	if status != http.StatusConflict || code != "failed_precondition" {
		t.Fatalf("4-rank net job on -peers 2: status %d, error %s %q; want 409 failed_precondition", status, code, msg)
	}
	if jobs := eng.List(); len(jobs) != 0 {
		t.Fatalf("refused submission left %d job records", len(jobs))
	}
	var spec engine.JobSpec
	if err := json.Unmarshal([]byte(fmt.Sprintf(job, 2)), &spec); err != nil {
		t.Fatal(err)
	}
	postJob(t, ts, spec)
	select {
	case r := <-dispatched:
		if r != 2 {
			t.Fatalf("dispatched a %d-rank job, want the 2-rank one", r)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the 2-rank net job never reached the fleet")
	}
}

// TestCompatThreadsFieldRejected: "threads" is no longer a config field, so a
// submission carrying it is refused whole — a 400 invalid_argument naming the
// field — rather than run with the cap silently ignored.
func TestCompatThreadsFieldRejected(t *testing.T) {
	ts, eng := newTestServer(t, 1)
	status, code, msg := postRefused(t, ts,
		`{"matrix": {"generator": "poisson2d", "params": {"nx": 8}}, "config": {"ranks": 2, "threads": 2}}`)
	if status != http.StatusBadRequest || code != "invalid_argument" || !strings.Contains(msg, `"threads"`) {
		t.Fatalf("submit with threads: status %d, error %s %q; want 400 invalid_argument naming the field",
			status, code, msg)
	}
	if jobs := eng.List(); len(jobs) != 0 {
		t.Fatalf("refused submission left %d job records", len(jobs))
	}
}

// TestCompatChaosTransportRejected: the chaos wire is a test fabric, not a
// job's transport, and its seed is no longer a config field. A submission
// naming either is refused whole — a 400 invalid_argument naming the field —
// and leaves no job record.
func TestCompatChaosTransportRejected(t *testing.T) {
	ts, eng := newTestServer(t, 1)
	for field, config := range map[string]string{
		"transport":      `{"ranks": 2, "transport": "chaos"}`,
		"transport_seed": `{"ranks": 2, "transport_seed": 1}`,
	} {
		status, code, msg := postRefused(t, ts,
			`{"matrix": {"generator": "poisson2d", "params": {"nx": 8}}, "config": `+config+`}`)
		if status != http.StatusBadRequest || code != "invalid_argument" || !strings.Contains(msg, field) {
			t.Fatalf("submit with %s: status %d, error %s %q; want 400 invalid_argument naming %s",
				config, status, code, msg, field)
		}
	}
	if jobs := eng.List(); len(jobs) != 0 {
		t.Fatalf("refused submissions left %d job records", len(jobs))
	}
}

// TestQuickPhiZeroFailStopIs400: a phi-0 job whose fail-stop schedule would
// run under ESR cannot be recovered, so it is refused at the door — 400
// invalid_argument naming phi — not accepted and failed without an error
// class. The same job under the checkpoint strategy is accepted.
func TestQuickPhiZeroFailStopIs400(t *testing.T) {
	ts, eng := newTestServer(t, 1)
	const job = `{"matrix": {"generator": "poisson2d", "params": {"nx": 8}},
		"config": {"ranks": 4, %s"schedule": [{"iteration": 3, "ranks": [1]}]}}`
	status, code, msg := postRefused(t, ts, fmt.Sprintf(job, ""))
	if status != http.StatusBadRequest || code != "invalid_argument" || !strings.Contains(msg, "phi") {
		t.Fatalf("phi-0 fail-stop job: status %d, error %s %q; want 400 invalid_argument naming phi",
			status, code, msg)
	}
	if jobs := eng.List(); len(jobs) != 0 {
		t.Fatalf("refused submission left %d job records", len(jobs))
	}
	var spec engine.JobSpec
	if err := json.Unmarshal([]byte(fmt.Sprintf(job, `"strategy": "checkpoint", `)), &spec); err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, ts, postJob(t, ts, spec), 30*time.Second); st.State != engine.StateDone {
		t.Fatalf("phi-0 fail-stop job under checkpoint: %s: %s", st.State, st.Error)
	}
}

// TestEndToEnd is the acceptance scenario: >= 8 concurrent jobs (mixed
// failure-free, simultaneous-failure, and overlapping-failure schedules)
// against a pool of 4 workers. All must reach terminal states, streamed
// events must show monotone iterations and finite relative residuals, and a
// job cancelled mid-run must terminate promptly without leaking goroutines.
func TestEndToEnd(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	eng := engine.New(engine.Options{Workers: 4, QueueCap: 64})
	ts := httptest.NewServer(newMux(eng, testLogger()))

	poisson := func(nx int) engine.MatrixSpec {
		return engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": float64(nx)}}
	}
	specs := []engine.JobSpec{
		// Failure-free, assorted generators and preconditioners.
		{Matrix: poisson(16), Config: engine.Config{Ranks: 4}},
		{Matrix: engine.MatrixSpec{Generator: "circuit", Params: map[string]float64{"n": 600}},
			Config: engine.Config{Ranks: 4, Preconditioner: engine.PrecondJacobi}},
		{Matrix: engine.MatrixSpec{Generator: "M1", Params: map[string]float64{"scale": 0}},
			Config: engine.Config{Ranks: 4}},
		{Matrix: poisson(20), Config: engine.Config{Ranks: 4, Preconditioner: engine.PrecondSSOR}},
		// Simultaneous multi-node failures.
		{Matrix: poisson(16), Config: engine.Config{Ranks: 4, Phi: 2,
			Schedule: faults.NewSchedule(faults.Simultaneous(5, 1, 2))}},
		{Matrix: engine.MatrixSpec{Generator: "elasticity3d",
			Params: map[string]float64{"nx": 5, "ny": 5, "nz": 4, "seed": 3}},
			Config: engine.Config{Ranks: 8, Phi: 3,
				Schedule: faults.NewSchedule(faults.Simultaneous(4, 1, 2, 3))}},
		// Overlapping failure during a reconstruction.
		{Matrix: engine.MatrixSpec{Generator: "poisson3d", Params: map[string]float64{"nx": 8}},
			Config: engine.Config{Ranks: 8, Phi: 2,
				Schedule: faults.NewSchedule(faults.Simultaneous(3, 2), faults.Overlapping(3, 3, 5))}},
		{Matrix: poisson(24), Config: engine.Config{Ranks: 4, Phi: 1,
			Schedule: faults.NewSchedule(faults.Simultaneous(8, 3))}},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = postJob(t, ts, spec)
	}
	// Plus one long-running job to cancel mid-solve.
	cancelID := postJob(t, ts, engine.JobSpec{
		Matrix: poisson(180),
		Config: engine.Config{Ranks: 4, Preconditioner: engine.PrecondIdentity, Tol: 1e-12},
	})

	// Wait for the cancel victim to be mid-solve (running, progress logged),
	// then cancel it over HTTP and require prompt termination.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts, cancelID)
		if st.State == engine.StateRunning && st.Events > 3 {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("cancel victim finished early: %s (%s)", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel victim never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+cancelID, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancelStart := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"state"`) {
		t.Fatalf("cancel response lacks actual state: %s", body)
	}
	st := waitState(t, ts, cancelID, 10*time.Second)
	if st.State != engine.StateCancelled {
		t.Fatalf("cancelled job state = %s (err %q)", st.State, st.Error)
	}
	if took := time.Since(cancelStart); took > 5*time.Second {
		t.Fatalf("cancellation took %v", took)
	}

	// Every other job must reach done, converged.
	for i, id := range ids {
		st := waitState(t, ts, id, 60*time.Second)
		if st.State != engine.StateDone {
			t.Fatalf("job %d (%s): %s (%s)", i, id, st.State, st.Error)
		}
		if st.Result == nil || !st.Result.Result.Converged {
			t.Fatalf("job %d (%s): unconverged result", i, id)
		}
	}

	// Streamed events: full lifecycle, monotone iterations, finite relative
	// residuals, failures' reconstruction episodes present.
	for i, id := range ids {
		events := readEvents(t, ts, id, 0)
		if len(events) < 3 {
			t.Fatalf("job %d: only %d events", i, len(events))
		}
		if events[0].State != engine.StateQueued || events[len(events)-1].State != engine.StateDone {
			t.Fatalf("job %d: lifecycle %v ... %v", i, events[0], events[len(events)-1])
		}
		lastIter, progress, recs := 0, 0, 0
		for _, ev := range events {
			switch ev.Kind {
			case engine.EventProgress:
				progress++
				if ev.Iteration <= lastIter {
					t.Fatalf("job %d: iteration %d after %d", i, ev.Iteration, lastIter)
				}
				lastIter = ev.Iteration
				if ev.RelResidual <= 0 || math.IsNaN(ev.RelResidual) || math.IsInf(ev.RelResidual, 0) {
					t.Fatalf("job %d: bad rel residual %g", i, ev.RelResidual)
				}
			case engine.EventReconstruction:
				recs++
				if ev.Reconstruction == nil {
					t.Fatalf("job %d: reconstruction event without payload", i)
				}
			}
		}
		if progress == 0 {
			t.Fatalf("job %d: no progress events", i)
		}
		wantRecs := !specs[i].Config.Schedule.Empty()
		if wantRecs && recs == 0 {
			t.Fatalf("job %d: schedule configured but no reconstruction events", i)
		}
		// Resuming mid-log yields the suffix.
		tail := readEvents(t, ts, id, 2)
		if len(tail) != len(events)-2 || tail[0].Seq != 2 {
			t.Fatalf("job %d: resume from 2 returned %d events (seq %d)", i, len(tail), tail[0].Seq)
		}
	}

	// The cancelled job's stream ends in the cancelled state.
	events := readEvents(t, ts, cancelID, 0)
	if last := events[len(events)-1]; last.State != engine.StateCancelled {
		t.Fatalf("cancelled job last event: %+v", last)
	}

	// Tear everything down: no goroutines may leak from the aborted solve,
	// the watchers, or the pool.
	ts.Close()
	eng.Close()
	var goroutinesAfter int
	for i := 0; i < 100; i++ {
		runtime.GC()
		goroutinesAfter = runtime.NumGoroutine()
		if goroutinesAfter <= goroutinesBefore+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after", goroutinesBefore, goroutinesAfter)
}

// TestWriteJSONNaNFallback checks the defensive encode path: a value that
// cannot be marshalled (NaN float) yields a 500 error envelope, never an
// empty 200 body.
func TestWriteJSONNaNFallback(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"residual": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "encoding response") {
		t.Fatalf("body %q", rec.Body.String())
	}
}

// TestAPIErrors covers the HTTP error mapping.
func TestAPIErrors(t *testing.T) {
	ts, _ := newTestServer(t, 1)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit: %d", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"matrix": {"generator": "poisson2d"}, "bogus_field": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}

	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}

	// Deleting a finished job removes its record; the id then 404s.
	id := postJob(t, ts, engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 12}},
		Config: engine.Config{Ranks: 2},
	})
	waitState(t, ts, id, 30*time.Second)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var del struct {
		Deleted bool `json:"deleted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !del.Deleted {
		t.Fatalf("delete terminal job: %d deleted=%v", resp.StatusCode, del.Deleted)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get deleted job: %d", resp.StatusCode)
	}

	// A matrix with NaN entries (valid MatrixMarket floats) fails the job
	// with a clear error instead of poisoning results with NaN.
	id = postJob(t, ts, engine.JobSpec{
		Matrix: engine.MatrixSpec{MatrixMarket: []byte(
			"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 nan\n2 2 1.0\n1 2 0.5\n")},
		Config: engine.Config{Ranks: 2, Preconditioner: engine.PrecondIdentity},
	})
	st := waitState(t, ts, id, 30*time.Second)
	if st.State != engine.StateFailed || !strings.Contains(st.Error, "not finite") || st.ErrorCode != "invalid_argument" {
		t.Fatalf("NaN-matrix job: %s (%q, error_code %q)", st.State, st.Error, st.ErrorCode)
	}

	// A failed job reports its error in the status.
	id = postJob(t, ts, engine.JobSpec{
		Matrix: engine.MatrixSpec{MatrixMarket: []byte("%%MatrixMarket matrix array real general\n2 2\n")},
	})
	st = waitState(t, ts, id, 30*time.Second)
	if st.State != engine.StateFailed || st.Error == "" {
		t.Fatalf("bad-matrix job: %s (%q)", st.State, st.Error)
	}
}

// TestQuickRetryAfter: the two "not now" statuses — 429 from a full queue,
// 503 from a draining daemon — tell the client when to come back; a request
// that will never succeed does not.
func TestQuickRetryAfter(t *testing.T) {
	// Standby engine with a one-slot queue: the first job parks there forever.
	eng := engine.New(engine.Options{Workers: -1, QueueCap: 1})
	ts := httptest.NewServer(newMux(eng, testLogger()))
	defer func() { ts.Close(); eng.Close() }()
	const job = `{"matrix": {"generator": "poisson2d", "params": {"nx": 8}}}`
	submit := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := submit(job); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	if resp := submit(job); resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("queue full: status %d, Retry-After %q; want 429 with 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if resp := submit(`{"config": {"ranks": -3}}`); resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Retry-After") != "" {
		t.Fatalf("bad request: status %d, Retry-After %q; want 400 without", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// A standby engine has no workers to wait for: Drain returns at once and
	// leaves it refusing submissions, which is the state under test.
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp := submit(job); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("draining: status %d, Retry-After %q; want 503 with 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestMatrixUploadE2E is the register-once/solve-many end-to-end flow: one
// matrix registered via POST /v1/matrices, then several jobs referencing its
// id (plain, resilient with a failure schedule, alternative preconditioner,
// explicit RHS), each verified against the locally rebuilt system.
func TestMatrixUploadE2E(t *testing.T) {
	ts, eng := newTestServer(t, 4)

	// Register the system once.
	const nx = 20
	resp, err := http.Post(ts.URL+"/v1/matrices", "application/json",
		strings.NewReader(fmt.Sprintf(`{"generator": "poisson2d", "params": {"nx": %d}}`, nx)))
	if err != nil {
		t.Fatal(err)
	}
	var rec engine.MatrixRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || rec.ID == "" || rec.Rows != nx*nx {
		t.Fatalf("register: %d %+v", resp.StatusCode, rec)
	}

	// The same system, rebuilt locally for residual verification.
	a := matgen.Poisson2D(nx, nx)
	n := a.Rows
	customRHS := make([]float64, n)
	for i := range customRHS {
		customRHS[i] = 1 + 0.25*math.Sin(float64(i))
	}

	jobs := []struct {
		name string
		spec engine.JobSpec
		rhs  []float64 // nil means the default all-ones
	}{
		{"plain", engine.JobSpec{
			MatrixID: rec.ID, KeepSolution: true,
			Config: engine.Config{Ranks: 4},
		}, nil},
		{"resilient", engine.JobSpec{
			MatrixID: rec.ID, KeepSolution: true,
			Config: engine.Config{Ranks: 4, Phi: 2,
				Schedule: faults.NewSchedule(faults.Simultaneous(3, 1, 2))},
		}, nil},
		{"jacobi", engine.JobSpec{
			MatrixID: rec.ID, KeepSolution: true,
			Config: engine.Config{Ranks: 6, Preconditioner: engine.PrecondJacobi},
		}, nil},
		{"custom-rhs", engine.JobSpec{
			MatrixID: rec.ID, KeepSolution: true, RHS: customRHS,
			Config: engine.Config{Ranks: 4},
		}, customRHS},
		{"spcg", engine.JobSpec{
			MatrixID: rec.ID, KeepSolution: true,
			Config: engine.Config{Ranks: 4, Phi: 1, Method: engine.MethodSPCG,
				Schedule: faults.NewSchedule(faults.Simultaneous(4, 2))},
		}, nil},
	}

	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = postJob(t, ts, j.spec)
	}
	for i, j := range jobs {
		st := waitState(t, ts, ids[i], 60*time.Second)
		if st.State != engine.StateDone {
			t.Fatalf("%s: state %s (%q)", j.name, st.State, st.Error)
		}
		if !st.Result.Result.Converged {
			t.Fatalf("%s: did not converge", j.name)
		}
		b := j.rhs
		if b == nil {
			b = make([]float64, n)
			for k := range b {
				b[k] = 1
			}
		}
		var nb, rr float64
		r := make([]float64, n)
		a.MulVec(r, st.Result.X)
		for k := range r {
			d := b[k] - r[k]
			rr += d * d
			nb += b[k] * b[k]
		}
		if res := math.Sqrt(rr); res > 1e-6*math.Sqrt(nb) {
			t.Fatalf("%s: residual %g", j.name, res)
		}
		wantRecs := 0
		if !j.spec.Config.Schedule.Empty() {
			wantRecs = 1
		}
		if got := len(st.Result.Result.Reconstructions); got != wantRecs {
			t.Fatalf("%s: %d reconstructions, want %d", j.name, got, wantRecs)
		}
	}

	// The record counts its referencing jobs; the prepared-solver cache
	// served the repeated (matrix, prep-config) pairs without rebuilding.
	resp, err = http.Get(ts.URL + "/v1/matrices/" + rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rec.Jobs != len(jobs) {
		t.Fatalf("record jobs = %d, want %d", rec.Jobs, len(jobs))
	}
	if cs := eng.CacheStats(); cs.Hits < 1 {
		t.Fatalf("prep cache saw no hits: %+v", cs)
	}

	// Matrix list + deletion; jobs referencing a deleted id are rejected.
	resp, err = http.Get(ts.URL + "/v1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	var list []engine.MatrixRecord
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 {
		t.Fatalf("list: %d records", len(list))
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/matrices/"+rec.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete matrix: %d", resp.StatusCode)
	}
	raw, _ := json.Marshal(engine.JobSpec{MatrixID: rec.ID, Config: engine.Config{Ranks: 4}})
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("job on deleted matrix: %d", resp.StatusCode)
	}
}
