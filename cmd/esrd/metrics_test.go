package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netrun"
	"repro/internal/store"
)

// getBody fetches a URL and returns status and body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestQuickMetricsEndpoint: GET /metrics serves a lint-clean Prometheus text
// exposition with the daemon gauges, and the HTTP middleware records the
// requests that produced it.
func TestQuickMetricsEndpoint(t *testing.T) {
	ts, eng := newTestServer(t, 1)

	// Generate some traffic first so the HTTP series exist.
	if code, _ := getBody(t, ts.URL+"/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("missing job status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if probs := metrics.Lint(text); len(probs) != 0 {
		t.Fatalf("exposition lint problems: %v", probs)
	}
	for _, want := range []string{
		"# TYPE esrd_jobs gauge",
		"# TYPE esrd_jobs_submitted_total counter",
		"# TYPE esrd_threads_maxprocs gauge",
		`esrd_http_requests_total{method="GET",route="/v1/healthz",status="200"} 1`,
		`esrd_http_requests_total{method="GET",route="/v1/jobs/{id}",status="404"} 1`,
		`esrd_http_request_seconds_count{route="/v1/healthz"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The healthz payload is generated from the same registry: its gauges
	// must agree with a fresh snapshot.
	snap := eng.Metrics().Gather()
	h := eng.Health()
	if v, _ := snap.Value("esrd_jobs"); int(v) != h.Jobs {
		t.Fatalf("healthz jobs %d != registry %v", h.Jobs, v)
	}
}

// TestQuickMetricsTableMatchesREADME holds README's /metrics series table to
// the registry of a daemon with a data directory and a fleet coordinator:
// every family has a row, and every name in a row's first cell is a family
// (inside a name `{a,b}` is an alternation, a trailing `{…}` lists labels).
func TestQuickMetricsTableMatchesREADME(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(raw), "\nThe series:\n\n")
	if !ok {
		t.Fatal("README.md has no series table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	documented, quoted := map[string]bool{}, regexp.MustCompile("`([^`]+)`")
	for _, row := range strings.Split(table, "\n")[2:] { // past the header
		first, _, _ := strings.Cut(row, " | ")
		for _, m := range quoted.FindAllStringSubmatch(first, -1) {
			name := m[1]
			if strings.HasSuffix(name, "}") { // labels
				name = name[:strings.LastIndex(name, "{")]
			}
			for _, n := range expandAlternations(name) {
				documented[n] = true
			}
		}
	}
	delete(documented, "") // a bare label list, as in "(all `{strategy}`)"

	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 1, QueueCap: 4, Store: st})
	t.Cleanup(func() { eng.Close(); st.Close() })
	newMux(eng, testLogger())
	coord, _ := netrun.NewCoordinator(netrun.Options{Command: []string{"esrd", "-worker"}}) // refuses only an empty command
	registerNetMetrics(eng.Metrics(), 4, coord)
	registered := map[string]bool{}
	for _, fam := range eng.Metrics().Gather() {
		registered[fam.Name] = true
		if !documented[fam.Name] {
			t.Errorf("family %s has no row in README's series table", fam.Name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("README's series table names %s, which the daemon does not register", name)
		}
	}
}

// expandAlternations spells out every `{a,b,…}` group of a name.
func expandAlternations(name string) []string {
	head, rest, ok := strings.Cut(name, "{")
	if !ok {
		return []string{name}
	}
	alts, tail, _ := strings.Cut(rest, "}")
	var out []string
	for _, alt := range strings.Split(alts, ",") {
		out = append(out, expandAlternations(head+alt+tail)...)
	}
	return out
}

// TestQuickHealthzNetBlock: when esrd_net_* series exist (the daemon runs
// the multi-process coordinator), healthz mirrors them under "net" with the
// prefix stripped; without them the key is absent entirely.
func TestQuickHealthzNetBlock(t *testing.T) {
	ts, eng := newTestServer(t, 1)

	_, body := getBody(t, ts.URL+"/v1/healthz")
	if strings.Contains(body, `"net":`) {
		t.Fatalf("healthz advertises a net block without net series: %s", body)
	}

	eng.Metrics().GaugeFunc("esrd_net_workers_live", "h", func() float64 { return 3 })
	eng.Metrics().CounterFunc("esrd_net_respawns_total", "h", func() float64 { return 2 })
	_, body = getBody(t, ts.URL+"/v1/healthz")
	var h struct {
		Net map[string]float64 `json:"net"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Net["workers_live"] != 3 || h.Net["respawns_total"] != 2 {
		t.Fatalf("healthz net block = %v, want workers_live=3 respawns_total=2", h.Net)
	}
	// The net series ride the same registry as everything else; the
	// exposition must stay lint-clean with them registered.
	_, text := getBody(t, ts.URL+"/metrics")
	if probs := metrics.Lint(text); len(probs) != 0 {
		t.Fatalf("exposition lint problems with net series: %v", probs)
	}
}

// TestMetricsRecoveredJob runs a job with injected failures on a
// trace-capturing daemon, then checks the full observability surface: the
// recovery-episode and per-phase series on /metrics, and the per-iteration
// trace with its recovery record on /v1/jobs/{id}/trace.
func TestMetricsRecoveredJob(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, QueueCap: 16, TraceIters: 32})
	ts := httptest.NewServer(newMux(eng, testLogger()))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	id := postJob(t, ts, engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 24}},
		Config: engine.Config{
			Ranks: 8, Phi: 2, Transport: engine.TransportChan,
			Schedule: faults.NewSchedule(faults.Simultaneous(5, 2, 3)),
		},
	})
	st := waitState(t, ts, id, 60*time.Second)
	if st.State != engine.StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.Result.Reconstructions) == 0 {
		t.Fatal("recovered job recorded no reconstruction episodes")
	}

	code, text := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if probs := metrics.Lint(text); len(probs) != 0 {
		t.Fatalf("exposition lint problems: %v", probs)
	}
	for _, want := range []string{
		`solver_recovery_episode_seconds_count{strategy="esr"} 1`,
		`solver_episodes_total{strategy="esr"} 1`,
		`solver_transport_runs_total{transport="chan"}`,
		`solver_matvec_phase_seconds_count{transport="chan",phase="interior"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	snap := eng.Metrics().Gather()
	iters, _ := snap.Value("solver_iterations_total")
	if want := float64(st.Result.Result.Iterations); iters != want {
		t.Fatalf("solver_iterations_total = %v, want %v", iters, want)
	}
	for _, phase := range []string{"spmv", "precond", "allreduce"} {
		found := false
		for _, f := range snap {
			if f.Name != "solver_iteration_phase_seconds" {
				continue
			}
			for _, s := range f.Samples {
				if len(s.Labels) == 1 && s.Labels[0].Value == phase && s.Count == uint64(iters) {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("phase %q histogram count != iteration count %v", phase, iters)
		}
	}

	// The trace endpoint serves the captured ring: a bounded iteration
	// window plus every recovery episode.
	code, body := getBody(t, ts.URL+"/v1/jobs/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace status %d: %s", code, body)
	}
	var tr engine.JobTrace
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if tr.JobID != id || tr.State != engine.StateDone {
		t.Fatalf("trace header = %+v", tr)
	}
	if tr.Capacity != 32 || len(tr.Iterations) == 0 || len(tr.Iterations) > 32 {
		t.Fatalf("trace window: capacity %d, %d iterations", tr.Capacity, len(tr.Iterations))
	}
	if tr.IterationsSeen != st.Result.Result.Iterations {
		t.Fatalf("iterations seen %d, solve took %d", tr.IterationsSeen, st.Result.Result.Iterations)
	}
	// The ring keeps the latest window: the last trace entry is the final
	// iteration, and residuals carry the trajectory.
	last := tr.Iterations[len(tr.Iterations)-1]
	if last.Iteration != st.Result.Result.Iterations {
		t.Fatalf("last traced iteration %d, want %d", last.Iteration, st.Result.Result.Iterations)
	}
	if last.Residual <= 0 || last.SpMV <= 0 {
		t.Fatalf("trace entry missing residual/phase data: %+v", last)
	}
	if len(tr.Recoveries) != 1 || tr.Recoveries[0].Strategy != engine.StrategyESR {
		t.Fatalf("trace recoveries = %+v", tr.Recoveries)
	}
	if rec := tr.Recoveries[0]; len(rec.FailedRanks) != 2 || rec.Duration <= 0 {
		t.Fatalf("recovery trace = %+v", rec)
	}

	// A missing job 404s on the trace route too.
	if code, _ := getBody(t, ts.URL+"/v1/jobs/nope/trace"); code != http.StatusNotFound {
		t.Fatalf("missing job trace status %d", code)
	}
}

// TestQuickTraceDisabled: without -trace-iters the trace route answers 404
// with the explanatory error.
func TestQuickTraceDisabled(t *testing.T) {
	ts, _ := newTestServer(t, 1) // TraceIters unset
	id := postJob(t, ts, engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 8}},
		Config: engine.Config{Ranks: 2},
	})
	waitState(t, ts, id, 30*time.Second)
	code, body := getBody(t, ts.URL+"/v1/jobs/"+id+"/trace")
	if code != http.StatusNotFound || !strings.Contains(body, "trace") {
		t.Fatalf("disabled trace: status %d body %s", code, body)
	}
}
