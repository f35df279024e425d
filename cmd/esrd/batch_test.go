package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestBatchJobE2E submits a k=8 multi-RHS job over the wire ("bs" in the
// spec) and checks the blocked path end to end: per-column solutions and
// statistics in the result, the batch counters on /metrics, the healthz
// block-size gauge, and the per-job trace reporting the batch width.
func TestBatchJobE2E(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, QueueCap: 16, TraceIters: 8, Defaults: engine.Config{BlockSize: 16}})
	ts := httptest.NewServer(newMux(eng, testLogger()))
	defer func() {
		ts.Close()
		eng.Close()
	}()

	const n, k = 16 * 16, 8
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = 1 + 0.5*math.Sin(float64(j+1)*float64(i+1))
		}
	}
	id := postJob(t, ts, engine.JobSpec{
		Matrix:       engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16}},
		Config:       engine.Config{Ranks: 4, Phi: 1},
		RHSBatch:     bs,
		KeepSolution: true,
	})
	st := waitState(t, ts, id, 30*time.Second)
	if st.State != engine.StateDone {
		t.Fatalf("batch job state %s: %s", st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.XS) != k || len(st.Result.Results) != k {
		t.Fatalf("batch result shape: XS=%d Results=%d",
			len(st.Result.XS), len(st.Result.Results))
	}
	for j, res := range st.Result.Results {
		if !res.Converged {
			t.Fatalf("column %d did not converge", j)
		}
	}
	if len(st.Spec.RHSBatch) != 0 {
		t.Fatal("status snapshot leaks the bulk RHS batch")
	}

	// The batch rode the blocked path: its counters are on /metrics.
	_, text := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE solver_batch_rhs_total counter",
		"solver_batch_rhs_total 8",
		"solver_block_rhs_total 8",
		"solver_block_solves_total 1",
		"# TYPE esrd_block_size_default gauge",
		"esrd_block_size_default 16",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// healthz mirrors the block-size default gauge.
	var h struct {
		BlockSizeDefault int `json:"block_size_default"`
	}
	if _, body := getBody(t, ts.URL+"/v1/healthz"); json.Unmarshal([]byte(body), &h) != nil {
		t.Fatal("healthz did not decode")
	}
	if h.BlockSizeDefault != 16 {
		t.Fatalf("healthz block_size_default = %d, want the daemon default 16", h.BlockSizeDefault)
	}

	// The per-job trace reports the batch width.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var tr engine.JobTrace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.BatchRHS != k {
		t.Fatalf("trace batch_rhs = %d, want %d", tr.BatchRHS, k)
	}

	// A spec carrying both a single RHS and a batch is rejected at the door.
	raw, _ := json.Marshal(engine.JobSpec{
		Matrix:   engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16}},
		RHS:      bs[0],
		RHSBatch: bs,
	})
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("rhs+batch spec: status %d, want 400", resp2.StatusCode)
	}
}
