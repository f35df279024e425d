package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/xerr"
)

// TestQuickStatusTable drives every class in the taxonomy through
// statusFor: each maps to its table status, the mapping survives fmt.Errorf
// wrapping, and an unclassified error falls through to 500.
func TestQuickStatusTable(t *testing.T) {
	want := map[*xerr.Class]int{
		xerr.InvalidArgument:    http.StatusBadRequest,
		xerr.NotFound:           http.StatusNotFound,
		xerr.AlreadyExists:      http.StatusConflict,
		xerr.FailedPrecondition: http.StatusConflict,
		xerr.ResourceExhausted:  http.StatusTooManyRequests,
		xerr.Unavailable:        http.StatusServiceUnavailable,
		xerr.DataLoss:           http.StatusInternalServerError,
		xerr.DeadlineExceeded:   http.StatusGatewayTimeout,
		xerr.Internal:           http.StatusInternalServerError,
	}
	classes := xerr.Classes()
	if len(classes) != len(want) {
		t.Fatalf("taxonomy has %d classes, test table covers %d — update both tables", len(classes), len(want))
	}
	for _, c := range classes {
		status, ok := want[c]
		if !ok {
			t.Fatalf("class %s missing from the test table", c.Code())
		}
		if _, ok := classStatus[c]; !ok {
			t.Errorf("class %s missing from classStatus — every class must map to a status", c.Code())
			continue
		}
		bare := xerr.New(c, "boom")
		if got := statusFor(bare); got != status {
			t.Errorf("statusFor(%s) = %d, want %d", c.Code(), got, status)
		}
		wrapped := fmt.Errorf("layer two: %w", fmt.Errorf("layer one: %w", bare))
		if got := statusFor(wrapped); got != status {
			t.Errorf("statusFor(wrapped %s) = %d, want %d — class lost through wrapping", c.Code(), got, status)
		}
	}
	if got := statusFor(errors.New("anonymous")); got != http.StatusInternalServerError {
		t.Errorf("statusFor(unclassified) = %d, want 500", got)
	}
	if got := statusFor(nil); got != http.StatusInternalServerError {
		t.Errorf("statusFor(nil) = %d, want 500", got)
	}
}

// TestQuickStatusForTableOnly pins the api_redesign invariant at the source
// level: statusFor derives statuses from the class table alone — no
// concrete-type switches or errors.As laddering anywhere in the server.
func TestQuickStatusForTableOnly(t *testing.T) {
	src, err := os.ReadFile("server.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{".(type)", "errors.As("} {
		if strings.Contains(string(src), forbidden) {
			t.Errorf("server.go contains %q — statuses must come from the classStatus table only", forbidden)
		}
	}
}

// TestQuickErrorEnvelope checks the wire shape end to end: errors arrive as
// {"error":{"code":..., "message":...}} with the code matching the class.
func TestQuickErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t, 1)

	check := func(resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
		var envelope apiError
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Fatalf("error body is not the envelope shape: %v", err)
		}
		if envelope.Error.Code != wantCode {
			t.Fatalf("error code = %q, want %q", envelope.Error.Code, wantCode)
		}
		if envelope.Error.Message == "" {
			t.Fatal("error envelope has an empty message")
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound, xerr.NotFound.Code())

	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"config":{"ranks":-3}}`))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusBadRequest, xerr.InvalidArgument.Code())

	resp, err = http.Get(ts.URL + "/v1/matrices/mat-999999")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound, xerr.NotFound.Code())
}

// TestQuickMetricsEndpointDurable boots the daemon in durable mode and
// lints the exposition with the esrd_store_* series registered — the
// store families only exist when a -data-dir is mounted, so the plain
// metrics tests never see them. Also checks the healthz store block.
func TestQuickMetricsEndpointDurable(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 1, QueueCap: 16, Store: st})
	ts := httptest.NewServer(newMux(eng, testLogger()))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
		st.Close()
	})

	spec := engine.JobSpec{
		Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16, "ny": 16}},
		Config: engine.Config{Ranks: 4},
	}
	id := postJob(t, ts, spec)
	waitState(t, ts, id, 30*time.Second)

	code, text := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if probs := metrics.Lint(text); len(probs) != 0 {
		t.Fatalf("exposition lint problems with store series: %v", probs)
	}
	for _, want := range []string{
		"# TYPE esrd_store_journal_records_total counter",
		"# TYPE esrd_store_bytes gauge",
		"# TYPE esrd_store_blobs gauge",
		"# TYPE esrd_store_journal_truncated_bytes gauge",
		"# TYPE esrd_store_errors_total counter",
		"# TYPE esrd_store_journal_sync_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	code, body := getBody(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	var health struct {
		Store map[string]float64 `json:"store"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if len(health.Store) == 0 {
		t.Fatalf("healthz has no store block: %s", body)
	}
	if health.Store["journal_records_total"] <= 0 {
		t.Fatalf("healthz store block shows no journal records: %v", health.Store)
	}
}
