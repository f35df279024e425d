package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	esr "repro"
)

// TestQuickConfigValidationEverySpelling: one bad value is one refusal,
// whichever way the Config arrives — Config.Validate, esr.NewSolver, a
// per-call esr.Solver.Solve and POST /v1/jobs all answer it with an
// invalid_argument *InvalidConfigError naming the same field (over HTTP a
// 400 whose message names it). Zero stays "the default" everywhere; negative
// and non-finite values are errors. JSON has no NaN or Inf, so those rows
// have no wire spelling.
func TestQuickConfigValidationEverySpelling(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ssor := esr.PrecondSSOR
	cases := []struct {
		field string
		cfg   esr.Config
		wire  string // the config object's body; "" when JSON cannot spell it
	}{
		{"ranks", esr.Config{Ranks: -3}, `"ranks": -3`},
		{"tol", esr.Config{Tol: -1}, `"tol": -1`},
		{"max_iter", esr.Config{MaxIter: -5}, `"max_iter": -5`},
		{"local_tol", esr.Config{LocalTol: -1e-3}, `"local_tol": -1e-3`},
		{"tol", esr.Config{Tol: nan}, ""},
		{"tol", esr.Config{Tol: inf}, ""},
		{"local_tol", esr.Config{LocalTol: nan}, ""},
		{"ssor_omega", esr.Config{Preconditioner: ssor, SSOROmega: nan}, ""},
		{"ssor_omega", esr.Config{SSOROmega: -inf}, ""},
	}
	a := esr.Poisson2D(8, 8)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	ts, _ := newTestServer(t, 1)
	for i, tc := range cases {
		name := fmt.Sprintf("row %d (%s)", i, tc.field)
		names := func(via string, err error) {
			t.Helper()
			var cfgErr *esr.InvalidConfigError
			if !errors.As(err, &cfgErr) || cfgErr.Field != tc.field || !errors.Is(err, esr.ErrInvalidArgument) {
				t.Errorf("%s via %s: got %v, want an invalid_argument *InvalidConfigError on %s", name, via, err, tc.field)
			}
		}
		names("Config.Validate", tc.cfg.Validate())
		_, err := esr.NewSolver(a, tc.cfg)
		names("NewSolver", err)
		// The session shares the row's preconditioner, so only the bad value
		// differs per call.
		s, err := esr.NewSolver(a, esr.Config{Ranks: 4, Preconditioner: tc.cfg.Preconditioner})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Solve(context.Background(), b, tc.cfg)
		s.Close()
		names("Solver.Solve", err)
		if tc.wire == "" {
			continue
		}
		status, code, msg := postRefused(t, ts,
			`{"matrix": {"generator": "poisson2d", "params": {"nx": 8}}, "config": {`+tc.wire+`}}`)
		if status != http.StatusBadRequest || code != "invalid_argument" || !strings.Contains(msg, "invalid "+tc.field+" ") {
			t.Errorf("%s via POST /v1/jobs: %d %s %q, want 400 invalid_argument naming %s", name, status, code, msg, tc.field)
		}
	}
}

// TestQuickGeneratorRefusedAtSubmit: a matrix spec naming no generator the
// table knows, or a catalogue scale out of range, is refused where it is
// submitted — a 400 invalid_argument at POST /v1/jobs and at POST
// /v1/matrices — not accepted and failed later on a worker.
func TestQuickGeneratorRefusedAtSubmit(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	for _, spec := range []string{
		`{"generator": "nosuch"}`,
		`{"generator": "M3", "params": {"scale": 9}}`,
	} {
		for path, body := range map[string]string{
			"/v1/jobs":     `{"matrix": ` + spec + `}`,
			"/v1/matrices": spec,
		} {
			if status, code, msg := postRefusedAt(t, ts, path, body); status != http.StatusBadRequest || code != "invalid_argument" {
				t.Errorf("POST %s %s: %d %s %q, want 400 invalid_argument", path, body, status, code, msg)
			}
		}
	}
}
