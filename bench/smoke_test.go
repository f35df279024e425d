package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the shape of the repo's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's own
// tables from drifting apart: same workloads, metrics, units, directions and
// bounds, in the same order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, program default %v", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, file []jsonMetric, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(prog))
		}
		for i, d := range prog {
			if (jsonMetric{d.Name, d.Unit, d.Better, d.Bound}) != file[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, program has %+v", kind, i, file[i], d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func smokeConfig(t *testing.T) runConfig {
	t.Helper()
	dir := t.TempDir()
	esrd := filepath.Join(dir, "esrd")
	if err := buildEsrd(esrd); err != nil {
		t.Fatal(err)
	}
	return runConfig{seed: 7, seconds: 1, tiny: true, esrd: esrd, workDir: dir}
}

// TestSmoke runs both passes of every workload at the tiny scale and asserts
// that exactly the declared metrics come out, each finite, with no failed
// operation.
func TestSmoke(t *testing.T) {
	base := smokeConfig(t)
	for _, wl := range workloads {
		for _, pass := range []struct {
			name  string
			trace bool
			defs  []metricDef
		}{{"untraced", false, endToEnd}, {"traced", true, perLayer}} {
			t.Run(wl.name+"/"+pass.name, func(t *testing.T) {
				cfg := base
				cfg.wl, cfg.trace = wl, pass.trace
				res, err := runOne(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() || res.Attempted == 0 {
					t.Errorf("attempted %d, failed %d, problems %v", res.Attempted, res.Failed, res.Problems)
				}
				if len(res.Metrics) != len(pass.defs) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(pass.defs))
				}
				for _, d := range pass.defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not reported", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.Name, m.Value)
					case !pass.trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestSabotageFails proves the answer checks can fail: checked against the
// wrong right-hand side, every operation of a run counts as failed.
func TestSabotageFails(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.wl, cfg.sabotage = workloads[0], true
	res, err := runOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || res.Failed == 0 {
		t.Errorf("sabotaged run passed: attempted %d, failed %d", res.Attempted, res.Failed)
	}
}

// TestQuantileMatchesPython pins the one quantile routine to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuantileMatchesPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	if lo, hi := quantile(v, 0.01), quantile(v, 0.99); lo != 1 || hi != 10 {
		t.Errorf("quantiles past the ends %v %v, want the end values 1 10", lo, hi)
	}
}

// syntheticSet holds one run per seed in which every end-to-end metric reads
// value + seed*step.
func syntheticSet(gomaxprocs int, seeds []int64, value, step float64) resultFile {
	set := resultFile{Env: environment{GOMAXPROCS: gomaxprocs, GOARCH: "amd64"}, Seconds: 1}
	for _, s := range seeds {
		r := runResult{Workload: workloads[0].name, Seed: s, Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metric{Value: value + float64(s)*step, Unit: d.Unit}
		}
		set.Runs = append(set.Runs, r)
	}
	return set
}

// TestCompareVerdicts covers the guard and the outcomes: a set made on
// another GOMAXPROCS or with other seeds is refused, equal sets agree, a
// median worse by more than the bound is reported, and so is a set whose own
// spread is wider than the bound - for every metric alike, setup_s too.
func TestCompareVerdicts(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	base := syntheticSet(2, seeds, 1, 1e-6)
	if rc := compareSets(base, syntheticSet(2, seeds, 1, 1e-6)); rc != 0 {
		t.Errorf("equal sets: exit code %d, want 0", rc)
	}
	if rc := compareSets(base, syntheticSet(1, seeds, 1, 1e-6)); rc != 2 {
		t.Errorf("other GOMAXPROCS: exit code %d, want 2 (refused)", rc)
	}
	if rc := compareSets(base, syntheticSet(2, []int64{1, 2, 3, 5}, 1, 1e-6)); rc != 2 {
		t.Errorf("other seeds: exit code %d, want 2 (refused)", rc)
	}
	// Twice the value: every lower-is-better metric is worse by 100%.
	if rc := compareSets(base, syntheticSet(2, seeds, 2, 1e-6)); rc != 1 {
		t.Errorf("doubled values: exit code %d, want 1 (worse)", rc)
	}
	// The same median, but runs from 0.7 to 1.3: a spread of 50%, wider than
	// any bound, and the runs overlap the first set's.
	if rc := compareSets(base, syntheticSet(2, seeds, 0.5, 0.2)); rc != 1 {
		t.Errorf("wide spread: exit code %d, want 1 (unresolved)", rc)
	}
	if !allBetter([]float64{1, 2}, []float64{3, 4}, "lower") || allBetter([]float64{1, 2}, []float64{3, 4}, "higher") ||
		!allBetter([]float64{3, 4}, []float64{1, 2}, "higher") || allBetter([]float64{1, 3}, []float64{3, 4}, "lower") {
		t.Error("allBetter: a set is better only when each of its runs beats each run of the other")
	}
}
