package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	wl       workload
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // the smoke test's sizes; no flag sets it
	sabotage bool
	esrd     string // path of the built cmd/esrd binary
	workDir  string // scratch space; a fresh subdirectory is made and removed
}

// runResult is what one invocation reports.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	WallS     float64           `json:"wall_s"`
	Metrics   map[string]metric `json:"metrics"`
	Problems  []string          `json:"problems,omitempty"`
}

func (r runResult) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// share returns the given share of the run's --seconds as a duration.
func (c runConfig) share(f float64) time.Duration {
	return time.Duration(f * c.seconds * float64(time.Second))
}

// runOne runs the untraced or the traced pass of one workload.
func runOne(cfg runConfig) (runResult, error) {
	start := time.Now()
	res := runResult{Workload: cfg.wl.name, Seed: cfg.seed, Trace: cfg.trace}
	a, err := cfg.wl.spec(cfg.tiny).Build()
	if err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.wl.name+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	pool := cfg.wl.batchK
	if pool < ranks {
		pool = ranks
	}
	var t tally
	p := problem{a: a, in: newInputs(cfg.seed, a.Rows, pool), check: checker{sabotage: cfg.sabotage}, tally: &t}
	var ms *metricSet
	if cfg.trace {
		ms, err = tracedPass(cfg, p, dir)
	} else {
		ms, err = untracedPass(cfg, p, dir)
	}
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Metrics = ms.values
	res.Problems = append(ms.problems(), t.reasons...)
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// rounds is how many times the untraced pass cycles through its phases. One
// pass through setup, solves, batches and serving would give every metric a
// single stretch of the run, and a burst of noise from the host (they last
// seconds on a shared VM) would land on one metric whole. Cycling spreads
// each metric's samples over the whole run.
const rounds = 4

// untracedPass measures every end-to-end metric. With the sessions open and
// esrd up, it cycles `rounds` times through setup cycles, interleaved
// reference/protected/recovered solves, batches, and a closed-loop window
// against the daemon, and reports each metric over the samples of all
// rounds. The shares of --seconds are fixed so that every run of a workload
// does the same amount of each.
func untracedPass(cfg runConfig, p problem, dir string) (*metricSet, error) {
	ms := newMetricSet(endToEnd)
	if _, err := setupCycle(p.a); err != nil { // discarded warm-up
		return nil, fmt.Errorf("setup: %w", err)
	}
	lib, err := openLibrary(p)
	if err != nil {
		return nil, fmt.Errorf("preparing sessions: %w", err)
	}
	defer lib.close()
	srv, err := startServing(cfg.esrd, dir, cfg.wl, cfg.tiny, lib.problem)
	if err != nil {
		return nil, fmt.Errorf("starting esrd: %w", err)
	}
	defer srv.d.stop()

	var (
		setup, batches []float64
		tr             triples
		ld             load
	)
	for r := 0; r < rounds; r++ {
		cycles, err := sampleSetup(p.a, cfg.share(0.06/rounds), 2)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, cycles...)
		lib.runTriples(&tr, cfg.share(0.42/rounds), 1)
		batches = append(batches, lib.runBatches(cfg.wl.batchK, cfg.share(0.15/rounds), 1)...)
		srv.closedLoop(&ld, runtime.NumCPU(), cfg.share(0.30/rounds), 5)
	}
	ms.set("setup_s", median(setup))
	ms.set("solve_ref_s", median(tr.ref))
	ms.set("solve_protected_s", median(tr.prot))
	ms.set("solve_recovered_s", median(tr.rec))
	ms.set("recovery_s", median(tr.diff))
	ms.set("batch_solves_per_s", median(batches))
	ms.set("jobs_per_s", float64(len(ld.latency))/ld.window)
	ms.set("job_latency_p50_s", median(ld.latency))
	ms.set("job_latency_p95_s", quantile(ld.latency, 0.95))
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	ms.set("peak_rss_mb", rss)
	if rss, err = srv.peakRSS(); err != nil {
		return nil, err
	}
	ms.set("serve_peak_rss_mb", rss)
	return ms, nil
}
