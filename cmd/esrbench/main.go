// Command esrbench reproduces the paper's evaluation: Tables 1-3 and the
// data of Figures 1-4, plus the Sec. 4.2 communication-model analysis and
// the recovery-strategy comparison (ESR vs checkpoint/restart vs cold
// restart).
//
// Usage:
//
//	esrbench -table 2 -scale small -ranks 16 -reps 3
//	esrbench -figure 1
//	esrbench -analysis
//	esrbench -strategies -scale tiny
//	esrbench -all -scale tiny
//	esrbench -table 1 -json > rows.json
//
// With -json, every section that ran is emitted as one JSON object on
// stdout ({"kind": ..., "data": ...} rows, machine-readable; plotting
// scripts consume these instead of scraping the aligned-text tables).
//
// At -scale paper the matrix sizes match the order of magnitude of the
// paper's SuiteSparse problems; expect long runtimes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/commmodel"
	"repro/internal/experiments"
	"repro/internal/matgen"
)

// emitter collects sections and renders them either as aligned text
// (immediately) or as one JSON object per section (NDJSON on stdout).
type emitter struct {
	jsonOut bool
	enc     *json.Encoder
}

// section is the JSON envelope of one reproduced table/figure.
type section struct {
	Kind string `json:"kind"`
	Data any    `json:"data"`
}

func (em *emitter) emit(kind string, data any, text string) {
	if !em.jsonOut {
		fmt.Println(text)
		return
	}
	if err := em.enc.Encode(section{Kind: kind, Data: data}); err != nil {
		fatal(err)
	}
}

func (em *emitter) progress(format string, args ...any) {
	// Progress chatter goes to stderr in JSON mode so stdout stays a clean
	// machine-readable stream.
	if em.jsonOut {
		fmt.Fprintf(os.Stderr, format, args...)
		return
	}
	fmt.Printf(format, args...)
}

func main() {
	var (
		table      = flag.Int("table", 0, "reproduce table 1, 2 or 3")
		figure     = flag.Int("figure", 0, "reproduce figure 1, 2, 3 or 4")
		analysis   = flag.Bool("analysis", false, "evaluate the Sec. 4.2 communication bounds")
		strategies = flag.Bool("strategies", false, "compare recovery strategies (ESR vs twin vs checkpoint/restart vs restart), incl. bit-flip detection latency")
		all        = flag.Bool("all", false, "reproduce everything")
		scale      = flag.String("scale", "small", "matrix scale: tiny, small or paper")
		ranks      = flag.Int("ranks", 16, "number of simulated compute nodes")
		reps       = flag.Int("reps", 3, "repetitions per configuration (paper: >= 5)")
		phis       = flag.String("phi", "1,3,8", "comma-separated redundancy levels")
		matrices   = flag.String("matrices", "", "comma-separated matrix ids (default: all of M1..M8)")
		tol        = flag.Float64("tol", 1e-8, "solver tolerance (relative residual reduction)")
		localTol   = flag.Float64("localtol", 1e-14, "reconstruction subsystem tolerance")
		failures   = flag.Int("failures", 3, "failed-rank batch size of the strategy comparison")
		intervals  = flag.String("intervals", "10,50", "comma-separated checkpoint intervals of the strategy comparison")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON rows instead of formatted tables")
	)
	flag.Parse()

	em := &emitter{jsonOut: *jsonOut, enc: json.NewEncoder(os.Stdout)}

	sc, err := matgen.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	cfg := experiments.DefaultConfig()
	cfg.Scale = sc
	cfg.Ranks = *ranks
	cfg.Reps = *reps
	cfg.Tol = *tol
	cfg.LocalTol = *localTol
	cfg.Phis = nil
	for _, s := range strings.Split(*phis, ",") {
		var phi int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &phi); err != nil {
			fatal(fmt.Errorf("bad -phi element %q", s))
		}
		if phi < cfg.Ranks {
			cfg.Phis = append(cfg.Phis, phi)
		} else {
			fmt.Fprintf(os.Stderr, "skipping phi=%d (>= ranks=%d)\n", phi, cfg.Ranks)
		}
	}
	var ids []string
	if *matrices != "" {
		for _, id := range strings.Split(*matrices, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	var ivals []int
	for _, s := range strings.Split(*intervals, ",") {
		var iv int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &iv); err != nil || iv <= 0 {
			fatal(fmt.Errorf("bad -intervals element %q", s))
		}
		ivals = append(ivals, iv)
	}

	ran := false
	start := time.Now()
	if *all || *table == 1 {
		runTable1(em, cfg)
		ran = true
	}
	if *all || *table == 2 {
		runTable2(em, cfg, ids)
		ran = true
	}
	if *all || *table == 3 {
		runTable3(em, cfg, ids)
		ran = true
	}
	if *all || *figure == 1 {
		runFigure(em, cfg, "M5", "center", 1)
		ran = true
	}
	if *all || *figure == 2 {
		runFigure(em, cfg, "M1", "start", 2)
		ran = true
	}
	if *all || *figure == 3 {
		runFigure(em, cfg, "M8", "center", 3)
		ran = true
	}
	if *all || *figure == 4 {
		runFigure4(em, cfg)
		ran = true
	}
	if *all || *analysis {
		runAnalysis(em, cfg)
		ran = true
	}
	if *all || *strategies {
		runStrategies(em, cfg, ids, *failures, ivals)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	em.progress("\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

func runTable1(em *emitter, cfg experiments.Config) {
	rows, err := cfg.Table1()
	if err != nil {
		fatal(err)
	}
	em.emit("table1", rows, experiments.FormatTable1(rows))
}

func runTable2(em *emitter, cfg experiments.Config, ids []string) {
	em.progress("running Table 2 sweep (scale=%s, ranks=%d, reps=%d, phis=%v)...\n",
		cfg.Scale, cfg.Ranks, cfg.Reps, cfg.Phis)
	rows, err := cfg.Table2(ids)
	if err != nil {
		fatal(err)
	}
	em.emit("table2", rows, experiments.FormatTable2(rows, cfg.Phis))
}

func runTable3(em *emitter, cfg experiments.Config, ids []string) {
	em.progress("running Table 3 sweep (residual-deviation metric)...\n")
	rows, err := cfg.Table3(ids)
	if err != nil {
		fatal(err)
	}
	em.emit("table3", rows, experiments.FormatTable3(rows))
}

func runFigure(em *emitter, cfg experiments.Config, id, location string, fignum int) {
	em.progress("running Figure %d sweep (%s at %s)...\n", fignum, id, location)
	fig, err := cfg.FigureRuntimes(id, location)
	if err != nil {
		fatal(err)
	}
	em.emit(fmt.Sprintf("figure%d", fignum), fig, experiments.FormatFigure(fig))
}

func runFigure4(em *emitter, cfg experiments.Config) {
	em.progress("running Figure 4 sweep (M5 at center, 3 failures, progress sweep)...\n")
	fig, err := cfg.FigureProgress("M5", "center", 3)
	if err != nil {
		fatal(err)
	}
	em.emit("figure4", fig, experiments.FormatProgressFigure(fig))
}

func runAnalysis(em *emitter, cfg experiments.Config) {
	rows, err := cfg.Analysis(commmodel.DefaultModel())
	if err != nil {
		fatal(err)
	}
	em.emit("analysis", rows, experiments.FormatAnalysis(rows))
}

func runStrategies(em *emitter, cfg experiments.Config, ids []string, failures int, intervals []int) {
	if failures >= cfg.Ranks {
		fatal(fmt.Errorf("-failures %d must be below -ranks %d", failures, cfg.Ranks))
	}
	em.progress("running strategy comparison (%d failures, C/R intervals %v)...\n", failures, intervals)
	if ids == nil {
		// The full catalogue triples the already-heavy Table-2-style sweep;
		// default to the paper's headline matrix class.
		ids = []string{"M5"}
	}
	rows, err := cfg.StrategyTable(ids, failures, intervals)
	if err != nil {
		fatal(err)
	}
	em.emit("strategies", rows, experiments.FormatStrategyTable(rows))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "esrbench:", err)
	os.Exit(1)
}
