// Command bench is the repo's benchmark: it drives the public esr package and
// a live cmd/esrd on three problems and reports the end-to-end metrics of
// BENCHMARK.json (untraced pass) or the per-layer ladder (traced pass). See
// README.md in this directory.
//
// The contract form, one workload per invocation, last stdout line is the
// JSON result:
//
//	bench --workload poisson-latency --seed 1 --seconds 30 --trace 0
//
// Sets of runs and their comparison:
//
//	bench --workload all --runs 10 --out new.json   every workload, seeds seed..seed+9
//	bench --compare old.json new.json               medians, bounds, ok/worse/unresolved
//	bench --agree --runs 10                         two sets of the same code, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 30

// environment records where a set of runs was made; compare refuses sets
// whose gomaxprocs or goarch differ.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	GitSHA     string `json:"git_sha"`
	Started    string `json:"started"`
}

func currentEnvironment() environment {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, GitSHA: sha,
		Started: time.Now().UTC().Format(time.RFC3339)}
}

// resultFile is a set of runs as written by --out.
type resultFile struct {
	Env     environment `json:"env"`
	Seconds float64     `json:"seconds"`
	Runs    []runResult `json:"runs"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		wlName   = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs (right-hand sides, failing ranks, job order)")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		runs     = flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
		out      = flag.String("out", "", "write the set of runs, with the environment record, to this JSON file")
		esrd     = flag.String("esrd", "", "built cmd/esrd binary (default: build it into the work directory)")
		workDir  = flag.String("workdir", ".bench_build/work", "scratch directory (esrd binary, data directories)")
		sabotage = flag.Bool("sabotage", false, "check every answer against a wrong right-hand side: the run must fail")
		compare  = flag.Bool("compare", false, "compare two --out files given as arguments")
		agree    = flag.Bool("agree", false, "make two sets of runs of this code and compare them")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench --compare needs two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 || *runs < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: --trace is 0 or 1, --runs and --seconds are positive")
		return 2
	}
	selected := workloads
	if *wlName != "all" {
		wl, err := workloadByName(*wlName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		selected = []workload{wl}
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	abs, err := filepath.Abs(*workDir)
	if err == nil && *esrd == "" {
		*esrd = filepath.Join(abs, "esrd")
		err = buildEsrd(*esrd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1,
		sabotage: *sabotage, esrd: *esrd, workDir: abs}
	if len(selected) == 1 && *runs == 1 && !*agree {
		cfg.wl = selected[0]
		return single(cfg, *out)
	}

	// A set of runs: every run is a fresh process of this program in the
	// single-run form above, as whoever gates a change on these numbers will
	// run it - peak RSS, heap and caches start clean each time.
	makeSet := func() (resultFile, bool) {
		set := resultFile{Env: currentEnvironment(), Seconds: *seconds}
		ok := true
		for _, wl := range selected {
			for r := 0; r < *runs; r++ {
				res, err := child(cfg, wl.name, *seed+int64(r))
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", wl.name, *seed+int64(r), err)
					return set, false
				}
				ok = ok && res.correct()
				set.Runs = append(set.Runs, res)
			}
		}
		return set, ok
	}

	if *agree {
		first, ok1 := makeSet()
		second, ok2 := makeSet()
		if !ok1 || !ok2 {
			return 1
		}
		return compareSets(first, second)
	}
	set, ok := makeSet()
	if *out != "" {
		if err := writeSet(*out, set); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// contractLine is the last line of a single run's standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// single runs one workload once in this process and prints the metrics, then
// the contract's JSON line. It exits non-zero when any operation failed.
func single(cfg runConfig, out string) int {
	res, err := runOne(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", cfg.wl.name, cfg.seed, err)
		return 1
	}
	printRun(res)
	if out != "" {
		set := resultFile{Env: currentEnvironment(), Seconds: cfg.seconds, Runs: []runResult{res}}
		if err := writeSet(out, set); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(contractLine{res.correct(), res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

// child runs one workload once in a fresh process of this program, passes
// its report through, and reads the result off its last line.
func child(cfg runConfig, workload string, seed int64) (runResult, error) {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(cfg.seconds),
		"--trace", trace, "--esrd", cfg.esrd, "--workdir", cfg.workDir}
	if cfg.sabotage {
		args = append(args, "--sabotage")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	start := time.Now()
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	last := lines[len(lines)-1]
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var cl contractLine
	if jerr := json.Unmarshal([]byte(last), &cl); jerr != nil {
		return runResult{}, fmt.Errorf("no result line (%v): %v", err, jerr)
	}
	res := runResult{Workload: workload, Seed: seed, Trace: cfg.trace, Attempted: cl.Attempted,
		Failed: cl.Failed, Metrics: cl.Metrics, WallS: time.Since(start).Seconds()}
	if !cl.Correct {
		res.Problems = []string{"the run reported correct: false"}
	}
	return res, nil
}

func writeSet(path string, set resultFile) error {
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printRun lists every metric of a run by name, with its unit.
func printRun(r runResult) {
	pass, defs := "untraced", endToEnd
	if r.Trace {
		pass, defs = "traced", perLayer
	}
	fmt.Printf("# %s  seed %d  %s  attempted %d  failed %d  wall %.1fs  gomaxprocs %d\n",
		r.Workload, r.Seed, pass, r.Attempted, r.Failed, r.WallS, runtime.GOMAXPROCS(0))
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("%-36s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, p := range r.Problems {
		fmt.Printf("! %s\n", p)
	}
}
