package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/xerr"
)

// TestQuickStrategyConfigValidation: strategy names and checkpoint intervals
// are validated at the door with typed errors, at both submit and prepare.
func TestQuickStrategyConfigValidation(t *testing.T) {
	a := matgen.Poisson2D(8, 8)

	var stratErr *InvalidConfigError
	isStrategy := func(err error) bool {
		return errors.As(err, &stratErr) && stratErr.Field == "strategy" && stratErr.Value == "prayer"
	}
	cfg := Config{Strategy: "prayer"}
	if err := cfg.Validate(); !isStrategy(err) {
		t.Fatalf("Validate: want *InvalidConfigError{strategy}, got %v", err)
	}
	eng := New(Options{Workers: 1})
	defer eng.Close()
	spec := JobSpec{
		Matrix: MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 8}},
		Config: cfg,
	}
	if _, err := eng.Submit(spec); !isStrategy(err) {
		t.Fatalf("Submit: want *InvalidConfigError{strategy}, got %v", err)
	}
	if _, err := Prepare(a, cfg); !isStrategy(err) {
		t.Fatalf("Prepare: want *InvalidConfigError{strategy}, got %v", err)
	}

	var ivalErr *InvalidConfigError
	isInterval := func(err error) bool {
		return errors.As(err, &ivalErr) && ivalErr.Field == "checkpoint_interval" && ivalErr.Value == -5
	}
	bad := Config{Strategy: StrategyCheckpoint, CheckpointInterval: -5}
	if err := bad.Validate(); !isInterval(err) {
		t.Fatalf("Validate: want *InvalidConfigError{checkpoint_interval, -5}, got %v", err)
	}
	spec.Config = bad
	if _, err := eng.Submit(spec); !isInterval(err) {
		t.Fatalf("Submit: want *InvalidConfigError{checkpoint_interval}, got %v", err)
	}
	if _, err := Prepare(a, bad); !isInterval(err) {
		t.Fatalf("Prepare: want *InvalidConfigError{checkpoint_interval}, got %v", err)
	}

	// SPCG is a recurrence of the one driver: it runs under every strategy
	// (a rollback included), on the ic0 session its split factor needs.
	spcg := Config{Ranks: 4, Method: MethodSPCG, Strategy: StrategyCheckpoint, CheckpointInterval: 4}
	if err := spcg.Validate(); err != nil {
		t.Fatalf("spcg+checkpoint: %v", err)
	}
	if err := (Config{Method: MethodSPCG, Preconditioner: PrecondJacobi}).Validate(); err == nil || !strings.Contains(err.Error(), PrecondIC0) {
		t.Fatalf("spcg+jacobi: want a needs-ic0 error, got %v", err)
	}
	prepSPCG, err := Prepare(a, spcg)
	if err != nil {
		t.Fatal(err)
	}
	defer prepSPCG.Close()
	spcgOnes := make([]float64, a.Rows)
	for i := range spcgOnes {
		spcgOnes[i] = 1
	}
	sol, err := prepSPCG.Solve(context.Background(), spcgOnes, Config{Schedule: faults.NewSchedule(faults.Simultaneous(6, 1))})
	if err != nil || !sol.Result.Converged || sol.Result.WorkIterations != sol.Result.Iterations+3 {
		t.Fatalf("spcg+checkpoint under a failure at 6 (rollback to 4 redoes 4, 5 and the begun 6): %+v, err %v", sol.Result, err)
	}
	// The reference solver runs no strategy; pairing it with one would
	// silently skip the requested protection.
	pcg := Config{Method: MethodPCG, Strategy: StrategyRestart}
	if err := pcg.Validate(); err == nil || !strings.Contains(err.Error(), "strategy-free") {
		t.Fatalf("pcg+restart: want strategy error, got %v", err)
	}
	prepCk, err := Prepare(a, Config{Ranks: 4, Strategy: StrategyCheckpoint})
	if err != nil {
		t.Fatal(err)
	}
	defer prepCk.Close()
	ones := make([]float64, a.Rows)
	for i := range ones {
		ones[i] = 1
	}
	if _, err := prepCk.Solve(context.Background(), ones, Config{Method: MethodPCG}); err == nil ||
		!strings.Contains(err.Error(), "strategy-free") {
		t.Fatalf("per-solve pcg on a checkpoint session: want strategy error, got %v", err)
	}

	// The valid names (and the empty default) all pass.
	for _, s := range []string{"", StrategyESR, StrategyCheckpoint, StrategyRestart} {
		if err := (Config{Strategy: s}).Validate(); err != nil {
			t.Fatalf("strategy %q should validate: %v", s, err)
		}
	}
	if got := (Config{}).WithDefaults().Strategy; got != StrategyESR {
		t.Fatalf("default strategy = %q, want %q", got, StrategyESR)
	}
	if got := (Config{}).WithDefaults().CheckpointInterval; got != 10 {
		t.Fatalf("default checkpoint interval = %d, want 10", got)
	}
}

// TestQuickStrategyPrepKey: the strategy, its intervals and the detector are
// run policy — no prepared state depends on them — so none of them may
// fragment the prepared-session cache key.
func TestQuickStrategyPrepKey(t *testing.T) {
	base := prepKey("h", Config{Ranks: 4})
	for _, cfg := range []Config{
		{Ranks: 4, Strategy: StrategyCheckpoint},
		{Ranks: 4, Strategy: StrategyCheckpoint, CheckpointInterval: 25},
		{Ranks: 4, Strategy: StrategyRestart},
		{Ranks: 4, Strategy: StrategyTwin, TwinInterval: 4},
		{Ranks: 4, CheckpointInterval: 25},
		{Ranks: 4, SDCCheckInterval: 5},
	} {
		if prepKey("h", cfg) != base {
			t.Fatalf("%+v keys the prep cache; strategy policy must not", cfg)
		}
	}
}

// TestStrategyCacheKeying: jobs differing only in strategy or checkpoint
// interval share one prepared session of the registered matrix.
func TestStrategyCacheKeying(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()
	rec, err := eng.PutMatrix(MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 12}})
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config) {
		t.Helper()
		id, err := eng.Submit(JobSpec{MatrixID: rec.ID, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, eng, id, 30*time.Second)
		if st.State != StateDone {
			t.Fatalf("job state %s: %s", st.State, st.Error)
		}
	}
	run(Config{Ranks: 4}) // the one miss
	run(Config{Ranks: 4})
	run(Config{Ranks: 4, Strategy: StrategyCheckpoint})
	run(Config{Ranks: 4, Strategy: StrategyCheckpoint})
	run(Config{Ranks: 4, Strategy: StrategyCheckpoint, CheckpointInterval: 25})
	run(Config{Ranks: 4, Strategy: StrategyRestart})
	run(Config{Ranks: 4, Strategy: StrategyRestart, CheckpointInterval: 25})
	cs := eng.CacheStats()
	if cs.Misses != 1 || cs.Hits != 6 {
		t.Fatalf("cache stats = %+v, want 1 miss / 6 hits", cs)
	}
}

// TestStrategySessionAndEngineGauges: solves under checkpoint/restart
// strategies populate the session's StrategyStats and the engine's
// per-strategy gauges, and the daemon-level default strategy applies to jobs
// that did not pick one.
func TestStrategySessionAndEngineGauges(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	sched := faults.NewSchedule(faults.Simultaneous(12, 1, 2))

	prep, err := Prepare(a, Config{Ranks: 4, Strategy: StrategyCheckpoint, CheckpointInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer prep.Close()
	if prep.StrategyName() != StrategyCheckpoint {
		t.Fatalf("StrategyName = %q", prep.StrategyName())
	}
	sol, err := prep.Solve(context.Background(), b, Config{Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Converged {
		t.Fatal("did not converge")
	}
	ss := prep.StrategyStats()
	if ss.Solves != 1 || ss.Episodes != 1 {
		t.Fatalf("session strategy stats = %+v", ss)
	}
	if ss.Checkpoints == 0 || ss.CheckpointFloats == 0 {
		t.Fatalf("checkpoint activity not accounted: %+v", ss)
	}
	// Failure at 12 with interval 5 rolls back to 10: the aborted pass plus
	// the two redone iterations.
	if ss.RedoneIterations != 3 {
		t.Fatalf("redone iterations = %d, want 3", ss.RedoneIterations)
	}

	eng := New(Options{Workers: 1, Defaults: Defaults{Strategy: StrategyRestart}})
	defer eng.Close()
	id, err := eng.Submit(JobSpec{
		Matrix: MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 12}},
		Config: Config{Ranks: 4, Schedule: faults.NewSchedule(faults.Simultaneous(6, 1))},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, eng, id, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	usage := eng.StrategyStats()
	u, ok := usage[StrategyRestart]
	if !ok || u.Solves != 1 || u.Episodes != 1 {
		t.Fatalf("engine strategy gauges = %+v", usage)
	}
	if u.RedoneIterations != 7 { // restart at iteration 6 redoes passes 0..6
		t.Fatalf("restart redone iterations = %d, want 7", u.RedoneIterations)
	}
	if _, ok := usage[StrategyESR]; ok {
		t.Fatalf("no ESR solve should have run: %+v", usage)
	}
}

// TestStrategyScheduleNeedsPhiOnlyForESR: a failure schedule without
// redundancy is rejected under ESR but served under checkpoint/restart.
func TestStrategyScheduleNeedsPhiOnlyForESR(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	sched := faults.NewSchedule(faults.Simultaneous(4, 1))

	prep, err := Prepare(a, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer prep.Close()
	if _, err := prep.Solve(context.Background(), b, Config{Schedule: sched}); !errors.Is(err, xerr.InvalidArgument) ||
		!strings.Contains(err.Error(), "phi") {
		t.Fatalf("ESR at phi 0 must reject a schedule as an invalid argument, got %v", err)
	}

	for _, strat := range []string{StrategyCheckpoint, StrategyRestart} {
		sol, err := SolveSystem(context.Background(), a, b, Config{
			Ranks: 4, Strategy: strat, Schedule: sched,
		})
		if err != nil {
			t.Fatalf("strategy %q: %v", strat, err)
		}
		if !sol.Result.Converged || len(sol.Result.Reconstructions) != 1 {
			t.Fatalf("strategy %q: %+v", strat, sol.Result)
		}
	}
}

// TestQuickPhiZeroFailStopRefusedAtSubmit: whether a phi-0 job's fail-stop
// schedule is servable depends on the strategy it will run under, its own or
// the daemon's default. Under esr or twin Submit refuses it — an
// invalid_argument *InvalidConfigError naming phi, no job record — instead of
// accepting a job bound to fail; under checkpoint, or a restart default, it
// is accepted.
func TestQuickPhiZeroFailStopRefusedAtSubmit(t *testing.T) {
	spec := func(strategy string) JobSpec {
		return JobSpec{
			Matrix: MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 8}},
			Config: Config{Ranks: 4, Strategy: strategy, Schedule: faults.NewSchedule(faults.Simultaneous(3, 1))},
		}
	}
	eng := New(Options{Workers: 1})
	defer eng.Close()
	for _, s := range []string{"", StrategyESR, StrategyTwin} {
		var cfgErr *InvalidConfigError
		if _, err := eng.Submit(spec(s)); !errors.As(err, &cfgErr) || cfgErr.Field != "phi" ||
			!errors.Is(err, xerr.InvalidArgument) {
			t.Fatalf("strategy %q: Submit = %v, want an invalid_argument *InvalidConfigError on phi", s, err)
		}
	}
	if jobs := eng.List(); len(jobs) != 0 {
		t.Fatalf("refused submissions left %d job records", len(jobs))
	}
	if _, err := eng.Submit(spec(StrategyCheckpoint)); err != nil {
		t.Fatalf("checkpoint at phi 0: %v", err)
	}
	restart := New(Options{Workers: 1, Defaults: Defaults{Strategy: StrategyRestart}})
	defer restart.Close()
	if _, err := restart.Submit(spec("")); err != nil {
		t.Fatalf("restart default at phi 0: %v", err)
	}
}
