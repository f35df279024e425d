package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/xerr"
)

// TestQuickConfigScopes fails when a knob is added without a scope, or with
// one the prepared-session identity or the per-solve overlay disagrees with:
// every Config field must declare exactly one of the four scopes (serialized
// fields a non-observer one), changing any prep field must change the prep
// key, and changing any other field must leave it alone. The overlay reads
// the same tags: on a session holding one value of a non-prep field, a
// per-call Config setting another must resolve to the call's, one leaving it
// zero to the session's, and a per-call prep field must change nothing. A new
// non-prep field of a kind solveSentinels knows reaches the solve with no
// edit to the solve path; any other kind fails here until taught.
func TestQuickConfigScopes(t *testing.T) {
	// SSOR so that every prep field, omega included, shapes preparation.
	base := Config{Ranks: 4, Phi: 1, Preconditioner: PrecondSSOR, SSOROmega: 1.1}
	baseKey := prepKey("h", base)
	policyOn := func(session, call Config) Config {
		t.Helper()
		ps := &Prepared{cfg: session.WithDefaults()}
		got, err := ps.policy(&call)
		if err != nil {
			t.Fatalf("policy(%+v) on session %+v: %v", call, session, err)
		}
		return *got
	}
	same := func(a, b reflect.Value) bool {
		if a.Kind() == reflect.Func {
			return a.Pointer() == b.Pointer()
		}
		return a.Interface() == b.Interface()
	}
	unchanged := policyOn(base, Config{})
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		scope := fieldScope(f)
		serialized := !strings.HasPrefix(f.Tag.Get("json"), "-")
		switch scope {
		case ScopePrep, ScopeRun, ScopeBatch:
			if !serialized {
				t.Errorf("%s: scope %q on a field that is not serialized; observers are the only such fields", f.Name, scope)
			}
		case ScopeObserver:
			if serialized {
				t.Errorf("%s: observer scope on a serialized field", f.Name)
			}
		default:
			t.Errorf("%s: scope tag %q is none of prep, run, batch, observer", f.Name, scope)
			continue
		}
		changed := base
		v := reflect.ValueOf(&changed).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(PrecondJacobi) // any value other than base's
		default:
			switch f.Name {
			case "Schedule":
				changed.Schedule = faults.NewSchedule(faults.Simultaneous(3, 1))
			case "Progress":
				changed.Progress = func(core.ProgressEvent) {}
			case "Tracer":
				changed.Tracer = &latticeTracer{}
			default:
				t.Fatalf("%s: teach this test to change a %s field", f.Name, v.Kind())
			}
		}
		if keyChanged := prepKey("h", changed) != baseKey; keyChanged != (scope == ScopePrep) {
			t.Errorf("%s (scope %q): changing it changed the prep key = %v", f.Name, scope, keyChanged)
		}

		if scope == ScopePrep {
			if got := policyOn(base, changed); !reflect.DeepEqual(got, unchanged) {
				t.Errorf("%s: setting it per call changed the resolved policy: %+v, want %+v", f.Name, got, unchanged)
			}
			continue
		}
		sessionVal, callVal := solveSentinels(t, f)
		session, call := base, Config{}
		if f.Name == "Method" {
			session.Preconditioner = PrecondIC0 // spcg's split factor
		}
		reflect.ValueOf(&session).Elem().Field(i).Set(sessionVal)
		reflect.ValueOf(&call).Elem().Field(i).Set(callVal)
		if got := reflect.ValueOf(policyOn(session, call)).Field(i); !same(got, callVal) {
			t.Errorf("%s (scope %q): the call's value did not reach the resolved policy: got %v, want %v",
				f.Name, scope, got, callVal)
		}
		if got := reflect.ValueOf(policyOn(session, Config{})).Field(i); !same(got, sessionVal) {
			t.Errorf("%s (scope %q): left zero per call, it did not keep the session's value: got %v, want %v",
				f.Name, scope, got, sessionVal)
		}
	}
	// Omega identifies prepared state only under the preconditioner that reads it.
	if prepKey("h", Config{Ranks: 4}) != prepKey("h", Config{Ranks: 4, SSOROmega: 1.7}) {
		t.Error("ssor_omega keys the prep cache under a preconditioner that ignores it")
	}
}

// solveSentinels returns a session value and a different per-call value of
// the non-prep Config field f, both valid on a four-rank phi-1 session.
// Numeric fields need no entry; any other field must be taught here.
func solveSentinels(t *testing.T, f reflect.StructField) (session, call reflect.Value) {
	t.Helper()
	var a, b any
	switch f.Type.Kind() {
	case reflect.Int, reflect.Int64:
		a, b = 3, 5
	case reflect.Float64:
		a, b = 0.25, 0.5
	default:
		switch f.Name {
		case "Method":
			a, b = MethodSPCG, MethodPCG // on an ic0 session (TestQuickConfigScopes)
		case "Transport":
			a, b = TransportChaos, TransportNet
		case "Strategy":
			a, b = StrategyCheckpoint, StrategyRestart
		case "Schedule":
			a, b = faults.NewSchedule(faults.Simultaneous(3, 1)), faults.NewSchedule(faults.Simultaneous(5, 2))
		case "Progress":
			a, b = func(core.ProgressEvent) {}, func(core.ProgressEvent) {}
		case "Tracer":
			a, b = &latticeTracer{}, &latticeTracer{}
		default:
			t.Fatalf("%s: teach solveSentinels a session and a per-call value of this %s field", f.Name, f.Type)
		}
	}
	return reflect.ValueOf(a).Convert(f.Type), reflect.ValueOf(b).Convert(f.Type)
}

// TestEnginePolicySharesOnePreparedSession: jobs on one registered matrix
// that differ only in run policy — fabric, strategy and interval, detector —
// are all served by one prepared session, and each is bitwise the
// solve a session prepared natively under that job's full Config produces.
func TestEnginePolicySharesOnePreparedSession(t *testing.T) {
	spec := MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16, "ny": 16}}
	a, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)/7
	}
	base := Config{Ranks: 4, Phi: 2, Schedule: faults.NewSchedule(faults.Simultaneous(5, 1, 2))}
	policies := map[string]func(*Config){
		"chan":       func(c *Config) { c.Transport = TransportChan },
		"fast":       func(c *Config) { c.Transport = fastSynonym },
		"net":        func(c *Config) { c.Transport = TransportNet },
		"chaos":      func(c *Config) { c.Transport, c.TransportSeed = TransportChaos, 7 },
		"esr":        func(c *Config) { c.Strategy = StrategyESR },
		"checkpoint": func(c *Config) { c.Strategy, c.CheckpointInterval = StrategyCheckpoint, 4 },
		"restart":    func(c *Config) { c.Strategy = StrategyRestart },
		"twin":       func(c *Config) { c.Strategy, c.TwinInterval = StrategyTwin, 2 },
		"sdc":        func(c *Config) { c.SDCCheckInterval = 5 },
	}

	// Three workers, so solves under different policies overlap on the shared
	// session (the race job runs this test too).
	eng := New(Options{Workers: 3})
	defer eng.Close()
	rec, err := eng.PutMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]string{}
	cfgs := map[string]Config{}
	for name, set := range policies {
		cfg := base
		set(&cfg)
		cfgs[name] = cfg
		if ids[name], err = eng.Submit(JobSpec{MatrixID: rec.ID, RHS: b, Config: cfg, KeepSolution: true}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for name, id := range ids {
		st := waitTerminal(t, eng, id, 60*time.Second)
		if st.State != StateDone {
			t.Fatalf("%s: job %s: %s", name, st.State, st.Error)
		}
		prep, err := Prepare(a, cfgs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := prep.Solve(context.Background(), b, cfgs[name])
		prep.Close()
		if err != nil {
			t.Fatalf("%s: native solve: %v", name, err)
		}
		got := st.Result
		if got.Result.Iterations != want.Result.Iterations ||
			got.Result.WorkIterations != want.Result.WorkIterations ||
			len(got.Result.Reconstructions) != len(want.Result.Reconstructions) {
			t.Fatalf("%s: shared session ran %d/%d iterations, %d episodes; native %d/%d, %d", name,
				got.Result.Iterations, got.Result.WorkIterations, len(got.Result.Reconstructions),
				want.Result.Iterations, want.Result.WorkIterations, len(want.Result.Reconstructions))
		}
		if len(want.Result.Reconstructions) != 1 {
			t.Fatalf("%s: %d episodes, want the schedule's one", name, len(want.Result.Reconstructions))
		}
		for i := range want.X {
			if got.X[i] != want.X[i] {
				t.Fatalf("%s: x[%d] = %x on the shared session, %x native", name, i, got.X[i], want.X[i])
			}
		}
	}
	if cs := eng.CacheStats(); cs.Misses != 1 || cs.Hits != int64(len(policies))-1 {
		t.Fatalf("cache stats %+v, want 1 miss and %d hits", cs, len(policies)-1)
	}
	// Each job's traffic is accounted to the fabric and strategy it ran under.
	for _, tr := range []string{TransportChan, TransportNet, TransportChaos} {
		if eng.TransportStats()[tr].Runs == 0 {
			t.Errorf("no runtime accounted to transport %q", tr)
		}
	}
	// "fast" is a parsed synonym: its job ran on, and is accounted to, chan.
	if u, ok := eng.TransportStats()[fastSynonym]; ok {
		t.Errorf("synonym %q has its own gauge: %+v", fastSynonym, u)
	}
	for _, s := range []string{StrategyESR, StrategyCheckpoint, StrategyRestart, StrategyTwin} {
		if eng.StrategyStats()[s].Solves == 0 {
			t.Errorf("no solve accounted to strategy %q", s)
		}
	}
}

// TestFailedJobKeepsErrorClass: a failed job's status and terminal event
// carry the class code of the error that failed it — a detected corruption
// under a strategy that cannot repair it reads data_loss, a wrong-length
// right-hand side invalid_argument, a recovered panic internal, an expired
// 1 ms timeout deadline_exceeded — and the code survives a store reopen.
func TestFailedJobKeepsErrorClass(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	e := New(Options{Workers: 1, Store: st, NetRunner: func(context.Context, JobSpec, func(core.ProgressEvent)) (Solution, error) {
		panic("boom")
	}})
	sdc := tinySpec()
	sdc.Config.SDCCheckInterval = 5
	sdc.Config.Schedule = faults.NewSchedule(faults.BitFlip(6, 1, faults.TargetX, 3, 52))
	shortRHS := tinySpec()
	shortRHS.RHS = []float64{1, 2, 3}
	panics := tinySpec()
	panics.Config.Transport = TransportNet
	deadline := slowSpec()
	deadline.TimeoutMillis = 1
	want := map[string]string{}
	for code, spec := range map[string]JobSpec{
		xerr.DataLoss.Code(): sdc, xerr.InvalidArgument.Code(): shortRHS, xerr.Internal.Code(): panics,
		xerr.DeadlineExceeded.Code(): deadline,
	} {
		id, err := e.Submit(spec)
		if err != nil {
			t.Fatalf("%q job: %v", code, err)
		}
		want[id] = code
	}
	check := func(e *Engine, when string) {
		t.Helper()
		for id, code := range want {
			got := waitTerminal(t, e, id, 60*time.Second)
			if got.State != StateFailed || got.Error == "" || got.ErrorCode != code {
				t.Fatalf("%s: job %s: state %s, error_code %q (%s), want failed with %q",
					when, id, got.State, got.ErrorCode, got.Error, code)
			}
			ch, stop, err := e.Watch(id, 0)
			if err != nil {
				t.Fatal(err)
			}
			var last Event
			for ev := range ch {
				last = ev
			}
			stop()
			if last.State != StateFailed || last.ErrorCode != code {
				t.Fatalf("%s: job %s: terminal event %+v, want error_code %q", when, id, last, code)
			}
		}
	}
	check(e, "live")
	e.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	e2 := New(Options{Workers: 1, Store: st2})
	defer func() { e2.Close(); st2.Close() }()
	check(e2, "replayed")
}
