package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sparse"
)

// TestQuickJobEvictionMaxJobs: terminal job records beyond MaxJobs are
// evicted oldest-finished first; live jobs are never evicted.
func TestQuickJobEvictionMaxJobs(t *testing.T) {
	e := New(Options{Workers: 1, MaxJobs: 2})
	defer e.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		id, err := e.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, e, id, 30*time.Second)
		ids = append(ids, id)
	}
	// Records are only swept on submit (and by the janitor); the fourth
	// submission pushes the store to 4 and must evict the two oldest
	// terminal records.
	id4, err := e.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, e, id4, 30*time.Second)

	for _, id := range ids[:2] {
		if _, err := e.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("evicted job %s still present (err %v)", id, err)
		}
	}
	if _, err := e.Get(ids[2]); err != nil {
		t.Fatalf("job %s should have survived: %v", ids[2], err)
	}
	if _, err := e.Get(id4); err != nil {
		t.Fatalf("job %s should have survived: %v", id4, err)
	}
	if got := len(e.List()); got != 2 {
		t.Fatalf("List returned %d records, want 2", got)
	}
}

// TestQuickEvictionOrder: at MaxJobs the records go in the order their
// jobs finished, not the order they were submitted; a running or queued job
// is never evicted, even when no terminal record is left to take; and a
// record Delete already removed is skipped, not counted as an eviction.
func TestQuickEvictionOrder(t *testing.T) {
	e := New(Options{Workers: 1, QueueCap: 16, MaxJobs: 3})
	defer e.Close()
	submit := func(spec JobSpec) string {
		t.Helper()
		id, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	running := submit(slowSpec())
	for deadline := time.Now().Add(30 * time.Second); ; {
		st, err := e.Get(running)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", running, st.State)
		}
		time.Sleep(time.Millisecond)
	}
	// Queued behind the running job: a, b, c finish (cancelled) in the
	// order c, b, a.
	a, b, c := submit(tinySpec()), submit(tinySpec()), submit(tinySpec())
	for _, id := range []string{c, b, a} {
		if err := e.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	if removed, err := e.Delete(c); err != nil || !removed {
		t.Fatalf("delete %s: removed=%v err=%v", c, removed, err)
	}
	present := func(want ...string) {
		t.Helper()
		var got []string
		for _, st := range e.List() {
			got = append(got, st.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("records %v, want %v", got, want)
		}
	}
	present(running, a, b)
	// d takes the store to 4 over a cap of 3: b goes, the oldest finished
	// record still held (c, older still, is already gone), though a was
	// submitted before it.
	d := submit(slowSpec())
	present(running, a, d)
	// e takes it to 4 again: a goes.
	e5 := submit(slowSpec())
	present(running, d, e5)
	// f: nothing terminal is left, so the store stays over the cap.
	f := submit(slowSpec())
	present(running, d, e5, f)
	// Once the running job finishes before the rest, it is the oldest
	// terminal record, and the one the next sweep takes.
	if err := e.Cancel(running); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, e, running, 30*time.Second)
	for _, id := range []string{f, d, e5} {
		if err := e.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	e.sweepJobsLocked(time.Now())
	e.mu.Unlock()
	present(d, e5, f)
}

// BenchmarkSubmitAtMaxJobs is one Submit and one Cancel on a standby engine
// whose record store is full of terminal records, at a small cap and at the
// default: each Submit evicts the oldest finished record.
func BenchmarkSubmitAtMaxJobs(b *testing.B) {
	for _, maxJobs := range []int{64, 4096} {
		b.Run(fmt.Sprintf("cap%d", maxJobs), func(b *testing.B) {
			e := New(Options{Workers: -1, QueueCap: maxJobs + b.N + 1, MaxJobs: maxJobs})
			defer e.Close()
			cycle := func() {
				id, err := e.Submit(tinySpec())
				if err != nil {
					b.Fatal(err)
				}
				if err := e.Cancel(id); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < maxJobs; i++ {
				cycle()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}

// TestQuickJobTTL: terminal records past the TTL are swept; a fresh record
// is not.
func TestQuickJobTTL(t *testing.T) {
	e := New(Options{Workers: 1, JobTTL: time.Hour})
	defer e.Close()

	id, err := e.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, e, id, 30*time.Second)

	e.mu.Lock()
	e.sweepJobsLocked(time.Now())
	e.mu.Unlock()
	if _, err := e.Get(id); err != nil {
		t.Fatalf("fresh record swept: %v", err)
	}

	e.mu.Lock()
	e.sweepJobsLocked(time.Now().Add(2 * time.Hour))
	e.mu.Unlock()
	if _, err := e.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired record still present (err %v)", err)
	}
	if got := len(e.List()); got != 0 {
		t.Fatalf("List returned %d records, want 0", got)
	}
}

// TestQuickDeleteJob: Delete removes terminal records and cancels live
// jobs.
func TestQuickDeleteJob(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	id, err := e.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, e, id, 30*time.Second)
	removed, err := e.Delete(id)
	if err != nil || !removed {
		t.Fatalf("delete terminal: removed=%v err=%v", removed, err)
	}
	if _, err := e.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted job still present (err %v)", err)
	}
	if _, err := e.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}

	// Deleting a live job cancels it but keeps the record; a second delete
	// removes it once terminal.
	blocker, err := e.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	removed, err = e.Delete(blocker)
	if err != nil {
		t.Fatal(err)
	}
	if removed {
		t.Fatal("delete of a live job removed the record")
	}
	st := waitTerminal(t, e, blocker, 30*time.Second)
	if st.State != StateCancelled {
		t.Fatalf("deleted live job ended %s", st.State)
	}
	if removed, err = e.Delete(blocker); err != nil || !removed {
		t.Fatalf("second delete: removed=%v err=%v", removed, err)
	}
}

// TestQuickMatrixStore: register-once/solve-many through the engine, with
// dedup, job counting, and deletion.
func TestQuickMatrixStore(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	spec := MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16, "ny": 16}}
	rec, err := e.PutMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Rows != 256 || rec.NNZ == 0 {
		t.Fatalf("record: %+v", rec)
	}
	// Identical content dedups onto the same record.
	again, err := e.PutMatrix(spec)
	if err != nil || again.ID != rec.ID {
		t.Fatalf("dedup: %+v err=%v", again, err)
	}
	// Different content gets its own record.
	other, err := e.PutMatrix(MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 12}})
	if err != nil || other.ID == rec.ID {
		t.Fatalf("distinct upload: %+v err=%v", other, err)
	}
	if got := len(e.ListMatrices()); got != 2 {
		t.Fatalf("ListMatrices: %d, want 2", got)
	}

	// Jobs reference the registered matrix by id.
	id, err := e.Submit(JobSpec{MatrixID: rec.ID, Config: Config{Ranks: 4}, KeepSolution: true})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, e, id, 30*time.Second)
	if st.State != StateDone || len(st.Result.X) != 256 || !st.Result.Result.Converged {
		t.Fatalf("matrix-id job: %s (%q)", st.State, st.Error)
	}
	got, err := e.GetMatrix(rec.ID)
	if err != nil || got.Jobs != 1 {
		t.Fatalf("job count: %+v err=%v", got, err)
	}

	// A wrong-length RHS is rejected at submit (the store knows the rows).
	if _, err := e.Submit(JobSpec{MatrixID: rec.ID, RHS: make([]float64, 7), Config: Config{Ranks: 4}}); err == nil {
		t.Fatal("mismatched RHS accepted")
	}
	// Exactly one matrix source per job.
	if _, err := e.Submit(JobSpec{MatrixID: rec.ID, Matrix: spec, Config: Config{Ranks: 4}}); err == nil {
		t.Fatal("job with two matrix sources accepted")
	}
	// Unknown ids are rejected at submit.
	if _, err := e.Submit(JobSpec{MatrixID: "mat-999999", Config: Config{Ranks: 4}}); !errors.Is(err, ErrMatrixNotFound) {
		t.Fatalf("unknown matrix id: %v", err)
	}
	// Deletion makes the id unknown for new submissions.
	if err := e.DeleteMatrix(rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(JobSpec{MatrixID: rec.ID, Config: Config{Ranks: 4}}); !errors.Is(err, ErrMatrixNotFound) {
		t.Fatalf("deleted matrix id: %v", err)
	}
}

// TestQuickPrepCacheReuse: jobs sharing matrix content and
// preparation-scoped config share one prepared session; solve-scoped
// differences do not fragment the cache, preparation-scoped ones do.
func TestQuickPrepCacheReuse(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	run := func(spec JobSpec) {
		t.Helper()
		id, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, e, id, 30*time.Second); st.State != StateDone {
			t.Fatalf("job %s: %s (%q)", id, st.State, st.Error)
		}
	}

	run(tinySpec())
	run(tinySpec()) // same prep key: cache hit
	tighter := tinySpec()
	tighter.Config.Tol = 1e-10 // solve-scoped: still a hit
	run(tighter)
	otherPrec := tinySpec()
	otherPrec.Config.Preconditioner = PrecondJacobi // prep-scoped: miss
	run(otherPrec)

	st := e.CacheStats()
	if st.Misses != 2 || st.Hits != 2 || st.Size != 2 {
		t.Fatalf("cache stats: %+v, want 2 misses, 2 hits, size 2", st)
	}
}

// TestQuickSubmitInvalidOmega: a divergent SSOR relaxation factor is
// rejected at submission with the typed error.
func TestQuickSubmitInvalidOmega(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	spec := tinySpec()
	spec.Config.Preconditioner = PrecondSSOR
	spec.Config.SSOROmega = 2.5
	var omegaErr *InvalidConfigError
	if _, err := e.Submit(spec); !errors.As(err, &omegaErr) || omegaErr.Field != "ssor_omega" || omegaErr.Value != 2.5 {
		t.Fatalf("omega 2.5 at submit: %v", err)
	}
	// The same typed error surfaces from the one-shot Validate path.
	cfg := Config{Preconditioner: PrecondSSOR, SSOROmega: -0.5}
	if err := cfg.Validate(); !errors.As(err, &omegaErr) || omegaErr.Field != "ssor_omega" {
		t.Fatalf("Validate: %v", err)
	}
	// The zero value still defaults to a valid omega.
	if err := (Config{Preconditioner: PrecondSSOR}).Validate(); err != nil {
		t.Fatalf("defaulted omega rejected: %v", err)
	}
}

// TestQuickPrepareContextCancel: a cancelled context aborts the preparation
// itself, not just the subsequent solve.
func TestQuickPrepareContextCancel(t *testing.T) {
	spec := tinySpec()
	a, err := spec.Matrix.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PrepareContext(ctx, a, spec.Config); !errors.Is(err, context.Canceled) {
		t.Fatalf("PrepareContext on cancelled ctx: %v", err)
	}
	// A live context prepares fine.
	ps, err := PrepareContext(context.Background(), a, spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	ps.Close()
}

// TestQuickCacheSharedMethodIsolation: a cached session built by an
// spcg job must not leak that method into a job sharing its prep key that
// leaves the method unset: that job runs the default pcg recurrence, bitwise.
func TestQuickCacheSharedMethodIsolation(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	builder := tinySpec()
	builder.Config.Phi, builder.Config.Method = 2, MethodSPCG // implies ic0
	id, err := e.Submit(builder)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, e, id, 30*time.Second); st.State != StateDone {
		t.Fatalf("builder job: %s (%q)", st.State, st.Error)
	}

	// Same prep key (method is run policy), default method, with failures.
	auto := resilientSpec()
	auto.Config.Preconditioner, auto.KeepSolution = PrecondIC0, true
	if id, err = e.Submit(auto); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, e, id, 30*time.Second)
	if st.State != StateDone || len(st.Result.Result.Reconstructions) != 1 {
		t.Fatalf("auto job on shared session: %s (%q)", st.State, st.Error)
	}
	a, b, err := auto.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	pcg := auto.Config
	pcg.Method = MethodPCG
	want, err := SolveSystem(context.Background(), a, b, pcg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.X {
		if st.Result.X[i] != want.X[i] {
			t.Fatalf("auto job x[%d] = %x, a pcg solve's %x: the builder's spcg leaked", i, st.Result.X[i], want.X[i])
		}
	}
	if cs := e.CacheStats(); cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("expected the two jobs to share one session: %+v", cs)
	}
}

// TestQuickCholBlockCap: network-submitted jobs cannot reach the dense
// Cholesky factorization with an oversized block.
func TestQuickCholBlockCap(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	spec := JobSpec{
		// 100x100 grid on 2 ranks: 5000-row blocks, over the 4096 cap.
		Matrix: MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 100}},
		Config: Config{Ranks: 2, Preconditioner: PrecondBlockJacobiChol},
	}
	id, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, e, id, 30*time.Second)
	if st.State != StateFailed || !strings.Contains(st.Error, "exceeds 4096") {
		t.Fatalf("oversized chol job: %s (%q)", st.State, st.Error)
	}
}

// TestPrepBuildRetriesAfterBuilderCancelled: two jobs share a prep key, and
// the first, the session's builder, is cancelled while it builds. The
// second, waiting on that build, must not inherit the cancellation: it
// builds the session again and ends done, to the bits of the same job run
// alone.
func TestPrepBuildRetriesAfterBuilderCancelled(t *testing.T) {
	spec := tinySpec()
	spec.KeepSolution = true
	ref := New(Options{Workers: 1})
	defer ref.Close()
	refID, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, refID, 30*time.Second)

	building, orig := make(chan struct{}), prepareJob
	var builds atomic.Int32
	prepareJob = func(ctx context.Context, a *sparse.CSR, cfg Config, em *engineMetrics) (*Prepared, error) {
		if builds.Add(1) == 1 {
			close(building)
			<-ctx.Done() // the first build stays open until its job is cancelled
		}
		return orig(ctx, a, cfg, em)
	}
	t.Cleanup(func() { prepareJob = orig })
	e := New(Options{Workers: 2, QueueCap: 4})
	defer e.Close()
	first, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-building
	second, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); e.CacheStats().Hits == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second job never joined the first one's build")
		}
	}
	if err := e.Cancel(first); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, e, first, 30*time.Second); st.State != StateCancelled {
		t.Fatalf("cancelled builder: %s (%s)", st.State, st.Error)
	}
	got := waitTerminal(t, e, second, 30*time.Second)
	if got.State != StateDone {
		t.Fatalf("job that waited on the cancelled build: %s, %q (%s); want done", got.State, got.ErrorCode, got.Error)
	}
	if cs := e.CacheStats(); cs.Misses != 2 || builds.Load() != 2 {
		t.Fatalf("%d builds, cache %+v; want the second job to build again", builds.Load(), cs)
	}
	sameBits(t, "x after the rebuild", got.Result.X, want.Result.X)
}
