package engine

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/store"
	"repro/internal/xerr"
)

// openStore opens (or reopens) the durable store under dir.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

// crash simulates a process death: the store is closed out from under the
// engine (so Close's cancellation records are NOT journaled, exactly like a
// kill -9 before them) and then the engine is torn down.
func crash(t *testing.T, e *Engine, st *store.Store) {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	e.Close()
}

func durableSpec() JobSpec {
	s := tinySpec()
	s.KeepSolution = true
	return s
}

// TestDurableRestartRunsQueuedJobs is the core crash-replay property: jobs
// accepted but never run before a crash re-enter the queue on restart and
// produce solutions bit-identical to an uninterrupted engine's.
func TestDurableRestartRunsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	// Standby engine: accepts and journals jobs, never starts them.
	e := New(Options{Workers: -1, QueueCap: 16, Store: st})
	ids := make([]string, 3)
	for i := range ids {
		id, err := e.Submit(durableSpec())
		if err != nil {
			t.Fatalf("Submit(%d): %v", i, err)
		}
		ids[i] = id
	}
	crash(t, e, st)

	// Restart on the same directory with real workers: the journal replays
	// and the queued jobs run to completion.
	st2 := openStore(t, dir)
	e2 := New(Options{Workers: 2, QueueCap: 16, Store: st2})
	defer func() { e2.Close(); st2.Close() }()

	// Reference: the same spec on a fresh in-memory engine.
	ref := New(Options{Workers: 1})
	defer ref.Close()
	refID, err := ref.Submit(durableSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, refID, 30*time.Second)
	if want.State != StateDone {
		t.Fatalf("reference job: state %s, err %q", want.State, want.Error)
	}

	for _, id := range ids {
		got := waitTerminal(t, e2, id, 30*time.Second)
		if got.State != StateDone {
			t.Fatalf("replayed job %s: state %s, err %q", id, got.State, got.Error)
		}
		if got.Result == nil || len(got.Result.X) != len(want.Result.X) {
			t.Fatalf("replayed job %s: missing or mis-sized result", id)
		}
		for i := range got.Result.X {
			if got.Result.X[i] != want.Result.X[i] {
				t.Fatalf("replayed job %s: X[%d] = %v, want bit-identical %v",
					id, i, got.Result.X[i], want.Result.X[i])
			}
		}
		if got.Result.Result.Iterations != want.Result.Result.Iterations {
			t.Fatalf("replayed job %s: %d iterations, want %d",
				id, got.Result.Result.Iterations, want.Result.Result.Iterations)
		}
	}
}

// jobKey projects a JobStatus onto its replay-stable fields.
type jobKey struct {
	ID, State, Error, Spec, Result string
	Enqueued                       int64
}

func snapshotJobs(t *testing.T, e *Engine) []jobKey {
	t.Helper()
	var out []jobKey
	for _, st := range e.List() {
		spec, err := json.Marshal(st.Spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, jobKey{
			ID: st.ID, State: string(st.State), Error: st.Error,
			Spec: string(spec), Result: string(res),
			Enqueued: st.EnqueuedAt.UnixNano(),
		})
	}
	return out
}

// TestDurableReplayIdempotent replays the same journal twice (in standby
// engines, so no job runs and mutates state) and asserts both replays
// reconstruct identical job sets and the second replay appended no
// journal records — replaying twice is the same as replaying once.
func TestDurableReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	e := New(Options{Workers: 2, QueueCap: 16, Store: st})
	// One finished job with a kept result...
	doneID, err := e.Submit(durableSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, e, doneID, 30*time.Second); got.State != StateDone {
		t.Fatalf("job %s: state %s, err %q", doneID, got.State, got.Error)
	}
	e.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and, after a restart (replaying the finished job), two still-queued
	// jobs from a standby engine, then a crash.
	st = openStore(t, dir)
	e = New(Options{Workers: -1, QueueCap: 16, Store: st})
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(durableSpec()); err != nil {
			t.Fatal(err)
		}
	}
	crash(t, e, st)

	var snaps [][]jobKey
	var recCounts [2]int64
	for round := 0; round < 2; round++ {
		st := openStore(t, dir)
		e := New(Options{Workers: -1, QueueCap: 16, Store: st})
		snaps = append(snaps, snapshotJobs(t, e))
		recCounts[round] = st.Stats().JournalRecords
		crash(t, e, st)
	}
	if len(snaps[0]) != 3 {
		t.Fatalf("first replay reconstructed %d jobs, want 3", len(snaps[0]))
	}
	if len(snaps[0]) != len(snaps[1]) {
		t.Fatalf("replays disagree: %d vs %d jobs", len(snaps[0]), len(snaps[1]))
	}
	for i := range snaps[0] {
		if snaps[0][i] != snaps[1][i] {
			t.Fatalf("replay not idempotent at job %d:\n first %+v\nsecond %+v", i, snaps[0][i], snaps[1][i])
		}
	}
	if recCounts[0] != recCounts[1] {
		t.Fatalf("replay appended records: %d then %d", recCounts[0], recCounts[1])
	}
}

// TestDurableTerminalReload checks that finished jobs survive a clean
// restart with their results, and that an explicitly deleted job stays
// deleted.
func TestDurableTerminalReload(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	e := New(Options{Workers: 1, QueueCap: 16, Store: st})
	keepID, err := e.Submit(durableSpec())
	if err != nil {
		t.Fatal(err)
	}
	dropID, err := e.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, e, keepID, 30*time.Second)
	waitTerminal(t, e, dropID, 30*time.Second)
	if removed, err := e.Delete(dropID); err != nil || !removed {
		t.Fatalf("Delete(%s) = %v, %v", dropID, removed, err)
	}
	e.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	e2 := New(Options{Workers: -1, QueueCap: 16, Store: st2})
	defer crash(t, e2, st2)
	got, err := e2.Get(keepID)
	if err != nil {
		t.Fatalf("Get(%s) after restart: %v", keepID, err)
	}
	if got.State != StateDone || got.Result == nil {
		t.Fatalf("reloaded job %s: state %s, result %v", keepID, got.State, got.Result)
	}
	for i := range want.Result.X {
		if got.Result.X[i] != want.Result.X[i] {
			t.Fatalf("reloaded result X[%d] = %v, want %v", i, got.Result.X[i], want.Result.X[i])
		}
	}
	if got.FinishedAt == nil {
		t.Fatalf("reloaded job %s lost its finish time", keepID)
	}
	if _, err := e2.Get(dropID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted job %s resurrected: err = %v", dropID, err)
	}
	// New submissions must not collide with replayed ids.
	newID, err := e2.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if newID == keepID || newID == dropID {
		t.Fatalf("post-restart id %s collides with a replayed id", newID)
	}
}

// TestDurableMatrixWarmAndCorrupt checks that registered matrices reload
// from the blob store on restart — and that a corrupted blob is dropped
// rather than trusted, failing replayed jobs that reference it.
func TestDurableMatrixWarmAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	e := New(Options{Workers: -1, QueueCap: 16, Store: st})
	rec, err := e.PutMatrix(MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16, "ny": 16}})
	if err != nil {
		t.Fatalf("PutMatrix: %v", err)
	}
	jobID, err := e.Submit(JobSpec{MatrixID: rec.ID, Config: Config{Ranks: 4}, KeepSolution: true})
	if err != nil {
		t.Fatal(err)
	}
	crash(t, e, st)

	// Clean restart: the matrix warms from its blob and the queued job
	// solves against it.
	st2 := openStore(t, dir)
	e2 := New(Options{Workers: 2, QueueCap: 16, Store: st2})
	got, err := e2.GetMatrix(rec.ID)
	if err != nil {
		t.Fatalf("GetMatrix after restart: %v", err)
	}
	if got.Hash != rec.Hash || got.Rows != rec.Rows || got.NNZ != rec.NNZ {
		t.Fatalf("reloaded record %+v, want %+v", got, rec)
	}
	if jst := waitTerminal(t, e2, jobID, 30*time.Second); jst.State != StateDone {
		t.Fatalf("job on warmed matrix: state %s, err %q", jst.State, jst.Error)
	}
	// Re-queue a job against the matrix, then crash and corrupt the blob.
	e2 = func() *Engine { e2.Close(); return New(Options{Workers: -1, QueueCap: 16, Store: st2}) }()
	jobID2, err := e2.Submit(JobSpec{MatrixID: rec.ID, Config: Config{Ranks: 4}})
	if err != nil {
		t.Fatal(err)
	}
	crash(t, e2, st2)
	blob := filepath.Join(dir, "blobs", rec.Hash)
	buf, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x01
	if err := os.WriteFile(blob, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	st3 := openStore(t, dir)
	e3 := New(Options{Workers: -1, QueueCap: 16, Store: st3})
	defer crash(t, e3, st3)
	if _, err := e3.GetMatrix(rec.ID); !errors.Is(err, ErrMatrixNotFound) {
		t.Fatalf("corrupt-blob matrix still served: err = %v", err)
	}
	jst, err := e3.Get(jobID2)
	if err != nil {
		t.Fatal(err)
	}
	if jst.State != StateFailed {
		t.Fatalf("job on corrupt matrix: state %s, want failed", jst.State)
	}
}

// TestDurableReplayRespectsMaxJobs checks that replay applies the same
// retention policy as live operation: terminal records beyond MaxJobs are
// evicted (oldest first), not resurrected.
func TestDurableReplayRespectsMaxJobs(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	e := New(Options{Workers: 1, QueueCap: 16, Store: st})
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := e.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, e, id, 30*time.Second)
		ids = append(ids, id)
	}
	e.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	e2 := New(Options{Workers: -1, QueueCap: 16, MaxJobs: 2, Store: st2})
	defer crash(t, e2, st2)
	if n := e2.Count(); n != 2 {
		t.Fatalf("replay kept %d jobs with MaxJobs=2, want 2", n)
	}
	for _, id := range ids[:2] {
		if _, err := e2.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("oldest job %s survived MaxJobs replay eviction", id)
		}
	}
	for _, id := range ids[2:] {
		if _, err := e2.Get(id); err != nil {
			t.Fatalf("newest job %s lost in replay: %v", id, err)
		}
	}
}

// TestDurableSubmitFailsWhenStoreClosed: with durability on, a submit that
// cannot be journaled is refused — the caller never holds an id that would
// vanish on restart.
func TestDurableSubmitFailsWhenStoreClosed(t *testing.T) {
	st := openStore(t, t.TempDir())
	e := New(Options{Workers: -1, QueueCap: 16, Store: st})
	defer e.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := e.Submit(tinySpec())
	if err == nil {
		t.Fatal("Submit succeeded with a closed store")
	}
	if !errors.Is(err, xerr.Unavailable) {
		t.Fatalf("Submit with closed store = %v, want Unavailable class", err)
	}
}

// TestDurableReplayKeepsAcceptedPolicy: a job runs under the daemon defaults
// that accepted it, after a restart without them too. A phi-0 job with a
// fail-stop schedule is servable only under a rollback strategy: accepted by
// a standby engine whose default strategy is checkpoint and replayed by one
// with no defaults, it finishes done under checkpoint, to the bits of the job
// an uninterrupted checkpoint engine runs — not refused as an ESR job
// without redundancy.
func TestDurableReplayKeepsAcceptedPolicy(t *testing.T) {
	spec := durableSpec()
	spec.Config.Schedule = faults.NewSchedule(faults.Simultaneous(5, 1))
	checkpoint := Config{Strategy: StrategyCheckpoint}
	dir := t.TempDir()
	st := openStore(t, dir)
	e := New(Options{Workers: -1, QueueCap: 4, Defaults: checkpoint, Store: st})
	id, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	crash(t, e, st)

	st2 := openStore(t, dir)
	e2 := New(Options{Workers: 1, QueueCap: 4, Store: st2})
	defer func() { e2.Close(); st2.Close() }()
	got := waitTerminal(t, e2, id, 30*time.Second)
	if got.State != StateDone {
		t.Fatalf("replayed job: state %s, err %q; want done under checkpoint", got.State, got.Error)
	}
	if n := e2.StrategyStats()[StrategyCheckpoint].Solves; n != 1 {
		t.Fatalf("replayed job: %d checkpoint solves, want 1 (strategies %v)", n, e2.StrategyStats())
	}

	ref := New(Options{Workers: 1, Defaults: checkpoint})
	defer ref.Close()
	refID, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, refID, 30*time.Second)
	if want.State != StateDone {
		t.Fatalf("reference job: state %s, err %q", want.State, want.Error)
	}
	if g, w := got.Result.Result.Iterations, want.Result.Result.Iterations; g != w {
		t.Fatalf("replayed job: %d iterations, reference %d", g, w)
	}
	sameBits(t, "replayed x", got.Result.X, want.Result.X)
}

// TestDurableReplayRefusesWhatTheFleetCannotRun: a net job accepted by a
// daemon without a fleet, replayed by a coordinator whose fleet cannot run
// it (four ranks, two worker processes), fails at replay with the refusal
// Submit would have answered — failed_precondition, journaled — and never
// reaches the fleet.
func TestDurableReplayRefusesWhatTheFleetCannotRun(t *testing.T) {
	spec := durableSpec()
	spec.Config.Transport = TransportNet
	dir := t.TempDir()
	st := openStore(t, dir)
	e := New(Options{Workers: -1, QueueCap: 4, Store: st})
	id, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	crash(t, e, st)

	st2 := openStore(t, dir)
	e2 := New(Options{Workers: 1, QueueCap: 4, Store: st2, NetPeers: 2,
		NetRunner: func(context.Context, JobSpec, core.Tracer) (Solution, cluster.TransportStats, error) {
			t.Error("the refused job reached the fleet")
			return Solution{}, cluster.TransportStats{}, nil
		}})
	defer func() { e2.Close(); st2.Close() }()
	got := waitTerminal(t, e2, id, 30*time.Second)
	if got.State != StateFailed || got.ErrorCode != xerr.FailedPrecondition.Code() {
		t.Fatalf("replayed 4-rank net job on a 2-process fleet: state %s, error_code %q (%s); want failed, failed_precondition",
			got.State, got.ErrorCode, got.Error)
	}
}

// TestDurableReplayFailsInvalidConfig: replay admits a journalled job the way
// Submit does. A submit record whose Config no longer validates
// ("transport": "chaos", a fabric only tests install) fails at replay, on a
// standby engine too: failed invalid_argument naming transport, its payload
// never charged and no matrix built, and journalled, so the next replay
// reloads the failure.
func TestDurableReplayFailsInvalidConfig(t *testing.T) {
	spec := durableSpec()
	spec.RHS = make([]float64, 256)
	for i := range spec.RHS {
		spec.RHS[i] = float64(i)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	rec["config"].(map[string]any)["transport"] = "chaos"
	if raw, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Append(store.Record{Kind: store.KindSubmit, Time: time.Now(), JobID: jobID(1), Spec: raw}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for replay := 1; replay <= 2; replay++ {
		st = openStore(t, dir)
		e := New(Options{Workers: -1, QueueCap: 4, Store: st})
		got, err := e.Get(jobID(1))
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateFailed || got.ErrorCode != xerr.InvalidArgument.Code() || !strings.Contains(got.Error, "transport") {
			t.Fatalf("replay %d: chaos job %s, %q (%s); want failed invalid_argument naming transport",
				replay, got.State, got.ErrorCode, got.Error)
		}
		e.mu.Lock()
		pb := e.payloadBytes
		e.mu.Unlock()
		if pb != 0 || e.CacheStats().Misses != 0 {
			t.Fatalf("replay %d: %d payload bytes charged, %d sessions built; want none", replay, pb, e.CacheStats().Misses)
		}
		crash(t, e, st)
	}
}
