package engine

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/store"
)

// awkwardFloats is an n-vector (n >= 8) that opens with the values a decimal
// round trip is most likely to bend and fills up with irrationals.
func awkwardFloats(n int, salt float64) []float64 {
	v := make([]float64, n)
	copy(v, []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1040, math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3.0})
	for i := 8; i < n; i++ {
		v[i] = math.Sqrt(float64(i)+salt) * math.Pow(-10, float64(i%37-18))
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// floatsSpec is a 4 096-row job that never has to run: the tests below read
// it back from the journal.
func floatsSpec() JobSpec {
	return JobSpec{
		Matrix:       MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 64}},
		Config:       Config{Ranks: 4},
		KeepSolution: true,
	}
}

// TestJournalFloatColumnsRoundTrip journals right-hand sides and solution
// vectors through Append, reopens the store and replays: every value comes
// back with the bits it went in with, for a single right-hand side and for
// batches of width 1 and 3 — which the journal must keep apart although both
// the single vector and the width-1 batch are one column — and a reloaded
// batch solution's X is its XS[0], as in the live engine.
func TestJournalFloatColumnsRoundTrip(t *testing.T) {
	const n = 4096
	for _, tc := range []struct {
		name  string
		batch int // 0: single right-hand side
	}{{"single", 0}, {"batch1", 1}, {"batch3", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir)
			e := New(Options{Workers: -1, QueueCap: 4, Store: st})

			queued, done := floatsSpec(), floatsSpec()
			sol := &Solution{X: awkwardFloats(n, 0.5)}
			if tc.batch == 0 {
				queued.RHS, done.RHS = awkwardFloats(n, 0), awkwardFloats(n, 0)
			} else {
				for c := 0; c < tc.batch; c++ {
					queued.RHSBatch = append(queued.RHSBatch, awkwardFloats(n, float64(c)))
					sol.XS = append(sol.XS, awkwardFloats(n, float64(c)+0.5))
				}
				done.RHSBatch = queued.RHSBatch
				sol.X, sol.Results = sol.XS[0], make([]core.Result, tc.batch)
			}
			queuedID, err := e.Submit(queued)
			if err != nil {
				t.Fatal(err)
			}
			doneID, err := e.Submit(done)
			if err != nil {
				t.Fatal(err)
			}
			// The worker's half of a job's life, by the hooks it would call.
			e.journalState(doneID, StateRunning, "", "")
			e.journalResult(doneID, sol)
			e.journalState(doneID, StateDone, "", "")
			crash(t, e, st)

			st2 := openStore(t, dir)
			e2 := New(Options{Workers: -1, QueueCap: 4, Store: st2})
			defer crash(t, e2, st2)
			if errs := e2.metrics.storeErrors.Value(); errs != 0 {
				t.Fatalf("replay counted %v store errors", errs)
			}

			got := e2.jobs[queuedID].spec
			if len(got.RHSBatch) != tc.batch || (tc.batch == 0) != (got.RHS != nil) {
				t.Fatalf("requeued spec has rhs %v, batch width %d; want the submitted shape (batch %d)",
					got.RHS != nil, len(got.RHSBatch), tc.batch)
			}
			if tc.batch == 0 {
				sameBits(t, "rhs", got.RHS, queued.RHS)
			}
			for c := range got.RHSBatch {
				sameBits(t, "bs column", got.RHSBatch[c], queued.RHSBatch[c])
			}
			if bk := e2.jobs[queuedID].batchK; bk != tc.batch {
				t.Fatalf("requeued job has batchK %d, want %d", bk, tc.batch)
			}

			status, err := e2.Get(doneID)
			if err != nil {
				t.Fatal(err)
			}
			if status.State != StateDone || status.Result == nil {
				t.Fatalf("reloaded job: state %s, result %v", status.State, status.Result)
			}
			res := status.Result
			sameBits(t, "x", res.X, sol.X)
			if len(res.XS) != tc.batch || len(res.Results) != tc.batch {
				t.Fatalf("reloaded result has %d xs, %d results, want %d", len(res.XS), len(res.Results), tc.batch)
			}
			for c := range res.XS {
				sameBits(t, "xs column", res.XS[c], sol.XS[c])
			}
			if tc.batch > 0 && &res.X[0] != &res.XS[0][0] {
				t.Fatal("reloaded batch result holds x apart from xs[0]")
			}
		})
	}
}

// parentRecords journals one job the way the engine did before float
// columns: the whole spec and the whole solution as JSON, old kind strings.
func parentRecords(t *testing.T, st *store.Store, id string, at time.Time, spec JobSpec, sol *Solution) {
	t.Helper()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs := []store.Record{{Kind: store.KindSubmit, Time: at, JobID: id, Spec: specJSON}}
	if sol != nil {
		solJSON, err := json.Marshal(sol)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs,
			store.Record{Kind: store.KindState, Time: at.Add(time.Millisecond), JobID: id, State: string(StateRunning)},
			store.Record{Kind: store.KindResult, Time: at.Add(2 * time.Millisecond), JobID: id, Result: solJSON},
			store.Record{Kind: store.KindState, Time: at.Add(3 * time.Millisecond), JobID: id, State: string(StateDone)})
	}
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalParentFormatReplays: a journal written before float columns
// existed replays to the same job records and the same re-queued specs as
// today's journal of the same jobs.
func TestJournalParentFormatReplays(t *testing.T) {
	const n = 256
	at := time.Now().Add(-time.Minute).Round(0)
	single, batch := floatsSpec(), floatsSpec()
	single.RHS = awkwardFloats(n, 0)
	batch.RHSBatch = [][]float64{awkwardFloats(n, 1), awkwardFloats(n, 2)}
	singleSol := &Solution{X: awkwardFloats(n, 3)}
	singleSol.Result.Iterations, singleSol.Result.Converged = 17, true
	batchSol := &Solution{XS: [][]float64{awkwardFloats(n, 4), awkwardFloats(n, 5)}, Results: make([]core.Result, 2)}
	batchSol.X = batchSol.XS[0]
	jobs := []struct {
		spec JobSpec
		sol  *Solution // nil: still queued
	}{{single, nil}, {batch, nil}, {single, singleSol}, {batch, batchSol}}

	oldDir, newDir := t.TempDir(), t.TempDir()
	oldSt := openStore(t, oldDir)
	for i, j := range jobs {
		parentRecords(t, oldSt, jobID(i+1), at, j.spec, j.sol)
	}
	if err := oldSt.Close(); err != nil {
		t.Fatal(err)
	}
	newSt := openStore(t, newDir)
	e := New(Options{Workers: -1, QueueCap: 8, Store: newSt})
	for i, j := range jobs {
		rec, err := submitRecord(j.spec, at)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.journalSubmit(jobID(i+1), rec); err != nil {
			t.Fatal(err)
		}
		if j.sol != nil {
			e.journalState(jobID(i+1), StateRunning, "", "")
			e.journalResult(jobID(i+1), j.sol)
			e.journalState(jobID(i+1), StateDone, "", "")
		}
	}
	crash(t, e, newSt)

	type replayed struct {
		specs   []JobSpec
		results []*Solution
		states  []State
	}
	replay := func(dir string) replayed {
		st := openStore(t, dir)
		e := New(Options{Workers: -1, QueueCap: 8, Store: st})
		defer crash(t, e, st)
		if errs := e.metrics.storeErrors.Value(); errs != 0 {
			t.Fatalf("replay of %s counted %v store errors", dir, errs)
		}
		var r replayed
		for i := range jobs {
			j := e.jobs[jobID(i+1)]
			if j == nil {
				t.Fatalf("replay of %s lost job %d", dir, i+1)
			}
			r.specs, r.results, r.states = append(r.specs, j.spec), append(r.results, j.result), append(r.states, j.state)
		}
		return r
	}
	fromOld, fromNew := replay(oldDir), replay(newDir)
	if !reflect.DeepEqual(fromOld.states, fromNew.states) {
		t.Fatalf("states differ: parent format %v, float columns %v", fromOld.states, fromNew.states)
	}
	for i, j := range jobs {
		if !reflect.DeepEqual(fromOld.specs[i], fromNew.specs[i]) {
			t.Fatalf("job %d: spec replayed from the parent format differs from the float-column one", i+1)
		}
		if !reflect.DeepEqual(fromOld.results[i], fromNew.results[i]) {
			t.Fatalf("job %d: result replayed from the parent format differs from the float-column one", i+1)
		}
		if j.sol == nil {
			// Still queued: the spec a worker will solve is the one submitted.
			if fromOld.states[i] != StateQueued || !reflect.DeepEqual(fromOld.specs[i], j.spec) {
				t.Fatalf("job %d: re-queued as %s with a spec other than the submitted one", i+1, fromOld.states[i])
			}
		} else if !reflect.DeepEqual(fromOld.results[i], j.sol) {
			t.Fatalf("job %d: reloaded result differs from the journaled one", i+1)
		}
	}
}

func jobID(seq int) string { return fmt.Sprintf("job-%06d", seq) }

// TestCompatJournalReplaysRemovedKnobs: parent-format journals replay. One
// submit record still carries the removed per-job thread cap ("threads": 2)
// and the old fabric name ("transport": "fast"), two the method names of the
// reference-only era ("method": "pcg" and "esrpcg") — the unknown field is
// ignored, the synonyms resolve to chan and pcg — and each job re-runs to the
// bits of the same job submitted today with neither.
func TestCompatJournalReplaysRemovedKnobs(t *testing.T) {
	spec := durableSpec()
	spec.Config.Phi = 1
	spec.Config.Schedule = faults.NewSchedule(faults.Simultaneous(4, 2))
	spec.RHS = make([]float64, 256)
	for i := range spec.RHS {
		spec.RHS[i] = math.Sin(float64(i) + 0.5)
	}
	old := []map[string]any{{"threads": 2, "transport": "fast"}, {"method": "pcg"}, {"method": "esrpcg"}}
	dir := t.TempDir()
	st := openStore(t, dir)
	for n, knobs := range old {
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var rec map[string]any
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		maps.Copy(rec["config"].(map[string]any), knobs)
		if raw, err = json.Marshal(rec); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(store.Record{Kind: store.KindSubmit, Time: time.Now(), JobID: jobID(n + 1), Spec: raw}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openStore(t, dir)
	e := New(Options{Workers: 1, QueueCap: 4, Store: st})
	defer func() { e.Close(); st.Close() }()
	if errs := e.metrics.storeErrors.Value(); errs != 0 {
		t.Fatalf("replay counted %v store errors", errs)
	}

	ref := New(Options{Workers: 1})
	defer ref.Close()
	refID, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, refID, 30*time.Second)
	for n, knobs := range old {
		got := waitTerminal(t, e, jobID(n+1), 30*time.Second)
		if got.State != StateDone || want.State != StateDone {
			t.Fatalf("%v: replayed job %s (%q), reference %s (%q)", knobs, got.State, got.Error, want.State, want.Error)
		}
		if g, w := got.Result.Result, want.Result.Result; g.Iterations != w.Iterations || len(g.Reconstructions) != 1 {
			t.Fatalf("%v: replayed job: %d iterations, %d episodes; reference %d iterations",
				knobs, g.Iterations, len(g.Reconstructions), w.Iterations)
		}
		sameBits(t, fmt.Sprintf("%v: replayed x", knobs), got.Result.X, want.Result.X)
	}
	if _, ok := e.TransportStats()[TransportChan]; !ok || len(e.TransportStats()) != 1 {
		t.Fatalf("replayed jobs ran on %v, want chan alone", e.TransportStats())
	}
}

// TestJournalSkipsNonFiniteResult: a done job whose solution holds NaN is
// not journaled as a result (no response could carry it), so it replays as
// unfinished and runs again. With the vector in bytes nothing fails by
// itself any more: the check is explicit.
func TestJournalSkipsNonFiniteResult(t *testing.T) {
	for _, tc := range []struct {
		name string
		sol  *Solution
	}{
		{"x", &Solution{X: []float64{1, math.NaN(), 3}}},
		{"xs", &Solution{XS: [][]float64{{1, 2}, {math.Inf(1), 4}}, Results: make([]core.Result, 2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir)
			e := New(Options{Workers: -1, QueueCap: 4, Store: st})
			id, err := e.Submit(durableSpec())
			if err != nil {
				t.Fatal(err)
			}
			e.journalState(id, StateRunning, "", "")
			before := st.Stats().JournalRecords
			e.journalResult(id, tc.sol)
			if got := st.Stats().JournalRecords; got != before {
				t.Fatalf("a non-finite solution was journaled (%d -> %d records)", before, got)
			}
			if errs := e.metrics.storeErrors.Value(); errs != 1 {
				t.Fatalf("store errors = %v, want 1", errs)
			}
			crash(t, e, st)

			st2 := openStore(t, dir)
			e2 := New(Options{Workers: -1, QueueCap: 4, Store: st2})
			defer crash(t, e2, st2)
			status, err := e2.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if status.State != StateQueued || status.Result != nil {
				t.Fatalf("job replayed as %s with result %v, want queued again", status.State, status.Result)
			}
		})
	}
}

// journalJobSpec is the bench's job: a 4 096-row right-hand side in, the
// solution kept.
func journalJobSpec() JobSpec {
	spec := floatsSpec()
	spec.RHS = make([]float64, 4096)
	for i := range spec.RHS {
		spec.RHS[i] = math.Sin(float64(i) + 0.25)
	}
	return spec
}

// TestJournalBytesPerJob bounds what one served job leaves in the journal:
// its 2 x 4 096 floats at base64's 10.7 bytes each plus the JSON of four
// records. As decimal text the same job took ~19 bytes a float.
func TestJournalBytesPerJob(t *testing.T) {
	st := openStore(t, t.TempDir())
	e := New(Options{Workers: 1, QueueCap: 4, Store: st})
	defer func() { e.Close(); st.Close() }()
	spec := journalJobSpec()
	id, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, e, id, 30*time.Second)
	if got.State != StateDone || len(got.Result.X) != len(spec.RHS) {
		t.Fatalf("job: state %s, err %q", got.State, got.Error)
	}
	floats := int64(len(spec.RHS) + len(got.Result.X))
	if bytes, limit := st.Stats().JournalBytes, 12*floats+2048; bytes > limit {
		t.Fatalf("journal holds %d bytes for one job of %d floats, limit %d", bytes, floats, limit)
	}
}

// BenchmarkJournalJob is the journal's share of one served job: the submit
// record and the result record of a 4 096-row job with its solution kept,
// encoded and appended to a store on disk (no fsync, as the bench's daemon).
func BenchmarkJournalJob(b *testing.B) {
	st, err := store.Open(store.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	e := New(Options{Workers: -1, Store: st})
	defer e.Close()
	spec := journalJobSpec()
	sol := &Solution{X: make([]float64, len(spec.RHS))}
	for i := range sol.X {
		sol.X[i] = math.Cos(float64(i) + 0.25)
	}
	enqueued := time.Now()
	start := st.Stats().JournalBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := submitRecord(spec, enqueued)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.journalSubmit("job-000001", rec); err != nil {
			b.Fatal(err)
		}
		e.journalResult("job-000001", sol)
	}
	b.StopTimer()
	b.ReportMetric(float64(st.Stats().JournalBytes-start)/float64(b.N), "journal-B/op")
}
