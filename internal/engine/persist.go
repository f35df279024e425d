package engine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/sparse"
	"repro/internal/store"
	"repro/internal/xerr"
)

// This file is the engine<->store glue: journal hooks at the job lifecycle
// edges and the startup replay that rebuilds engine state from the
// journal.
//
// Journal discipline:
//
//   - A submit record is appended (and, with -fsync, flushed) BEFORE the
//     job becomes reachable by a worker, so no state record can precede
//     its submit record and a failed WAL write fails the submission.
//   - Every state transition appends a state record from transitionLocked,
//     the engine's single transition point — cancel, eviction sweep, batch
//     chunking failures and net-fleet retries all pass through it.
//   - A done job's result record is appended before its terminal state
//     record: a crash between the two replays the job as still running,
//     which re-runs it — never a terminal job with a half-written result.
//   - Deletes (explicit, TTL/MaxJobs eviction, or the rollback of a submit
//     that lost the queue-capacity race) all pass through forgetLocked,
//     which appends a delete record, so a replayed store honours the same
//     retention the live engine did.
//
// Bulk float vectors do not travel as JSON: a submit record's right-hand
// sides and a result record's solution vectors are lifted out of the spec /
// solution into the record's float columns (store.Record.Floats), bit for
// bit. The JSON that stays behind keeps the shape — "bs" / "xs" as arrays of
// that many nulls for a batch, absent for a single vector — so the reader
// knows where the columns go back; it reads a journal from before the
// columns existed (arrays inline, no Floats) with the same two steps.
//
// Replay is idempotent: replaying the journal twice yields the same
// engine state as replaying it once, because records are keyed by job id
// and state transitions are absorbing (a second "running" record is a
// no-op on a running job, and replay itself appends no records for the
// jobs it rebuilds).

// journalAppend appends best-effort: runtime journaling failures (disk
// full, store closed during shutdown races) degrade durability, not
// service. They are counted on esrd_store_errors_total.
func (e *Engine) journalAppend(rec store.Record) {
	if err := e.store.Append(rec); err != nil {
		e.metrics.storeErrorInc()
	}
}

// liftColumns packs a record's bulk vectors — batch if it has columns, else
// single — into journal float columns: little-endian float64 bits, so what
// replay reads back is what was written, whatever the value. It leaves only
// their shape behind for the JSON: single nil, batch as many nil columns
// ("[null,null]") as it had.
func liftColumns(single *[]float64, batch *[][]float64) [][]byte {
	vecs := *batch
	if len(vecs) == 0 {
		if len(*single) == 0 {
			return nil
		}
		vecs = [][]float64{*single}
	} else {
		*batch = make([][]float64, len(vecs))
	}
	*single = nil
	cols := make([][]byte, len(vecs))
	for c, v := range vecs {
		b := make([]byte, 8*len(v))
		for i, f := range v {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
		}
		cols[c] = b
	}
	return cols
}

// restoreColumns is liftColumns backwards: the columns go where the decoded
// JSON left their shape. A record without columns (nothing was lifted, or it
// predates them and holds its vectors inline) is left as decoded.
func restoreColumns(cols [][]byte, single *[]float64, batch *[][]float64) error {
	if len(cols) == 0 {
		return nil
	}
	want := max(len(*batch), 1)
	if len(cols) != want {
		return fmt.Errorf("engine: journal record has %d float columns, its payload names %d", len(cols), want)
	}
	vecs := make([][]float64, len(cols))
	for c, b := range cols {
		if len(b)%8 != 0 {
			return fmt.Errorf("engine: journal float column %d is %d bytes, not a whole number of float64", c, len(b))
		}
		v := make([]float64, len(b)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		vecs[c] = v
	}
	if len(*batch) > 0 {
		*batch = vecs
	} else {
		*single = vecs[0]
	}
	return nil
}

// submitRecord builds the submit record of spec, complete but for the job
// id: the right-hand sides as float columns, the rest as JSON. Submit calls
// it before taking e.mu — everything here costs time and memory in
// proportion to the payload.
func submitRecord(spec JobSpec, enqueued time.Time) (store.Record, error) {
	rec := store.Record{Kind: store.KindSubmit, Time: enqueued}
	if rec.Floats = liftColumns(&spec.RHS, &spec.RHSBatch); rec.Floats != nil {
		rec.Kind = store.KindSubmitFloats
	}
	var err error
	if rec.Spec, err = json.Marshal(spec); err != nil {
		return rec, xerr.Newf(xerr.Internal, "engine: encoding job spec for the journal: %v", err)
	}
	return rec, nil
}

// decodeSpec reads a submit record back into the spec that was submitted.
func decodeSpec(r store.Record) (JobSpec, error) {
	var spec JobSpec
	if err := json.Unmarshal(r.Spec, &spec); err != nil {
		return spec, err
	}
	return spec, restoreColumns(r.Floats, &spec.RHS, &spec.RHSBatch)
}

// journalSubmit persists an accepted job, while it is NOT yet reachable by
// any worker. Unlike the other hooks this one is fallible: accepting a job
// the WAL cannot record would break the durability contract, so Submit
// fails the submission instead. rec is the job's submitRecord.
func (e *Engine) journalSubmit(id string, rec store.Record) error {
	rec.JobID = id
	if err := e.store.Append(rec); err != nil {
		e.metrics.storeErrorInc()
		return fmt.Errorf("engine: journaling submit: %w", err)
	}
	return nil
}

// journalState records a lifecycle transition. Called from transitionLocked
// with j.mu held; the store's mutex is a leaf lock, so no ordering cycle.
func (e *Engine) journalState(id string, s State, errMsg, errCode string) {
	e.journalAppend(store.Record{
		Kind: store.KindState, Time: time.Now(), JobID: id, State: string(s), Error: errMsg, ErrorCode: errCode,
	})
}

// journalResult records a finished job's solution, before the done state
// record: the statistics as JSON, the solution vectors as float columns (a
// batch's X is its XS[0] and is written once). A solution JSON cannot carry
// (NaN or Inf from a diverged solve, in the vectors or the statistics) is
// skipped — the job replays as unfinished and re-runs.
func (e *Engine) journalResult(id string, sol *Solution) {
	vecs := sol.XS
	if len(vecs) == 0 {
		vecs = [][]float64{sol.X}
	}
	for _, x := range vecs {
		if !allFinite(x) {
			e.metrics.storeErrorInc()
			return
		}
	}
	rec := store.Record{Kind: store.KindResult, Time: time.Now(), JobID: id}
	hdr := *sol
	if rec.Floats = liftColumns(&hdr.X, &hdr.XS); rec.Floats != nil {
		rec.Kind = store.KindResultFloats
	}
	var err error
	if rec.Result, err = json.Marshal(hdr); err != nil {
		e.metrics.storeErrorInc()
		return
	}
	e.journalAppend(rec)
}

func allFinite(v []float64) bool {
	for _, f := range v {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// decodeResult reads a result record back into the solution the live engine
// held, X of a batch aliasing XS[0] included.
func decodeResult(r store.Record) (*Solution, error) {
	var sol Solution
	if err := json.Unmarshal(r.Result, &sol); err != nil {
		return nil, err
	}
	if err := restoreColumns(r.Floats, &sol.X, &sol.XS); err != nil {
		return nil, err
	}
	if len(sol.XS) > 0 {
		sol.X = sol.XS[0]
	}
	return &sol, nil
}

// journalPutMatrix persists a newly registered matrix: the CSR payload
// into the content-addressed blob store, then the registration record.
// Fallible for the same reason as journalSubmit.
func (e *Engine) journalPutMatrix(rec MatrixRecord, a *sparse.CSR) error {
	if err := e.store.PutCSR(rec.Hash, a); err != nil {
		e.metrics.storeErrorInc()
		return fmt.Errorf("engine: persisting matrix blob: %w", err)
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return xerr.Newf(xerr.Internal, "engine: encoding matrix record for the journal: %v", err)
	}
	if err := e.store.Append(store.Record{
		Kind: store.KindPutMatrix, Time: rec.CreatedAt, MatrixID: rec.ID, Matrix: recJSON,
	}); err != nil {
		e.metrics.storeErrorInc()
		return fmt.Errorf("engine: journaling matrix registration: %w", err)
	}
	return nil
}

// journalDeleteMatrix records a matrix removal and drops its blob. The
// registry dedups by content hash, so exactly one live record references
// the blob and removing it cannot orphan another record.
func (e *Engine) journalDeleteMatrix(rec MatrixRecord) {
	e.journalAppend(store.Record{Kind: store.KindDeleteMatrix, Time: time.Now(), MatrixID: rec.ID})
	if err := e.store.DeleteCSR(rec.Hash); err != nil {
		e.metrics.storeErrorInc()
	}
}

// replayedJob accumulates one job's journal records.
type replayedJob struct {
	id       string
	spec     JobSpec
	hasSpec  bool
	state    State
	errMsg   string
	errCode  string // "" in journals written before the field existed
	result   *Solution
	enqueued time.Time
	started  time.Time
	finished time.Time
}

// replayState is the parsed journal, ready to apply.
type replayState struct {
	jobs     map[string]*replayedJob
	jobOrder []string
	mats     map[string]MatrixRecord
	matOrder []string
	matJobs  map[string]int // accepted submissions per matrix id, recomputed
	maxJob   int
	maxMat   int
}

// pending counts the jobs that will re-enter the queue, so New can size the
// queue to hold them all before the workers start.
func (rs *replayState) pending() int {
	n := 0
	for _, id := range rs.jobOrder {
		if rj, ok := rs.jobs[id]; ok && rj.hasSpec && !rj.state.Terminal() {
			n++
		}
	}
	return n
}

// idSeq extracts the numeric suffix of a "job-%06d" / "mat-%06d" id.
func idSeq(id, prefix string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, prefix))
	if err != nil {
		return 0
	}
	return n
}

// parseJournal folds the recovered records into per-entity final states.
// Sequence counters derive from every id ever journaled — including later
// deleted ones — so a restarted engine never reissues an id.
func (e *Engine) parseJournal() *replayState {
	rs := &replayState{
		jobs:    map[string]*replayedJob{},
		mats:    map[string]MatrixRecord{},
		matJobs: map[string]int{},
	}
	for _, r := range e.store.Records() {
		switch r.Kind {
		case store.KindSubmit, store.KindSubmitFloats:
			if n := idSeq(r.JobID, "job-"); n > rs.maxJob {
				rs.maxJob = n
			}
			rj := &replayedJob{id: r.JobID, state: StateQueued, enqueued: r.Time}
			if spec, err := decodeSpec(r); err != nil {
				e.metrics.storeErrorInc()
			} else {
				rj.spec, rj.hasSpec = spec, true
			}
			if _, seen := rs.jobs[r.JobID]; !seen {
				rs.jobOrder = append(rs.jobOrder, r.JobID)
			}
			rs.jobs[r.JobID] = rj
			if rj.hasSpec && rj.spec.MatrixID != "" {
				rs.matJobs[rj.spec.MatrixID]++
			}
		case store.KindState:
			rj, ok := rs.jobs[r.JobID]
			if !ok {
				continue
			}
			s := State(r.State)
			switch s {
			case StateRunning:
				rj.state, rj.started = s, r.Time
			case StateDone, StateFailed, StateCancelled:
				rj.state, rj.finished, rj.errMsg, rj.errCode = s, r.Time, r.Error, r.ErrorCode
			}
		case store.KindResult, store.KindResultFloats:
			rj, ok := rs.jobs[r.JobID]
			if !ok {
				continue
			}
			sol, err := decodeResult(r)
			if err != nil {
				e.metrics.storeErrorInc()
				continue
			}
			rj.result = sol
		case store.KindDelete:
			delete(rs.jobs, r.JobID)
		case store.KindPutMatrix:
			if n := idSeq(r.MatrixID, "mat-"); n > rs.maxMat {
				rs.maxMat = n
			}
			var rec MatrixRecord
			if err := json.Unmarshal(r.Matrix, &rec); err != nil {
				e.metrics.storeErrorInc()
				continue
			}
			if _, seen := rs.mats[r.MatrixID]; !seen {
				rs.matOrder = append(rs.matOrder, r.MatrixID)
			}
			rs.mats[r.MatrixID] = rec
		case store.KindDeleteMatrix:
			delete(rs.mats, r.MatrixID)
		}
	}
	return rs
}

// applyReplay rebuilds engine state from a parsed journal: the matrix
// registry warms from the blob store first (jobs resolve against it), then
// terminal jobs reload as records and non-terminal jobs re-enter the queue
// as queued — a job that was mid-run when the daemon died re-runs from
// scratch, which the deterministic solver makes bit-identical. Finally the
// normal retention sweep applies MaxJobs/JobTTL to what was reloaded,
// journaling the evictions like any live sweep.
func (e *Engine) applyReplay(rs *replayState) {
	for _, id := range rs.matOrder {
		rec, ok := rs.mats[id]
		if !ok {
			continue
		}
		// The journaled Jobs counter is stale by design (reference counts are
		// not journaled); recompute it from the submit records.
		rec.Jobs = rs.matJobs[id]
		a, err := e.store.GetCSR(rec.Hash)
		if err != nil {
			// Missing or corrupt blob: drop the registration rather than serve
			// a matrix we cannot verify. Jobs referencing it fail on replay
			// with a not-found error naming the id.
			e.metrics.storeErrorInc()
			continue
		}
		e.matrices.restore(rec, a)
	}
	e.matrices.setSeq(rs.maxMat)

	e.mu.Lock()
	if rs.maxJob > e.seq {
		e.seq = rs.maxJob
	}
	for _, id := range rs.jobOrder {
		rj, ok := rs.jobs[id]
		if !ok || !rj.hasSpec {
			continue
		}
		e.metrics.storeReplayedInc(rj.state)
		if rj.state.Terminal() {
			e.restoreTerminalLocked(rj)
		} else {
			e.requeueLocked(rj)
		}
	}
	// The records came back in submission order; eviction takes them in
	// the order they finished.
	e.finished.mu.Lock()
	slices.SortStableFunc(e.finished.jobs, func(a, b *job) int { return a.finished.Compare(b.finished) })
	e.finished.mu.Unlock()
	e.sweepJobsLocked(time.Now())
	e.mu.Unlock()
}

// restoreTerminalLocked reloads one terminal job as a finished record: the
// journaled outcome, a synthesized state-event log with the journaled
// timestamps, and the bulk payloads stripped exactly as finishPayloads
// leaves live terminal records. e.mu must be held.
func (e *Engine) restoreTerminalLocked(rj *replayedJob) {
	j := e.newJob(rj.id, rj.spec, rj.enqueued)
	j.dropPayloadsLocked()
	j.eng, j.state, j.errMsg, j.errCode, j.result = e, rj.state, rj.errMsg, rj.errCode, rj.result
	j.started, j.finished = rj.started, rj.finished
	evs := []Event{{JobID: rj.id, Time: rj.enqueued, Kind: EventState, State: StateQueued}}
	if !rj.started.IsZero() {
		evs = append(evs, Event{Seq: 1, JobID: rj.id, Time: rj.started, Kind: EventState, State: StateRunning})
	}
	evs = append(evs, Event{
		Seq: len(evs), JobID: rj.id, Time: rj.finished, Kind: EventState, State: rj.state,
		Error: rj.errMsg, ErrorCode: rj.errCode,
	})
	j.events = evs
	e.jobs[j.id] = j
	e.order = append(e.order, j)
	e.finished.mu.Lock()
	e.finished.jobs = append(e.finished.jobs, j)
	e.finished.mu.Unlock()
}

// requeueLocked re-enqueues one interrupted job as queued. The progress
// events of an interrupted run are gone (they lived in memory only); the
// replayed job starts a fresh event log at its original enqueue time. e.mu
// must be held, and the queue must have been sized to hold every replayed
// job (New guarantees this), so the send never blocks.
//
// The job passes the same admission as at Submit. A journal written before
// jobs carried the daemon defaults holds the job's own fields, which get
// the current defaults here, once; a merged Config keeps every field it
// holds.
func (e *Engine) requeueLocked(rj *replayedJob) {
	j, err := e.admit(rj.id, rj.spec, rj.enqueued)
	j.eng = e
	j.events = []Event{{JobID: j.id, Time: rj.enqueued, Kind: EventState, State: StateQueued}}
	e.jobs[j.id] = j
	e.order = append(e.order, j)
	if err != nil {
		// A job that can never run here — its Config no longer validates,
		// this fleet refuses it, or its registered matrix is gone — fails
		// terminally (journaled, so the next replay reloads the failure
		// instead of retrying). The payload budget was never charged for
		// it, so its payloads are dropped uncounted.
		j.transition(StateFailed, err)
		j.mu.Lock()
		j.dropPayloadsLocked()
		j.mu.Unlock()
		return
	}
	e.payloadBytes += j.payloadBytes
	e.queue <- j
}
