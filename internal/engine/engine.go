package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/store"
	"repro/internal/xerr"
)

// State is a job lifecycle state. Transitions are
// queued -> running -> done|failed|cancelled, with the extra shortcut
// queued -> cancelled for jobs cancelled before a worker picks them up.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// EventKind discriminates stream events.
type EventKind string

const (
	// EventState reports a lifecycle transition (Event.State).
	EventState EventKind = "state"
	// EventProgress reports one solver iteration (Iteration, Residual,
	// RelResidual).
	EventProgress EventKind = "progress"
	// EventReconstruction reports a completed recovery episode.
	EventReconstruction EventKind = "reconstruction"
)

// Event is one entry of a job's progress stream. Seq is the event's index
// in the job's log, so clients can resume a stream idempotently.
type Event struct {
	Seq   int       `json:"seq"`
	JobID string    `json:"job_id"`
	Time  time.Time `json:"time"`
	Kind  EventKind `json:"kind"`

	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// ErrorCode is the wire code of the error's class ("data_loss",
	// "invalid_argument", ...) on the terminal event of a failed job.
	ErrorCode string `json:"error_code,omitempty"`
	// The telemetry fields are NOT omitempty: iteration 0 (a reconstruction
	// at the first iteration) and an exactly-zero residual are meaningful
	// values a stream consumer must be able to distinguish from absence.
	Iteration      int                  `json:"iteration"`
	Residual       float64              `json:"residual"`
	RelResidual    float64              `json:"rel_residual"`
	Reconstruction *core.Reconstruction `json:"reconstruction,omitempty"`
}

// JobStatus is a point-in-time snapshot of a job.
type JobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Spec is the job as submitted, minus the bulk payloads: uploaded
	// MatrixMarket bytes and an explicit RHS (or RHS batch) are replaced by nil in
	// snapshots (and released from the store once the job is terminal) so
	// the in-memory result store and status responses stay small.
	Spec JobSpec `json:"spec"`
	// Error is set for failed jobs; ErrorCode is the wire code of its class
	// ("data_loss", "invalid_argument", "deadline_exceeded" for an expired
	// timeout_ms, ...), the same vocabulary the HTTP error envelope uses.
	Error     string `json:"error,omitempty"`
	ErrorCode string `json:"error_code,omitempty"`
	// Result is set once the job is done. X is retained only when the spec
	// asked for it (KeepSolution).
	Result *Solution `json:"result,omitempty"`
	// Events is the number of stream events logged so far.
	Events     int        `json:"events"`
	EnqueuedAt time.Time  `json:"enqueued_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// maxProgressEventsPerJob caps the retained progress events of one job's
// log: a near-maxGenRows job can run tens of millions of iterations, and
// the log is kept in memory for Watch replay. Once the cap is reached,
// further progress events are dropped (state and reconstruction events are
// always kept). A var so tests can lower it.
var maxProgressEventsPerJob = 100_000

// maxPendingPayloadBytes bounds the uploaded payload bytes (MatrixMarket +
// explicit RHS) held by jobs that have not finished yet, so a deep queue of
// maximum-size uploads cannot pin queueCap * bodyLimit memory. A var so
// tests can lower it.
var maxPendingPayloadBytes int64 = 256 << 20

// Errors returned by the engine's control surface. Each carries its
// xerr class, so API layers derive protocol codes from the class table
// instead of matching these sentinels one by one.
var (
	// ErrQueueFull reports that the FIFO queue is at capacity, or that the
	// pending jobs' uploaded payloads exceed the engine's memory budget.
	ErrQueueFull = xerr.New(xerr.ResourceExhausted, "engine: job queue is full")
	// ErrClosed reports a submission to a closed engine.
	ErrClosed = xerr.New(xerr.Unavailable, "engine: engine is closed")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = xerr.New(xerr.NotFound, "engine: no such job")
	// ErrTerminal reports a cancel of an already-terminal job.
	ErrTerminal = xerr.New(xerr.FailedPrecondition, "engine: job already in a terminal state")
)

// job is the engine-side record of one solve.
type job struct {
	id     string
	spec   JobSpec
	ctx    context.Context
	cancel context.CancelCauseFunc
	// mat is the pinned system matrix for jobs referencing the matrix store
	// (spec.MatrixID); nil for inline specs, which materialize on demand.
	mat *sparse.CSR
	// matHash is the canonical content hash of the system matrix, keying the
	// prepared-solver cache.
	matHash string
	// payloadBytes is this job's share of the engine's pending-payload
	// budget; zeroed (and returned to the budget) by Engine.finishPayloads.
	payloadBytes int64
	// batchK is the number of right-hand sides of a batch job
	// (len(spec.RHSBatch)); 0 for single-RHS jobs. Kept separately so the
	// job trace can report it after finishPayloads drops the spec payload.
	batchK int
	// em mirrors lifecycle transitions into the engine's metrics (set at
	// Submit, before the job is reachable by a worker).
	em *engineMetrics
	// eng, when non-nil, journals lifecycle transitions into the engine's
	// persistent store (set alongside em only when the engine runs with
	// Options.Store).
	eng *Engine
	// done is the engine's queue of terminal records, which the job joins
	// as it finishes.
	done *finishedJobs

	mu       sync.Mutex
	state    State
	events   []Event
	updated  chan struct{} // closed and replaced on every publish
	errMsg   string
	errCode  string
	result   *Solution
	enqueued time.Time
	started  time.Time
	finished time.Time
	// trace is the bounded per-iteration capture, installed by the worker
	// when the engine runs with TraceIters > 0.
	trace *traceRing
}

// newJob is the one constructor of a job record: queued, with its own
// cancellable context, and its bulk payloads counted (the enqueuer charges
// them to the engine's budget).
func (e *Engine) newJob(id string, spec JobSpec, enqueued time.Time) *job {
	ctx, cancel := context.WithCancelCause(context.Background())
	payload := int64(len(spec.Matrix.MatrixMarket)) + 8*int64(len(spec.RHS))
	for _, b := range spec.RHSBatch {
		payload += 8 * int64(len(b))
	}
	return &job{
		id: id, spec: spec, ctx: ctx, cancel: cancel, em: e.metrics, done: &e.finished,
		state: StateQueued, updated: make(chan struct{}), enqueued: enqueued,
		payloadBytes: payload, batchK: len(spec.RHSBatch),
	}
}

// withoutPayloads returns the spec with its bulk payloads — uploaded
// MatrixMarket bytes and explicit right-hand sides — dropped.
func (s JobSpec) withoutPayloads() JobSpec {
	s.Matrix.MatrixMarket, s.RHS, s.RHSBatch = nil, nil, nil
	return s
}

// dropPayloadsLocked drops the job's bulk payloads and pinned registry
// matrix, returning the payload bytes they held. j.mu must be held (or the
// job not yet reachable).
func (j *job) dropPayloadsLocked() (pb int64) {
	j.spec, j.mat = j.spec.withoutPayloads(), nil
	pb, j.payloadBytes = j.payloadBytes, 0
	return pb
}

// appendEventLocked stamps ev (sequence number, job id, time), appends it
// to the log, and wakes all streamers. j.mu must be held.
func (j *job) appendEventLocked(ev Event) {
	ev.Seq = len(j.events)
	ev.JobID = j.id
	ev.Time = time.Now()
	j.events = append(j.events, ev)
	close(j.updated)
	j.updated = make(chan struct{})
}

// publish appends an event to the log and wakes all streamers. Callers must
// not hold j.mu.
func (j *job) publish(ev Event) {
	j.mu.Lock()
	j.appendEventLocked(ev)
	j.mu.Unlock()
}

// transition moves the job to a new state and logs it; cause (nil except on
// some terminal transitions) is recorded as the job's error message and
// class code. The ok return is false when the job was already terminal
// (transition lost a race).
func (j *job) transition(s State, cause error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.transitionLocked(s, cause)
}

// transitionLocked is transition with j.mu already held.
func (j *job) transitionLocked(s State, cause error) bool {
	if j.state.Terminal() {
		return false
	}
	var errMsg, errCode string
	if cause != nil {
		errMsg, errCode = cause.Error(), xerr.Code(cause)
		if errCode == "" && s == StateFailed {
			// Every failure a job can meet is classed where it is raised; one
			// that arrives here without a class is a defect, recorded as one.
			errCode = xerr.Internal.Code()
			if j.em != nil {
				j.em.jobsUnclassed.Inc()
			}
		}
	}
	j.state = s
	switch s {
	case StateRunning:
		j.started = time.Now()
	case StateDone, StateFailed, StateCancelled:
		j.done.add(j)
		j.errMsg, j.errCode = errMsg, errCode
	}
	if j.em != nil {
		// Mirror the transition into the metrics while j.mu serializes it
		// against concurrent transitions (the updates are pure atomics).
		j.em.jobTransition(j, s)
	}
	if j.eng != nil {
		// Journal the transition while j.mu still serializes it, so the
		// journal sees transitions in the order the job took them. The
		// store's own mutex is a leaf lock.
		j.eng.journalState(j.id, s, errMsg, errCode)
	}
	j.appendEventLocked(Event{Kind: EventState, State: s, Error: errMsg, ErrorCode: errCode})
	return true
}

// eventStream is the job's event stream as a core.Tracer: a progress event
// per iteration, up to maxProgressEventsPerJob so a huge solve cannot grow
// the in-memory log without bound, and a reconstruction event per fail-stop
// episode, always kept. A twin's corrections (Corruption traces) reach the
// trace capture and the metrics, never the stream. Like every tracer it is
// called by one goroutine at a time (rank 0, or under a batch's lock).
type eventStream struct {
	j          *job
	iterations int
}

func (t *eventStream) TraceIteration(it core.IterationTrace) {
	if t.iterations >= maxProgressEventsPerJob {
		return
	}
	t.iterations++
	t.j.publish(Event{Kind: EventProgress, Iteration: it.Iteration, Residual: it.Residual, RelResidual: it.RelResidual})
}

func (t *eventStream) TraceRecovery(rt core.RecoveryTrace) {
	if rt.Corruption {
		return
	}
	t.j.publish(Event{
		Kind: EventReconstruction, Iteration: rt.Iteration, Residual: rt.Residual,
		RelResidual: rt.RelResidual, Reconstruction: rt.Reconstruction,
	})
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, State: j.state, Spec: j.spec.withoutPayloads(), Error: j.errMsg, ErrorCode: j.errCode,
		Result: j.result, Events: len(j.events), EnqueuedAt: j.enqueued,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// Options sizes an Engine.
type Options struct {
	// Workers is the size of the worker pool (default 2). Each worker runs
	// one job at a time; a job itself spawns Config.Ranks goroutine ranks.
	// A negative value starts NO workers: jobs are accepted and queue but
	// never run — a standby mode used by restart/replay tests to freeze an
	// engine's queue state.
	Workers int
	// QueueCap bounds the FIFO queue of jobs waiting for a worker
	// (default 64). Submissions beyond it fail with ErrQueueFull.
	QueueCap int
	// MaxJobs caps the retained job records (default 4096, <0 disables).
	// When the store exceeds it, the oldest-finished terminal records are
	// evicted; non-terminal jobs are never evicted.
	MaxJobs int
	// JobTTL, when > 0, evicts terminal job records this long after they
	// finish (default 0: records are kept until MaxJobs evicts them).
	JobTTL time.Duration
	// PrepCacheSize caps the prepared-solver cache (default 8, <0 disables
	// caching entirely: every job prepares and closes its own session).
	PrepCacheSize int
	// PrepCacheTTL evicts prepared sessions idle this long (default 10m,
	// <0 disables the TTL).
	PrepCacheTTL time.Duration
	// MaxMatrices caps the matrix store (default 64, <0 unbounded).
	MaxMatrices int
	// Defaults are the daemon-level settings (esrd -transport, -strategy,
	// -twin-interval, -sdc-check-interval, -block-size) beneath every job's
	// Config: Merge fills each field a job leaves zero from them. New panics
	// on a Config that Validate rejects: otherwise every job relying on one
	// would pass submit-time validation and then fail mid-run with an error
	// its client never caused.
	Defaults Config
	// TraceIters, when > 0, captures the last TraceIters per-iteration
	// traces of every job in a bounded ring (plus all recovery episodes),
	// served by Engine.Trace. 0 (the default) disables capture; the metric
	// series stay on regardless.
	TraceIters int
	// NetRunner, when non-nil, solves jobs whose resolved Transport is
	// "net" across external rank processes instead of in-process (the
	// esrd coordinator installs the netrun dispatcher here; a closure so
	// the engine does not import the process-spawning layer). Jobs on
	// every other transport — and net jobs when the hook is nil, which
	// fall back to the single-process self-loop fabric — are unaffected.
	NetRunner NetRunner
	// NetPeers, when > 0, caps the ranks of a job handed to NetRunner: its
	// fleet runs one worker process per rank (esrd -peers). A wider net job
	// is refused at Submit.
	NetPeers int
	// Store, when non-nil, makes the engine durable: accepted jobs and
	// registered matrices are journaled to it, and New replays its recovered
	// records before the workers start — non-terminal jobs re-enter the
	// queue, terminal records reload with their results, and the matrix
	// registry warms from the content-addressed blob store. A nil Store
	// keeps the engine fully in-memory, byte-for-byte today's behavior.
	Store *store.Store
}

// NetRunner solves one job by fanning its ranks out to external OS
// processes. The spec's Config arrives with the daemon defaults already
// resolved. The runner replays rank 0's traces into tr — the job's tracer
// chain: trace ring, metric tracer and event stream — exactly as an
// in-process solve would call it, and returns the fleet's aggregated
// transport counters beside the solution (also on failure), which the engine
// books on its "net" series.
type NetRunner func(ctx context.Context, spec JobSpec, tr core.Tracer) (Solution, cluster.TransportStats, error)

// Engine is a bounded worker pool draining a FIFO queue of solve jobs, with
// a bounded in-memory job-record store, a registry of uploaded system
// matrices, and an LRU cache of prepared solver sessions so repeated jobs on
// the same system skip the partitioning/factorization setup.
type Engine struct {
	queue chan *job
	wg    sync.WaitGroup

	maxJobs    int
	jobTTL     time.Duration
	prep       *prepCache
	matrices   *matrixStore
	defaults   Config
	traceIters int
	netRunner  NetRunner
	netPeers   int
	metrics    *engineMetrics
	store      *store.Store

	janitorQuit chan struct{}
	janitorDone chan struct{}

	// finished holds the terminal records in the order they finished.
	finished finishedJobs

	mu           sync.Mutex
	jobs         map[string]*job
	order        []*job // submission order, for List
	seq          int
	closed       bool
	draining     bool  // queue already closed by Drain; Close must not re-close
	payloadBytes int64 // uploaded payload bytes held by unfinished jobs
}

// janitorInterval paces the background TTL sweeps. A var so tests can lower
// it.
var janitorInterval = 30 * time.Second

// New starts an engine with the given pool size and queue capacity. With
// Options.Store set, the store's recovered journal is replayed before any
// worker starts: queued and running jobs resume (re-enqueued as queued, in
// original submission order) and terminal records reload with their
// results.
func New(opts Options) *Engine {
	if opts.Workers == 0 {
		opts.Workers = 2
	} else if opts.Workers < 0 {
		opts.Workers = 0 // standby: accept and queue, never run
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 64
	}
	if opts.MaxJobs == 0 {
		opts.MaxJobs = 4096
	}
	if opts.PrepCacheSize == 0 {
		opts.PrepCacheSize = 8
	}
	if opts.PrepCacheTTL == 0 {
		opts.PrepCacheTTL = 10 * time.Minute
	}
	if opts.MaxMatrices == 0 {
		opts.MaxMatrices = 64
	}
	if err := opts.Defaults.Validate(); err != nil {
		panic(fmt.Sprintf("engine: invalid Options.Defaults: %v", err))
	}
	if opts.TraceIters < 0 {
		opts.TraceIters = 0
	}
	e := &Engine{
		jobs:        map[string]*job{},
		maxJobs:     opts.MaxJobs,
		jobTTL:      opts.JobTTL,
		prep:        newPrepCache(opts.PrepCacheSize, opts.PrepCacheTTL),
		matrices:    newMatrixStore(opts.MaxMatrices),
		defaults:    opts.Defaults,
		traceIters:  opts.TraceIters,
		netRunner:   opts.NetRunner,
		netPeers:    opts.NetPeers,
		store:       opts.Store,
		janitorQuit: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	e.metrics = newEngineMetrics(e)
	// Replay the recovered journal before any worker starts: parse first to
	// learn how many interrupted jobs re-enter the queue, so the queue can
	// be sized to hold them all even when they exceed QueueCap (they were
	// all accepted once; replay must not drop them).
	var rs *replayState
	if e.store != nil {
		rs = e.parseJournal()
		if n := rs.pending(); n > opts.QueueCap {
			opts.QueueCap = n
		}
	}
	e.queue = make(chan *job, opts.QueueCap)
	if rs != nil {
		e.applyReplay(rs)
		e.store.ReleaseRecords()
	}
	e.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go e.worker()
	}
	go e.janitor()
	return e
}

// janitor periodically evicts expired job records and idle prepared
// sessions, so a long-lived daemon with no submissions still honours the
// TTLs.
func (e *Engine) janitor() {
	defer close(e.janitorDone)
	t := time.NewTicker(janitorInterval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			e.mu.Lock()
			e.sweepJobsLocked(now)
			e.mu.Unlock()
			e.prep.sweep(now)
		case <-e.janitorQuit:
			return
		}
	}
}

// finishedJobs is a queue of terminal job records in the order they
// finished: the order MaxJobs eviction and the JobTTL sweep take them in,
// from the front. A record stays queued after Delete forgets it, until the
// sweep pops it or compacts the queue. Its lock is a leaf: a job joins
// under its own mu, the sweep reads under e.mu.
type finishedJobs struct {
	mu   sync.Mutex
	jobs []*job
}

// add stamps j's finish time and queues it, both under q.mu, so the queue
// is in finish-time order. j.mu must be held.
func (q *finishedJobs) add(j *job) {
	q.mu.Lock()
	j.finished = time.Now()
	q.jobs = append(q.jobs, j)
	q.mu.Unlock()
}

// sweepJobsLocked enforces JobTTL and MaxJobs on the job-record store.
// Only terminal jobs are evicted, oldest-finished first; queued and running
// jobs are never touched. It pops the finished queue's front while that
// record has expired or the store is over MaxJobs, so a sweep with nothing
// to evict costs one look at the front. e.mu must be held.
func (e *Engine) sweepJobsLocked(now time.Time) {
	q := &e.finished
	q.mu.Lock()
	var evict []string
	for len(q.jobs) > 0 {
		j := q.jobs[0]
		if e.jobs[j.id] == j { // else Delete already forgot it
			over := e.maxJobs > 0 && len(e.jobs)-len(evict) > e.maxJobs
			expired := e.jobTTL > 0 && now.Sub(j.finished) > e.jobTTL
			if !over && !expired {
				break
			}
			evict = append(evict, j.id)
		}
		q.jobs[0] = nil
		q.jobs = q.jobs[1:]
	}
	if len(q.jobs) > 2*len(e.jobs)+64 {
		// Records Delete forgot outnumber the live ones: drop them, so the
		// queue stays within twice the store.
		q.jobs = slices.DeleteFunc(q.jobs, func(j *job) bool { return e.jobs[j.id] != j })
	}
	q.mu.Unlock()
	e.forgetLocked(evict...)
}

// Drain stops accepting new submissions and waits for the already-accepted
// jobs — queued and running — to finish naturally: unlike Close, nothing is
// cancelled. It returns nil once the workers have drained the queue, or the
// context error if the deadline expires first (the engine stays in the
// draining state; callers escalate to Close for a forced stop). Safe to
// call concurrently and more than once.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed && !e.draining {
		e.draining = true
		close(e.queue) // workers exit after finishing what is already queued
	}
	e.mu.Unlock()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the engine: no new submissions are accepted, every
// non-terminal job is cancelled, and Close blocks until the workers have
// drained. Idempotent, and safe after (or racing) Drain.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	jobs := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	// Cancel every context before the queue closes: a worker that dequeues
	// a job after this point must observe the cancellation up front, not
	// start an uncancellable matrix build during shutdown.
	for _, j := range jobs {
		j.cancel(context.Canceled)
	}
	if !e.draining {
		e.draining = true
		close(e.queue)
	}
	e.mu.Unlock()
	close(e.janitorQuit)
	e.wg.Wait()
	<-e.janitorDone
	for _, j := range jobs {
		// Jobs still queued when the queue closed never reach a worker;
		// finalize them here (transition is a no-op for terminal jobs).
		j.transition(StateCancelled, ErrClosed)
		e.finishPayloads(j)
	}
	// With the workers drained, no prepared session has in-flight solves;
	// tear the cache down.
	e.prep.closeAll()
	if e.store != nil {
		// Best-effort flush of the final shutdown records (no-op when the
		// daemon already closed the store, as in crash-simulation tests).
		e.store.Sync()
	}
}

// admit is the one gate a job passes to run, at Submit and at replay. It
// resolves the job's policy — the daemon defaults beneath its own fields —
// so the job keeps, journals and runs the merged Config, under the defaults
// that accepted it (a default strategy decides, for one, whether a phi-0
// failure schedule is servable). It then validates the spec, asks the fleet,
// and binds the matrix: a registered one pinned and checked against the
// right-hand sides, an inline one by its content hash. The record comes back
// even when err says the job may not run, so replay can fail it.
func (e *Engine) admit(id string, spec JobSpec, enqueued time.Time) (*job, error) {
	spec.Config = Merge(e.defaults, spec.Config)
	j := e.newJob(id, spec, enqueued)
	if err := spec.Validate(); err != nil {
		return j, err
	}
	if err := e.fleetRefusal(spec); err != nil {
		return j, err
	}
	if spec.MatrixID == "" {
		j.matHash = spec.Matrix.contentHash()
		return j, nil
	}
	a, rec, err := e.matrices.resolve(spec.MatrixID)
	if err != nil {
		return j, err
	}
	if len(spec.RHS) > 0 && len(spec.RHS) != rec.Rows {
		return j, xerr.Newf(xerr.InvalidArgument, "engine: rhs length %d != matrix %s rows %d", len(spec.RHS), rec.ID, rec.Rows)
	}
	if len(spec.RHSBatch) > 0 && len(spec.RHSBatch[0]) != rec.Rows {
		// validateBatch already enforced intra-batch consistency, so
		// checking column 0 against the registered matrix covers them all.
		return j, &InvalidRHSError{Index: 0, Elem: -1, Len: len(spec.RHSBatch[0]), Want: rec.Rows}
	}
	j.mat, j.matHash = a, rec.Hash
	return j, nil
}

// Submit validates and enqueues a job, returning its id. The queue is FIFO:
// workers pick jobs up in submission order.
func (e *Engine) Submit(spec JobSpec) (id string, err error) {
	j, err := e.admit("", spec, time.Now())
	defer func() {
		if err != nil {
			j.cancel(err) // never accepted
		}
	}()
	if err != nil {
		return "", err
	}
	var rec store.Record
	if e.store != nil {
		if rec, err = submitRecord(j.spec, j.enqueued); err != nil {
			return "", err
		}
	}

	e.mu.Lock()
	if e.closed || e.draining {
		e.mu.Unlock()
		return "", ErrClosed
	}
	if e.payloadBytes+j.payloadBytes > maxPendingPayloadBytes {
		e.mu.Unlock()
		return "", fmt.Errorf("%w: pending uploaded payloads exceed %d bytes", ErrQueueFull, maxPendingPayloadBytes)
	}
	e.seq++
	j.id = fmt.Sprintf("job-%06d", e.seq)
	if e.store != nil {
		// Journal the acceptance before the job is reachable anywhere: a
		// submit that cannot be made durable is refused, so every job the
		// caller ever saw an id for survives a restart. Writing under e.mu
		// also orders submit records before any of the job's state records;
		// the record was encoded before the lock, only its id was missing.
		j.eng = e
		if err := e.journalSubmit(j.id, rec); err != nil {
			e.mu.Unlock()
			return "", err
		}
	}
	// Log the queued event and account the payload budget before the job is
	// reachable by a worker: the event stream must open with queued (seq 0)
	// even if a worker logs running immediately, and a worker finishing fast
	// must not release budget that was never charged.
	j.publish(Event{Kind: EventState, State: StateQueued})
	e.payloadBytes += j.payloadBytes
	e.jobs[j.id] = j
	e.order = append(e.order, j)
	select {
	case e.queue <- j:
	default:
		// Undo the acceptance, the durable one too: without this, a restart
		// would resurrect a job whose submission the caller saw fail.
		e.payloadBytes -= j.payloadBytes
		e.forgetLocked(j.id)
		e.mu.Unlock()
		return "", ErrQueueFull
	}
	e.sweepJobsLocked(time.Now())
	e.mu.Unlock()
	if spec.MatrixID != "" {
		// Count the reference only once the job is actually accepted.
		e.matrices.noteJob(spec.MatrixID)
	}
	e.metrics.jobsSubmitted.Inc()
	return j.id, nil
}

// Delete removes the record of a terminal job (removed = true), or cancels
// a queued/running one (removed = false; the record goes terminal and can
// be deleted with a second call). This is the DELETE /v1/jobs/{id}
// semantics: cancel first, remove once there is nothing left to cancel.
func (e *Engine) Delete(id string) (removed bool, err error) {
	j, err := e.lookup(id)
	if err != nil {
		return false, err
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if !terminal {
		// Not terminal a moment ago: cancel. Cancel returns ErrTerminal if
		// the job won the race and finished in between; treat that as a
		// delete request on a terminal job.
		if err := e.Cancel(id); err == nil || !errors.Is(err, ErrTerminal) {
			return false, err
		}
	}
	e.mu.Lock()
	e.forgetLocked(id)
	e.mu.Unlock()
	return true, nil
}

// forgetLocked is the one way a job record leaves the engine: out of e.jobs
// and e.order, with a delete record in the journal so a replayed store
// forgets it too. Ids it does not hold are skipped. e.mu must be held.
func (e *Engine) forgetLocked(ids ...string) {
	var gone *job
	forgot := 0
	for _, id := range ids {
		j, ok := e.jobs[id]
		if !ok {
			continue
		}
		delete(e.jobs, id)
		gone, forgot = j, forgot+1
		if e.store != nil {
			e.journalAppend(store.Record{Kind: store.KindDelete, Time: time.Now(), JobID: id})
		}
	}
	switch {
	case forgot == 1:
		// One record, most often near the front: a pointer scan and one
		// move, not a map lookup per record.
		i := slices.Index(e.order, gone)
		e.order = slices.Delete(e.order, i, i+1)
	case forgot > 1:
		e.order = slices.DeleteFunc(e.order, func(j *job) bool { return e.jobs[j.id] != j })
	}
}

// PutMatrix registers a system matrix for reuse across jobs: the spec is
// validated and materialized once, and the returned record's ID can be
// referenced by any number of JobSpec.MatrixID submissions. Uploads with
// content identical to an existing record return that record (idempotent).
func (e *Engine) PutMatrix(spec MatrixSpec) (MatrixRecord, error) {
	if spec.Generator != "" && len(spec.MatrixMarket) > 0 {
		return MatrixRecord{}, xerr.New(xerr.InvalidArgument, "engine: matrix spec sets both generator and matrix_market")
	}
	if err := spec.checkBounds(); err != nil {
		return MatrixRecord{}, xerr.Ensure(xerr.InvalidArgument, err)
	}
	rec, a, created, err := e.matrices.put(spec)
	if err != nil {
		return MatrixRecord{}, err
	}
	if created && e.store != nil {
		// Persist only genuinely new registrations (dedup hits reuse an
		// already-journaled record). If the registration cannot be made
		// durable, roll it back so memory and disk agree.
		if err := e.journalPutMatrix(rec, a); err != nil {
			e.matrices.delete(rec.ID)
			return MatrixRecord{}, err
		}
	}
	return rec, nil
}

// GetMatrix returns the record of a registered matrix.
func (e *Engine) GetMatrix(id string) (MatrixRecord, error) { return e.matrices.get(id) }

// DeleteMatrix removes a registered matrix. Jobs already submitted against
// it finish normally; new submissions referencing the id fail.
func (e *Engine) DeleteMatrix(id string) error {
	rec, err := e.matrices.delete(id)
	if err != nil {
		return err
	}
	if e.store != nil {
		e.journalDeleteMatrix(rec)
	}
	return nil
}

// ListMatrices returns all registered matrices, oldest first.
func (e *Engine) ListMatrices() []MatrixRecord { return e.matrices.list() }

// MatrixCount returns the number of registered matrices (a cheap gauge for
// liveness endpoints; List materializes full records).
func (e *Engine) MatrixCount() int { return e.matrices.count() }

// CacheStats reports the prepared-solver cache's size and hit/miss counts.
func (e *Engine) CacheStats() PrepCacheStats { return e.prep.stats() }

// TransportUsage aggregates one communication fabric's activity across all
// the engine's runtimes (session preparations and solves).
type TransportUsage struct {
	// Runs counts finished runtimes on this transport (one per session
	// preparation and one per solve).
	Runs int64 `json:"runs"`
	// Stats accumulates the fabric's delivery/recycler counters.
	Stats cluster.TransportStats `json:"stats"`
}

// TransportStats returns the per-transport usage counters (the healthz
// "transports" block). Transports that never ran are absent.
func (e *Engine) TransportStats() map[string]TransportUsage { return e.Health().Transports }

// StrategyStats returns the per-strategy usage counters (the healthz
// "strategies" block). Strategies that never ran are absent.
func (e *Engine) StrategyStats() map[string]core.StrategyStats { return e.Health().Strategies }

// ThreadStats reports the engine's kernel-threading posture (the healthz
// "threads" block).
type ThreadStats struct {
	// MaxProcs is the process's GOMAXPROCS.
	MaxProcs int `json:"maxprocs"`
}

// ThreadStats snapshots the threading gauges.
func (e *Engine) ThreadStats() ThreadStats {
	return ThreadStats{MaxProcs: runtime.GOMAXPROCS(0)}
}

// Get returns a snapshot of the job.
func (e *Engine) Get(id string) (JobStatus, error) {
	j, err := e.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.status(), nil
}

// List returns a snapshot of every job, in submission order.
func (e *Engine) List() []JobStatus {
	e.mu.Lock()
	jobs := append([]*job(nil), e.order...)
	e.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Count returns the number of jobs the engine has accepted.
func (e *Engine) Count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.jobs)
}

// Cancel requests cancellation. Queued jobs go terminal immediately; running
// jobs are aborted through their context (the cluster runtime wakes blocked
// ranks) and go terminal when the worker observes the abort.
func (e *Engine) Cancel(id string) error {
	j, err := e.lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return ErrTerminal
	}
	wasQueued := j.state == StateQueued
	if wasQueued {
		// Atomically with the state check, so a worker dequeuing the job
		// concurrently either sees the terminal state and skips, or has
		// already moved it to running and we fall through to the context
		// cancellation below. The worker that eventually dequeues a
		// cancelled-while-queued job skips it.
		j.transitionLocked(StateCancelled, nil)
	}
	j.mu.Unlock()
	j.cancel(context.Canceled)
	if wasQueued {
		// No worker will materialize this job; return its uploaded payload
		// bytes to the budget now rather than when it is eventually
		// dequeued and skipped.
		e.finishPayloads(j)
	}
	return nil
}

// Watch streams the job's events starting at sequence number from (0 replays
// the full log). The channel is closed once the job is terminal and all
// logged events have been delivered. The returned stop function releases the
// stream's goroutine; it is safe to call multiple times.
func (e *Engine) Watch(id string, from int) (<-chan Event, func(), error) {
	j, err := e.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	ch := make(chan Event, 16)
	stop := make(chan struct{})
	var stopOnce sync.Once
	stopFn := func() { stopOnce.Do(func() { close(stop) }) }
	go func() {
		defer close(ch)
		idx := from
		if idx < 0 {
			idx = 0
		}
		// Replay in bounded chunks: copying a huge log in one piece would
		// hold j.mu long enough to stall the solver's synchronous progress
		// publishes.
		const chunk = 1024
		for {
			j.mu.Lock()
			if idx > len(j.events) {
				// Resuming past the end of the log: wait for future events.
				idx = len(j.events)
			}
			end := len(j.events)
			if end-idx > chunk {
				end = idx + chunk
			}
			pending := make([]Event, end-idx)
			copy(pending, j.events[idx:end])
			caughtUp := end == len(j.events)
			terminal := j.state.Terminal()
			updated := j.updated
			j.mu.Unlock()
			idx = end
			for _, ev := range pending {
				select {
				case ch <- ev:
				case <-stop:
					return
				}
			}
			if !caughtUp {
				continue
			}
			if terminal {
				return
			}
			select {
			case <-updated:
			case <-stop:
				return
			}
		}
	}()
	return ch, stopFn, nil
}

func (e *Engine) lookup(id string) (*job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// worker drains the FIFO queue until the engine closes.
func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.run(j)
	}
}

// finishPayloads drops the job's bulk request payloads once they can no
// longer be needed — so the retained job record stays small — and returns
// their bytes to the engine's pending-payload budget. The pinned registry
// CSR is released too: without this, a terminal record would keep a
// (possibly deleted) registered matrix reachable for the record's whole
// retention. Idempotent.
func (e *Engine) finishPayloads(j *job) {
	j.mu.Lock()
	pb := j.dropPayloadsLocked()
	j.mu.Unlock()
	if pb > 0 {
		e.mu.Lock()
		e.payloadBytes -= pb
		e.mu.Unlock()
	}
}

// prepareJob builds a job's prepared session; tests substitute it to hold a
// build open.
var prepareJob = prepare

// errDeadline is the recorded cause of a job whose TimeoutMillis expired.
var errDeadline = xerr.New(xerr.DeadlineExceeded, "deadline exceeded")

// run executes one job end to end: materialize, solve, finalize.
func (e *Engine) run(j *job) {
	defer e.finishPayloads(j)
	defer func() {
		// A panicking generator or solver (e.g. degenerate parameters that
		// slipped past validation) must fail the job, not kill the daemon: a
		// defect, classed internal. Keep the stack: it is the only diagnostic
		// left of the crash site.
		if r := recover(); r != nil {
			j.transition(StateFailed, xerr.Newf(xerr.Internal, "panic: %v\n%s", r, debug.Stack()))
		}
	}()
	if j.ctx.Err() != nil {
		// Cancelled while queued; Cancel (or Close) already finalized it.
		j.transition(StateCancelled, nil)
		return
	}
	if !j.transition(StateRunning, nil) {
		return
	}

	ctx := j.ctx
	cancelTimeout := context.CancelFunc(func() {})
	if j.spec.TimeoutMillis > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, time.Duration(j.spec.TimeoutMillis)*time.Millisecond)
	}
	defer cancelTimeout()

	cfg := j.spec.Config.WithDefaults()
	// Chain the observers onto the solve, wherever it runs: any
	// caller-supplied tracer (from an in-process Config), the job's bounded
	// trace capture (when the engine runs with TraceIters > 0), the always-on
	// metric tracer and the job's event stream. All are rank-0-only
	// observers; tracing never changes results.
	tracers := []core.Tracer{cfg.Tracer}
	if e.traceIters > 0 {
		ring := newTraceRing(e.traceIters)
		j.mu.Lock()
		j.trace = ring
		j.mu.Unlock()
		tracers = append(tracers, ring)
	}
	tracers = append(tracers, e.metrics.solveTracer(cfg.Strategy), &eventStream{j: j})
	cfg.Tracer = core.MultiTracer(tracers...)

	if cfg.Transport == TransportNet && e.netRunner != nil {
		// A coordinator daemon fans net-transport jobs out to external rank
		// processes; each worker process prepares its own session, so the
		// coordinator's prep cache does not apply. admit refused what the
		// fleet cannot run.
		e.runNet(ctx, j, cfg)
		return
	}
	// Acquire the prepared session for (matrix content, prep identity) from
	// the cache: repeated jobs on the same system skip partitioning, the
	// distributed symbolic phase, and preconditioner factorization. On a
	// miss the build materializes the matrix (pinned store CSR or inline
	// spec) and prepares it — under this job's context, so cancelling the
	// job aborts its setup too; on a hit the matrix is not even rebuilt.
	//
	// The session is built policy-free — the prep-scoped fields only, plus
	// the builder's fabric for the build's own symbolic exchange — because it
	// is shared by jobs with different run policies and must not bake the
	// builder's in as their fallback (a method, an armed detector, a
	// schedule). Each job passes its whole Config as the solve's policy.
	prepCfg := cfg.prepOnly()
	prepCfg.Transport = cfg.Transport
	build := func() (*Prepared, error) {
		a := j.mat
		if a == nil {
			var err error
			if a, err = j.spec.Matrix.Build(); err != nil {
				return nil, err
			}
		}
		if err := CheckCholBlock(a.Rows, prepCfg); err != nil {
			return nil, err
		}
		return prepareJob(ctx, a, prepCfg, e.metrics)
	}
	var (
		prep    *Prepared
		release func()
		err     error
	)
	for {
		prep, release, err = e.prep.acquire(ctx, prepKey(j.matHash, cfg), build)
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// A concurrent job sharing this prep key was cancelled (or timed
			// out) while it was the builder, poisoning the shared build with
			// its termination. This job is still live: rebuild (the cache
			// does not keep failed builds, so the retry becomes the builder).
			continue
		}
		break
	}
	if err != nil {
		e.finishJob(j, Solution{}, err)
		return
	}
	defer release()

	// The session checks every right-hand side against the system it
	// prepared (length, finiteness), with the classed errors a job keeps.
	var sol Solution
	if batch := j.spec.RHSBatch; len(batch) > 0 {
		sol, err = e.solveBatch(ctx, cfg, prep, batch)
	} else {
		sol, err = prep.Solve(ctx, j.spec.rhs(prep.N()), cfg)
	}
	e.finishJob(j, sol, err)
}

// solveBatch runs one batch job's right-hand sides against the acquired
// prepared session with up to BlockSize columns in flight, as two concurrent
// lockstep groups per chunk (Prepared.SolveChunked), each one block solve.
// Any per-column breakdown fails the whole job, naming the offending columns.
func (e *Engine) solveBatch(ctx context.Context, cfg Config, prep *Prepared, batch [][]float64) (Solution, error) {
	k := len(batch)
	e.metrics.batchRHS.Add(float64(k))
	sols, err := prep.SolveChunked(ctx, batch, cfg, func(width int) {
		e.metrics.blockSolves.Add(1)
		e.metrics.blockRHS.Add(float64(width))
	})
	if err != nil {
		return Solution{}, err
	}
	xs := make([][]float64, k)
	results := make([]core.Result, k)
	for c, s := range sols {
		xs[c], results[c] = s.X, s.Result
	}
	return Solution{X: xs[0], Result: results[0], XS: xs, Results: results}, nil
}

// fleetRefusal refuses what a coordinator daemon's fleet of rank processes
// cannot run — a valid job in the wrong place, so each refusal is classed
// failed_precondition: at Submit, before the job is queued or journalled,
// and at replay, for a job a daemon without this fleet accepted.
// spec.Config holds the daemon defaults already. Only a net-transport job
// on an engine with a NetRunner goes to a fleet; every other job is served
// in process and refused nothing here.
func (e *Engine) fleetRefusal(spec JobSpec) error {
	cfg := spec.Config.WithDefaults()
	if e.netRunner == nil || cfg.Transport != TransportNet {
		return nil
	}
	refuse := func(format string, args ...any) error {
		return xerr.Newf(xerr.FailedPrecondition, "engine: multi-process net jobs "+format, args...)
	}
	if e.netPeers > 0 && cfg.Ranks > e.netPeers {
		return refuse("run one worker process per rank: %d ranks, the fleet allows %d", cfg.Ranks, e.netPeers)
	}
	if spec.MatrixID != "" {
		return refuse("cannot name a registered matrix_id; inline the matrix spec")
	}
	if len(spec.RHSBatch) > 0 {
		// The dispatcher protocol carries one RHS per job.
		return refuse("carry one rhs; submit one job per column of the batch")
	}
	if cfg.Strategy != StrategyESR {
		return refuse("support only the %q strategy, got %q", StrategyESR, cfg.Strategy)
	}
	if cfg.Schedule.Empty() {
		return nil
	}
	for _, ev := range cfg.Schedule.Events() {
		if ev.Phase != 0 {
			return refuse("support only phase-0 (main poll point) schedule events")
		}
		if slices.Contains(ev.Ranks, 0) {
			return refuse("cannot schedule rank 0 (the result rank) as a victim")
		}
	}
	return nil
}

// runNet hands one net-transport job to the installed NetRunner dispatcher,
// with the job's tracer chain, and finalizes it exactly like an in-process
// solve. The spec is passed with the daemon defaults resolved into its
// Config. The fleet's transport counters and rank 0's result are booked as an
// in-process solve books them; its redundancy and recovery floats are not:
// the workers do not ship their category counters.
func (e *Engine) runNet(ctx context.Context, j *job, cfg Config) {
	spec := j.spec
	spec.Config = cfg
	sol, stats, err := e.netRunner(ctx, spec, cfg.Tracer)
	e.metrics.observeTransport(TransportNet, stats)
	if err == nil {
		e.metrics.observeStrategy(cfg.Strategy, blockStats([]core.Result{sol.Result}, []error{nil}))
	}
	e.finishJob(j, sol, err)
}

// finishJob records a job's outcome on its record — every terminal
// transition of a running job passes through here — mapping context
// terminations to the cancelled/failed states and keeping a failure's class
// on the record.
func (e *Engine) finishJob(j *job, sol Solution, err error) {
	switch {
	case err == nil:
		if !j.spec.KeepSolution {
			sol.X = nil
			sol.XS = nil
		}
		j.mu.Lock()
		j.result = &sol
		j.mu.Unlock()
		if j.eng != nil {
			// The result record goes to the journal before the done state
			// record: a crash between the two replays the job as interrupted
			// and re-runs it, never as done-without-result.
			j.eng.journalResult(j.id, &sol)
		}
		j.transition(StateDone, nil)
	case errors.Is(err, context.Canceled):
		j.transition(StateCancelled, nil)
	case errors.Is(err, context.DeadlineExceeded):
		j.transition(StateFailed, errDeadline)
	default:
		j.transition(StateFailed, err)
	}
}
