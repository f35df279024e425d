package engine

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distmat"
	"repro/internal/metrics"
	"repro/internal/xerr"
)

// ErrTraceDisabled reports a Trace call on an engine started without
// per-iteration trace capture (Options.TraceIters / esrd -trace-iters).
var ErrTraceDisabled = xerr.New(xerr.NotFound, "engine: per-iteration trace capture is disabled (enable with -trace-iters)")

// phaseBuckets are the histogram bounds of the per-phase solve timings.
// The phases live in the microsecond-to-millisecond range on the in-process
// transports, far below the classic request-latency defaults.
func phaseBuckets() []float64 { return metrics.ExpBuckets(1e-6, 4, 12) }

// engineMetrics owns the engine's metric registry: every series the daemon
// exports under /metrics, pre-resolved for the hot paths. The healthz
// payload is generated from the same registry (see cmd/esrd), so the two
// surfaces cannot drift.
//
// Naming follows the exposition conventions: esrd_* for daemon/job-lifecycle
// series, solver_* for solver-stack series; counters end in _total, timing
// histograms in _seconds.
type engineMetrics struct {
	reg *metrics.Registry

	jobsSubmitted *metrics.Counter
	jobsCompleted *metrics.CounterVec // state
	jobsUnclassed *metrics.Counter
	jobsRunning   *metrics.Gauge
	queueWait     *metrics.Histogram
	runSeconds    *metrics.Histogram

	transportRuns *metrics.CounterVec            // transport
	stat          map[string]*metrics.CounterVec // by family: transportSeries and strategySeries
	recoverySecs  *metrics.CounterVec            // strategy

	batchRHS    *metrics.Counter
	blockSolves *metrics.Counter
	blockRHS    *metrics.Counter

	iterations   *metrics.Counter
	iterPhase    *metrics.HistogramVec // phase
	episodeSecs  *metrics.HistogramVec // strategy
	matvecPhase  *metrics.HistogramVec // transport, phase
	spmvChildren sync.Map              // transport -> [4]*metrics.Histogram

	// The store series exist only when the engine runs with Options.Store;
	// the inc helpers below nil-guard so the hot paths need no store check.
	storeReplayed *metrics.CounterVec // state
	storeErrors   *metrics.Counter
	storeSync     *metrics.Histogram
}

// statSeries says which counter series carries one int64 field of a stats
// struct (cluster.TransportStats per transport, core.StrategyStats per
// strategy): the family is named after the field's json tag and labelled by
// the struct's key. The two TransportStats byte counters share one family and
// are told apart by a second, direction label.
type statSeries struct {
	field  int    // index in the stats struct
	name   string // family name without prefix and _total: the help-text key
	family string
	dir    string // direction label value; "" on single-label families
}

// statSeriesOf derives a stats struct's series table from its fields, so a
// new counter is one struct field plus one help string. Non-int64 fields
// (StrategyStats.RecoveryTime, a Duration with its own seconds series) are
// not counters and are skipped.
func statSeriesOf(stats any, prefix string) []statSeries {
	t := reflect.TypeOf(stats)
	var out []statSeries
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Type != reflect.TypeOf(int64(0)) {
			continue
		}
		s := statSeries{field: i, name: t.Field(i).Tag.Get("json")}
		if dir, ok := strings.CutPrefix(s.name, "bytes_"); ok {
			s.name, s.dir = "bytes", dir
		}
		s.family = prefix + s.name + "_total"
		out = append(out, s)
	}
	return out
}

var (
	transportSeries = statSeriesOf(cluster.TransportStats{}, "solver_transport_")
	strategySeries  = statSeriesOf(core.StrategyStats{}, "solver_")
)

// strategyStatHelp documents each strategy counter series.
var strategyStatHelp = map[string]string{
	"solves":            "Finished solves per recovery strategy.",
	"episodes":          "Recovery episodes (reconstructions, rollbacks or cold restarts) per strategy.",
	"restarts":          "Episode restarts forced by overlapping failures per strategy.",
	"redone_iterations": "Iterations redone after rollback-style recoveries per strategy.",
	"checkpoints":       "Complete coordinated checkpoints saved per strategy.",
	"checkpoint_floats": "Float64 elements saved to simulated reliable storage (steady-state protection volume) per strategy.",
	"redundancy_floats": "Extra ESR elements piggybacked on the SpMV halo traffic per strategy.",
	"recovery_floats":   "Recovery-episode traffic in float64 elements (reconstruction gathers plus rollback restores from reliable storage) per strategy.",
	"sdc_injected":      "Scheduled silent-data-corruption bit flips injected into solver state per strategy.",
	"sdc_detected":      "Silent corruptions detected (twin divergence or residual drift) per strategy.",
	"sdc_corrected":     "Silent corruptions repaired by twin forward recovery per strategy.",
}

// transportStatHelp documents each transport counter series.
var transportStatHelp = map[string]string{
	"delivered":  "Messages delivered per transport.",
	"copied":     "Messages delivered via a payload copy per transport.",
	"pool_gets":  "Buffer recycler gets per transport.",
	"pool_puts":  "Buffer recycler puts per transport.",
	"pool_news":  "Buffer recycler misses (fresh allocations) per transport.",
	"dropped":    "Failure-dropped messages per transport.",
	"bytes":      "Wire bytes moved by the net fabric, by transport and direction (sent/received).",
	"reconnects": "Re-established peer connections on the net fabric per transport.",
}

// registerStats registers the families of a series table under the given key
// label. A field without help text is a programming error caught at start-up.
func (em *engineMetrics) registerStats(series []statSeries, key string, help map[string]string) {
	for _, s := range series {
		if em.stat[s.family] != nil {
			continue // the second byte counter: same family, other direction
		}
		h, ok := help[s.name]
		if !ok {
			panic("engine: stats counter " + s.name + " has no help text")
		}
		labels := []string{key}
		if s.dir != "" {
			labels = append(labels, "direction")
		}
		em.stat[s.family] = em.reg.CounterVec(s.family, h, labels...)
	}
}

// observeStats adds one stats-struct delta to its series under key.
func (em *engineMetrics) observeStats(series []statSeries, key string, delta any) {
	v := reflect.ValueOf(delta)
	for _, s := range series {
		lvs := []string{key}
		if s.dir != "" {
			lvs = append(lvs, s.dir)
		}
		em.stat[s.family].With(lvs...).Add(float64(v.Field(s.field).Int()))
	}
}

// snapshotStats rebuilds the per-key stats structs from a gathered registry
// snapshot: the same counters /metrics exports, converted back to the JSON
// shape. Counter values are exact integers up to 2^53, far beyond any
// realistic count.
func snapshotStats[T any](s metrics.Snapshot, series []statSeries, key string) map[string]*T {
	out := map[string]*T{}
	for _, fam := range s {
		for _, st := range series {
			if st.family != fam.Name {
				continue
			}
			for _, sm := range fam.Samples {
				var k, dir string
				for _, l := range sm.Labels {
					switch l.Name {
					case key:
						k = l.Value
					case "direction":
						dir = l.Value
					}
				}
				if dir != st.dir {
					continue
				}
				if out[k] == nil {
					out[k] = new(T)
				}
				reflect.ValueOf(out[k]).Elem().Field(st.field).SetInt(int64(sm.Value))
			}
		}
	}
	return out
}

// newEngineMetrics builds the registry and registers every engine-owned
// series, including the pull gauges sampled off e's existing accessors at
// scrape time.
func newEngineMetrics(e *Engine) *engineMetrics {
	r := metrics.NewRegistry()
	em := &engineMetrics{
		reg:           r,
		jobsSubmitted: r.Counter("esrd_jobs_submitted_total", "Jobs accepted by Submit."),
		jobsCompleted: r.CounterVec("esrd_jobs_completed_total", "Jobs finished, by terminal state.", "state"),
		jobsUnclassed: r.Counter("esrd_jobs_unclassed_total",
			"Failed jobs whose error carried no class, recorded as internal: each one is a defect."),
		jobsRunning: r.Gauge("esrd_jobs_running", "Jobs currently executing on a worker."),
		queueWait: r.Histogram("esrd_job_queue_wait_seconds",
			"Time from submission to a worker picking the job up.", metrics.DefBuckets()),
		runSeconds: r.Histogram("esrd_job_run_seconds",
			"Time from a worker picking a job up to its terminal state.", metrics.DefBuckets()),
		transportRuns: r.CounterVec("solver_transport_runs_total",
			"Finished cluster runtimes (one per preparation and one per solve) per transport.", "transport"),
		stat: map[string]*metrics.CounterVec{},
		recoverySecs: r.CounterVec("solver_recovery_seconds_total",
			"Wall-clock seconds spent in recovery episodes per strategy.", "strategy"),
		batchRHS: r.Counter("solver_batch_rhs_total",
			"Right-hand-side columns submitted through batch jobs."),
		blockSolves: r.Counter("solver_block_solves_total",
			"Blocked multi-RHS lockstep solves: one per group, two per BlockSize chunk of a batch."),
		blockRHS: r.Counter("solver_block_rhs_total",
			"Right-hand-side columns solved through the blocked multi-RHS path."),
		iterations: r.Counter("solver_iterations_total",
			"Completed PCG iterations observed across all engine solves (rank 0)."),
		iterPhase: r.HistogramVec("solver_iteration_phase_seconds",
			"Per-iteration wall-clock split of the solve loop (rank 0): SpMV, preconditioner apply, allreduce.",
			phaseBuckets(), "phase"),
		episodeSecs: r.HistogramVec("solver_recovery_episode_seconds",
			"Wall-clock duration of individual fail-stop recovery episodes per strategy (twin corrections excluded).",
			metrics.DefBuckets(), "strategy"),
		matvecPhase: r.HistogramVec("solver_matvec_phase_seconds",
			"Per-call wall-clock split of the distributed SpMV (all ranks): post_send, interior, drain, boundary. Interior vs drain measures how much halo latency the overlap hides.",
			phaseBuckets(), "transport", "phase"),
	}
	em.registerStats(transportSeries, "transport", transportStatHelp)
	em.registerStats(strategySeries, "strategy", strategyStatHelp)
	r.GaugeFunc("esrd_jobs", "Job records currently retained.", func() float64 {
		return float64(e.Count())
	})
	r.GaugeFunc("esrd_matrices", "Registered system matrices.", func() float64 {
		return float64(e.MatrixCount())
	})
	r.GaugeFunc("esrd_prep_cache_size", "Cached prepared solver sessions.", func() float64 {
		return float64(e.CacheStats().Size)
	})
	r.CounterFunc("esrd_prep_cache_hits_total", "Prepared-session acquires served from cache.", func() float64 {
		return float64(e.CacheStats().Hits)
	})
	r.CounterFunc("esrd_prep_cache_misses_total", "Prepared-session acquires that built a session.", func() float64 {
		return float64(e.CacheStats().Misses)
	})
	r.GaugeFunc("esrd_block_size_default", "Daemon default batch block width (0 = library default).", func() float64 {
		return float64(e.defaults.BlockSize)
	})
	r.GaugeFunc("esrd_threads_maxprocs", "Process GOMAXPROCS.", func() float64 {
		return float64(e.ThreadStats().MaxProcs)
	})
	if e.store != nil {
		em.storeReplayed = r.CounterVec("esrd_store_replayed_jobs_total",
			"Jobs reinstated from the journal at startup, by journaled state.", "state")
		em.storeErrors = r.Counter("esrd_store_errors_total",
			"Failed store operations (journal appends, blob IO, undecodable replay records).")
		em.storeSync = r.Histogram("esrd_store_journal_sync_seconds",
			"Journal fsync latency.", metrics.ExpBuckets(1e-5, 4, 10))
		e.store.SetSyncObserver(func(d time.Duration) { em.storeSync.Observe(d.Seconds()) })
		r.CounterFunc("esrd_store_journal_records_total",
			"Records in the write-ahead journal (recovered at open plus appended since).", func() float64 {
				return float64(e.store.Stats().JournalRecords)
			})
		r.GaugeFunc("esrd_store_bytes",
			"Bytes on disk under the data dir (journal plus matrix blobs).", func() float64 {
				st := e.store.Stats()
				return float64(st.JournalBytes + st.BlobBytes)
			})
		r.GaugeFunc("esrd_store_blobs",
			"Matrix blobs in the content-addressed store.", func() float64 {
				return float64(e.store.Stats().Blobs)
			})
		r.GaugeFunc("esrd_store_journal_truncated_bytes",
			"Torn journal tail bytes discarded at the last open.", func() float64 {
				return float64(e.store.Stats().TruncatedBytes)
			})
	}
	return em
}

// storeReplayedInc counts one job reinstated from the journal, by its
// journaled state. No-op on an engine without a store.
func (em *engineMetrics) storeReplayedInc(s State) {
	if em.storeReplayed != nil {
		em.storeReplayed.With(string(s)).Inc()
	}
}

// storeErrorInc counts one failed store operation. No-op on an engine
// without a store.
func (em *engineMetrics) storeErrorInc() {
	if em.storeErrors != nil {
		em.storeErrors.Inc()
	}
}

// jobTransition mirrors a job lifecycle transition into the metrics. Called
// from transitionLocked with j.mu held — every update below is a plain
// atomic, so no lock ordering is at stake.
func (em *engineMetrics) jobTransition(j *job, s State) {
	switch s {
	case StateRunning:
		em.jobsRunning.Inc()
		em.queueWait.Observe(j.started.Sub(j.enqueued).Seconds())
	case StateDone, StateFailed, StateCancelled:
		em.jobsCompleted.With(string(s)).Inc()
		if !j.started.IsZero() {
			em.jobsRunning.Dec()
			em.runSeconds.Observe(j.finished.Sub(j.started).Seconds())
		}
	}
}

// observeTransport counts one finished runtime and its transport-counter
// delta on the per-transport series; healthz reads the same series back
// (Health). Like observeStrategy and matvecObserver it is a no-op on a nil
// receiver: the metrics of a library session, which no engine books.
func (em *engineMetrics) observeTransport(name string, delta cluster.TransportStats) {
	if em == nil {
		return
	}
	em.transportRuns.With(name).Inc()
	em.observeStats(transportSeries, name, delta)
}

// observeStrategy counts one solve's strategy-stats delta on the
// per-strategy series. There is no run counter beside it:
// StrategyStats.Solves counts solves.
func (em *engineMetrics) observeStrategy(name string, delta core.StrategyStats) {
	if em == nil {
		return
	}
	em.observeStats(strategySeries, name, delta)
	em.recoverySecs.With(name).Add(delta.RecoveryTime.Seconds())
}

// solveTracer returns the engine's always-on per-solve tracer: it feeds the
// iteration counter, the phase histograms and the recovery-episode
// histogram. Installed on rank 0 only, so each iteration is counted once.
func (em *engineMetrics) solveTracer(strategy string) core.Tracer {
	return &metricsTracer{
		iterations: em.iterations,
		spmv:       em.iterPhase.With("spmv"),
		precond:    em.iterPhase.With("precond"),
		allreduce:  em.iterPhase.With("allreduce"),
		episode:    em.episodeSecs.With(strategy),
	}
}

// metricsTracer is the core.Tracer feeding the engine's solve metrics; all
// children are pre-resolved, so each callback is a few atomic updates.
type metricsTracer struct {
	iterations *metrics.Counter
	spmv       *metrics.Histogram
	precond    *metrics.Histogram
	allreduce  *metrics.Histogram
	episode    *metrics.Histogram
}

func (t *metricsTracer) TraceIteration(it core.IterationTrace) {
	t.iterations.Inc()
	t.spmv.Observe(it.SpMV.Seconds())
	t.precond.Observe(it.Precond.Seconds())
	t.allreduce.Observe(it.Allreduce.Seconds())
}

// TraceRecovery times fail-stop episodes only, the ones
// solver_episodes_total counts; a twin's corrections are counted by
// solver_sdc_corrected_total.
func (t *metricsTracer) TraceRecovery(rec core.RecoveryTrace) {
	if !rec.Corruption {
		t.episode.Observe(rec.Duration.Seconds())
	}
}

// matvecObserver returns the distmat.MatVec phase sink for a solve on the
// named transport, nil on a nil receiver. It is installed on every rank's
// fork (the phase split is a per-rank quantity), so the histograms see Ranks
// observations per SpMV.
func (em *engineMetrics) matvecObserver(transport string) func(distmat.MatVecTimings) {
	if em == nil {
		return nil
	}
	if h, ok := em.spmvChildren.Load(transport); ok {
		return newMatvecSink(h.([4]*metrics.Histogram))
	}
	c := [4]*metrics.Histogram{
		em.matvecPhase.With(transport, "post_send"),
		em.matvecPhase.With(transport, "interior"),
		em.matvecPhase.With(transport, "drain"),
		em.matvecPhase.With(transport, "boundary"),
	}
	em.spmvChildren.Store(transport, c)
	return newMatvecSink(c)
}

func newMatvecSink(c [4]*metrics.Histogram) func(distmat.MatVecTimings) {
	return func(tm distmat.MatVecTimings) {
		c[0].Observe(tm.PostSend.Seconds())
		c[1].Observe(tm.Interior.Seconds())
		c[2].Observe(tm.Drain.Seconds())
		c[3].Observe(tm.Boundary.Seconds())
	}
}

// Metrics returns the engine's metric registry, for exposition (/metrics)
// and for consumers that derive JSON views off the same data (healthz).
// Callers may register additional series (e.g. HTTP request metrics) on it.
func (e *Engine) Metrics() *metrics.Registry { return e.metrics.reg }

// maxTraceRecoveries bounds the retained recovery episodes of one job's
// trace. Recovery episodes are rare by nature; the cap only guards against
// a pathological schedule.
const maxTraceRecoveries = 1024

// traceRing is a job's bounded per-iteration trace capture: a ring of the
// most recent IterationTraces plus the (bounded) recovery episodes. It is
// the core.Tracer installed on rank 0 of a job's solve when the engine runs
// with TraceIters > 0.
type traceRing struct {
	mu         sync.Mutex
	cap        int
	iters      []core.IterationTrace // ring storage, len <= cap
	next       int                   // ring write position
	total      int                   // iterations seen (>= len(iters))
	recoveries []core.RecoveryTrace
}

func newTraceRing(capacity int) *traceRing {
	return &traceRing{cap: capacity}
}

func (tr *traceRing) TraceIteration(it core.IterationTrace) {
	tr.mu.Lock()
	if len(tr.iters) < tr.cap {
		tr.iters = append(tr.iters, it)
	} else {
		tr.iters[tr.next] = it
	}
	tr.next = (tr.next + 1) % tr.cap
	tr.total++
	tr.mu.Unlock()
}

func (tr *traceRing) TraceRecovery(rec core.RecoveryTrace) {
	tr.mu.Lock()
	if len(tr.recoveries) < maxTraceRecoveries {
		tr.recoveries = append(tr.recoveries, rec)
	}
	tr.mu.Unlock()
}

// snapshot returns the captured iterations oldest-first plus the episode
// list and the total iteration count seen.
func (tr *traceRing) snapshot() (iters []core.IterationTrace, recs []core.RecoveryTrace, total int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	iters = make([]core.IterationTrace, 0, len(tr.iters))
	if len(tr.iters) == tr.cap {
		iters = append(iters, tr.iters[tr.next:]...)
		iters = append(iters, tr.iters[:tr.next]...)
	} else {
		iters = append(iters, tr.iters...)
	}
	recs = append([]core.RecoveryTrace(nil), tr.recoveries...)
	return iters, recs, tr.total
}

// JobTrace is the captured per-iteration trace of one job: the last
// Capacity iterations (a bounded ring — long solves keep the tail, which
// holds the convergence behaviour) and every recovery episode.
type JobTrace struct {
	JobID string `json:"job_id"`
	State State  `json:"state"`
	// Capacity is the ring size (the -trace-iters value); IterationsSeen
	// counts all iterations observed, of which the most recent
	// min(Capacity, IterationsSeen) are in Iterations, oldest first.
	Capacity       int                   `json:"capacity"`
	IterationsSeen int                   `json:"iterations_seen"`
	Iterations     []core.IterationTrace `json:"iterations"`
	Recoveries     []core.RecoveryTrace  `json:"recoveries"`
	// BatchRHS is the number of right-hand sides of a batch job
	// (len(JobSpec.RHSBatch)); 0 for single-RHS jobs.
	BatchRHS int `json:"batch_rhs,omitempty"`
}

// Trace returns the captured per-iteration trace of a job. It fails with
// ErrTraceDisabled when the engine runs without trace capture, and with
// ErrNotFound for unknown jobs. A job that has not started solving yet
// returns an empty trace.
func (e *Engine) Trace(id string) (JobTrace, error) {
	if e.traceIters <= 0 {
		return JobTrace{}, ErrTraceDisabled
	}
	j, err := e.lookup(id)
	if err != nil {
		return JobTrace{}, err
	}
	j.mu.Lock()
	ring := j.trace
	state := j.state
	batchK := j.batchK
	j.mu.Unlock()
	out := JobTrace{
		JobID: id, State: state, Capacity: e.traceIters, BatchRHS: batchK,
		Iterations: []core.IterationTrace{}, Recoveries: []core.RecoveryTrace{},
	}
	if ring != nil {
		iters, recs, total := ring.snapshot()
		out.Iterations, out.Recoveries, out.IterationsSeen = iters, recs, total
	}
	return out, nil
}

// HealthSnapshot is the healthz gauge block, generated off the metric
// registry (Engine.Health) so the JSON health surface and the Prometheus
// exposition can never drift: both read the same gathered snapshot.
type HealthSnapshot struct {
	// Jobs is the number of retained job records; Matrices the registered
	// system matrices.
	Jobs     int `json:"jobs"`
	Matrices int `json:"matrices"`
	// PrepCache reports the prepared-session cache.
	PrepCache PrepCacheStats `json:"prep_cache"`
	// Transports aggregates per-fabric delivery/recycler counters; entries
	// exist only for transports that ran at least once.
	Transports map[string]TransportUsage `json:"transports"`
	// Strategies aggregates per-strategy overhead/recovery counters.
	Strategies map[string]core.StrategyStats `json:"strategies"`
	// Threads reports the kernel threading posture.
	Threads ThreadStats `json:"threads"`
	// BlockSizeDefault is the daemon-level default batch block width (0 =
	// library default).
	BlockSizeDefault int `json:"block_size_default"`
	// Net mirrors the daemon's esrd_net_* gauges (multi-process listener
	// state: live peers, respawns, worker liveness), keyed by the series
	// name with the prefix stripped. Empty when the daemon runs without the
	// net coordinator.
	Net map[string]float64 `json:"net,omitempty"`
	// Store mirrors the esrd_store_* counters and gauges (journal records,
	// bytes on disk, replayed jobs by state), keyed by the series name with
	// the prefix stripped. Empty when the daemon runs without -data-dir.
	Store map[string]float64 `json:"store,omitempty"`
}

// Health derives the healthz gauges from one Gather of the metric registry —
// the exact data /metrics exports, converted back to the JSON shapes.
func (e *Engine) Health() HealthSnapshot {
	s := e.metrics.reg.Gather()
	jobs, _ := s.Value("esrd_jobs")
	matrices, _ := s.Value("esrd_matrices")
	size, _ := s.Value("esrd_prep_cache_size")
	hits, _ := s.Value("esrd_prep_cache_hits_total")
	misses, _ := s.Value("esrd_prep_cache_misses_total")
	maxp, _ := s.Value("esrd_threads_maxprocs")
	blockDef, _ := s.Value("esrd_block_size_default")
	return HealthSnapshot{
		Jobs:             int(jobs),
		Matrices:         int(matrices),
		PrepCache:        PrepCacheStats{Size: int(size), Hits: int64(hits), Misses: int64(misses)},
		Transports:       snapshotTransports(s),
		Strategies:       snapshotStrategies(s),
		Net:              snapshotPrefix(s, "esrd_net_"),
		Store:            snapshotPrefix(s, "esrd_store_"),
		Threads:          ThreadStats{MaxProcs: int(maxp)},
		BlockSizeDefault: int(blockDef),
	}
}

// snapshotTransports rebuilds the healthz "transports" block from a gathered
// registry snapshot.
func snapshotTransports(s metrics.Snapshot) map[string]TransportUsage {
	out := map[string]TransportUsage{}
	for name, st := range snapshotStats[cluster.TransportStats](s, transportSeries, "transport") {
		out[name] = TransportUsage{Stats: *st}
	}
	for name, runs := range s.ByLabel("solver_transport_runs_total", "transport") {
		u := out[name]
		u.Runs = int64(runs)
		out[name] = u
	}
	return out
}

// snapshotPrefix mirrors every prefix-named counter and gauge of a gathered
// registry snapshot into a healthz block (the daemon's esrd_net_* fleet
// series, the esrd_store_* journal series), keyed by the series name with
// the prefix stripped; labeled series flatten to key_labelvalue. Histograms
// are skipped: healthz reports scalars, and the full distribution lives on
// /metrics. Reading the same Gather keeps /metrics and /v1/healthz unable to
// drift. Nil when no series carries the prefix.
func snapshotPrefix(s metrics.Snapshot, prefix string) map[string]float64 {
	out := map[string]float64{}
	for _, fam := range s {
		if !strings.HasPrefix(fam.Name, prefix) || fam.Type == metrics.TypeHistogram {
			continue
		}
		key := strings.TrimPrefix(fam.Name, prefix)
		for _, sm := range fam.Samples {
			k := key
			for _, l := range sm.Labels {
				k += "_" + l.Value
			}
			out[k] = sm.Value
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// snapshotStrategies rebuilds the healthz "strategies" block from a gathered
// registry snapshot.
func snapshotStrategies(s metrics.Snapshot) map[string]core.StrategyStats {
	out := map[string]core.StrategyStats{}
	for name, st := range snapshotStats[core.StrategyStats](s, strategySeries, "strategy") {
		out[name] = *st
	}
	for name, secs := range s.ByLabel("solver_recovery_seconds_total", "strategy") {
		u := out[name]
		u.RecoveryTime = time.Duration(math.Round(secs * 1e9))
		out[name] = u
	}
	return out
}
