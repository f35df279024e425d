// Command esrd is the solve-service daemon: it runs the resilient-PCG job
// engine behind a small HTTP/JSON API.
//
// Usage:
//
//	esrd [-addr :8080] [-workers 4] [-queue 256] [-max-jobs 4096]
//	     [-job-ttl 0] [-prep-cache 8] [-prep-ttl 10m] [-max-matrices 64]
//	     [-transport chan|chaos|net] [-strategy esr|checkpoint|restart|twin]
//	     [-twin-interval 0] [-sdc-check-interval 0] [-block-size 0]
//	     [-peers 0] [-drain-timeout 30s] [-pprof addr]
//	     [-trace-iters 0] [-data-dir dir] [-fsync] [-log-format text|json]
//	esrd -worker    (internal: one rank of a multi-process solve)
//
// Durability: -data-dir DIR journals every accepted job and registered
// matrix to a write-ahead log (matrices additionally to content-addressed
// blob files) and replays it on startup — queued and running jobs re-run,
// terminal records and the matrix registry reload. Without the flag the
// daemon is fully in-memory, exactly as before. -fsync flushes the journal
// on every record (power-loss durability; kill -9 is survived either way).
// See the README's "Durability" section.
//
// Multi-process ranks: -peers N enables jobs with "transport": "net" — each
// such job runs its ranks as separate OS processes (re-executing this binary
// with -worker) joined over TCP, so a SIGKILLed worker is a real node
// failure that ESR recovers from. N caps the per-job fleet size. See the
// README's "Multi-process ranks" section.
//
// Shutdown: on SIGTERM/SIGINT the daemon stops accepting jobs and drains
// the in-flight ones for up to -drain-timeout; if the deadline fires the
// remaining jobs are cancelled and the process exits nonzero.
//
// Observability: GET /metrics serves the Prometheus text exposition of the
// daemon and solver series; -trace-iters N additionally captures the last N
// per-iteration phase traces of every job, served by
// GET /v1/jobs/{id}/trace. Logs are structured (log/slog) on stderr;
// -log-format json switches the access and lifecycle lines to JSON.
//
// Submit a job (a 64x64 Poisson system, phi=2, two ranks failing at
// iteration 10), then follow its progress:
//
//	curl -s localhost:8080/v1/jobs -d '{
//	  "matrix": {"generator": "poisson2d", "params": {"nx": 64}},
//	  "config": {"ranks": 8, "phi": 2,
//	             "schedule": [{"iteration": 10, "ranks": [2, 3]}]}
//	}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -sN localhost:8080/v1/jobs/job-000001/events
//	curl -s -X DELETE localhost:8080/v1/jobs/job-000001
//
// Serving many solves on one system? Register the matrix once and reference
// it by id — the daemon materializes it once and reuses the prepared solver
// session (partition + preconditioner factorization) across the jobs:
//
//	curl -s localhost:8080/v1/matrices -d '{"generator": "poisson2d", "params": {"nx": 64}}'
//	curl -s localhost:8080/v1/jobs -d '{"matrix_id": "mat-000001", "config": {"ranks": 8}}'
//
// See README.md for the full API walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // handlers on DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/netrun"
	"repro/internal/store"
	"repro/internal/xerr"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "solve worker pool size")
	queueCap := flag.Int("queue", 256, "job queue capacity")
	maxJobs := flag.Int("max-jobs", 4096, "retained job records (terminal records evicted LRU beyond this)")
	jobTTL := flag.Duration("job-ttl", 0, "evict terminal job records this long after they finish (0 keeps until -max-jobs)")
	prepCache := flag.Int("prep-cache", 8, "cached prepared solver sessions")
	prepTTL := flag.Duration("prep-ttl", 10*time.Minute, "evict idle prepared sessions after this long")
	maxMatrices := flag.Int("max-matrices", 64, "registered matrix capacity")
	// The daemon defaults: one Config field, one flag. They fill the fields
	// a job leaves zero (engine.Merge).
	var defaults engine.Config
	flag.StringVar(&defaults.Transport, "transport", engine.TransportChan,
		"default communication fabric for jobs that do not pick one (chan|chaos|net; fast is a synonym of chan)")
	flag.StringVar(&defaults.Strategy, "strategy", engine.StrategyESR,
		"default failure-recovery strategy for jobs that do not pick one (esr|checkpoint|restart|twin)")
	flag.IntVar(&defaults.TwinInterval, "twin-interval", 0,
		"default twin-strategy comparison period in iterations for jobs that do not pick one (0 = library default, 1)")
	flag.IntVar(&defaults.SDCCheckInterval, "sdc-check-interval", 0,
		"default true-residual SDC check period in iterations for jobs that do not pick one (0 disables the check)")
	flag.IntVar(&defaults.BlockSize, "block-size", 0,
		"default bound on the columns a batch job has in flight, as two concurrent lockstep groups, for jobs that do not pick one (0 = library default; 1 disables blocking)")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof on this separate listener (e.g. localhost:6060; empty disables)")
	traceIters := flag.Int("trace-iters", 0,
		"capture the last N per-iteration phase traces of every job, served by GET /v1/jobs/{id}/trace (0 disables)")
	dataDir := flag.String("data-dir", "",
		"persist jobs and matrices here (write-ahead journal + matrix blobs) and replay them on startup; empty keeps the daemon fully in-memory")
	fsync := flag.Bool("fsync", false,
		"fsync the journal on every record (survives power loss, not just process death); needs -data-dir")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	worker := flag.Bool("worker", false,
		"run as one rank worker of a multi-process solve (internal; spawned by the coordinator)")
	peers := flag.Int("peers", 0,
		"max worker processes per net-transport job; enables the multi-process coordinator (0 rejects net jobs)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"graceful-shutdown deadline for in-flight jobs; when it fires the rest are cancelled and the exit code is nonzero")
	flag.Parse()

	if *worker || netrun.IsWorker() {
		// Rank-worker mode: this process is one rank of a multi-process
		// solve, spawned and addressed by a coordinating daemon. No HTTP
		// surface, no engine — just the rank's share of the solve.
		if err := netrun.RunWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "esrd worker:", err)
			os.Exit(1)
		}
		return
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		slog.New(slog.NewTextHandler(os.Stderr, nil)).
			Error("bad -log-format", "format", *logFormat, "want", "text or json")
		os.Exit(2)
	}
	logger := slog.New(handler).With("component", "esrd")
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// The engine validates the daemon defaults with the wire format's own
	// rules, so the flags and a job's config accept exactly the same values.
	if err := defaults.Validate(); err != nil {
		fatal("bad daemon default flag", "err", err)
	}
	if *traceIters < 0 {
		fatal("bad -trace-iters", "trace_iters", *traceIters, "want", "non-negative")
	}
	if *fsync && *dataDir == "" {
		fatal("-fsync needs -data-dir (there is no journal to sync without one)")
	}

	// Durable store: opened before the engine so New can replay the
	// recovered journal, closed after Close has flushed the final records.
	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *dataDir, Fsync: *fsync})
		if err != nil {
			fatal("opening -data-dir store", "dir", *dataDir, "err", err)
		}
		stats := st.Stats()
		logger.Info("store opened", "dir", *dataDir, "fsync", *fsync,
			"journal_records", stats.JournalRecords, "journal_bytes", stats.JournalBytes,
			"truncated_bytes", stats.TruncatedBytes, "blobs", stats.Blobs)
	}

	if *pprofAddr != "" {
		// The profiler gets its own listener so the debug surface never
		// shares a port (or a mux) with the public API: the main mux stays
		// free of the pprof handlers, and operators can firewall the two
		// addresses independently. DefaultServeMux carries the handlers via
		// the net/http/pprof import's side effect. -pprof is an explicit
		// opt-in, so a bind failure is fatal — like the flag-validation
		// failures above — rather than a log line the operator discovers
		// mid-incident when /debug/pprof/ turns out unreachable.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			fatal("pprof listener failed", "err", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	// Multi-process coordinator: installed only with -peers > 0; jobs whose
	// resolved transport is "net" then run each rank as a separate OS
	// process (this binary, re-executed with -worker) joined over TCP.
	var (
		coord *netrun.Coordinator
		eng   *engine.Engine
	)
	var netRunner engine.NetRunner
	if *peers > 0 {
		exe, err := os.Executable()
		if err != nil {
			fatal("cannot resolve own executable for -peers worker spawning", "err", err)
		}
		coord, err = netrun.NewCoordinator(netrun.Options{
			Command: []string{exe, "-worker"},
			Log: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...), "component", "netrun")
			},
		})
		if err != nil {
			fatal("net coordinator", "err", err)
		}
		maxRanks := *peers
		netRunner = func(ctx context.Context, spec engine.JobSpec, progress func(core.ProgressEvent)) (engine.Solution, error) {
			if r := spec.Config.WithDefaults().Ranks; r > maxRanks {
				return engine.Solution{}, xerr.Newf(xerr.FailedPrecondition, "net job needs %d worker processes, -peers allows %d", r, maxRanks)
			}
			sol, stats, err := coord.Run(ctx, spec, progress)
			// Fold the fleet's aggregated wire counters into the daemon's
			// per-transport series; the workers' own registries die with
			// their processes.
			eng.AddTransportUsage(engine.TransportNet, stats)
			return sol, err
		}
	} else if defaults.Transport == engine.TransportNet {
		fatal("-transport net needs -peers > 0 (the multi-process coordinator)")
	}

	eng = engine.New(engine.Options{
		Workers: *workers, QueueCap: *queueCap,
		MaxJobs: *maxJobs, JobTTL: *jobTTL,
		PrepCacheSize: *prepCache, PrepCacheTTL: *prepTTL,
		MaxMatrices: *maxMatrices, Defaults: defaults,
		TraceIters: *traceIters, NetRunner: netRunner,
		Store: st,
	})
	if coord != nil {
		registerNetMetrics(eng.Metrics(), *peers, coord)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newMux(eng, logger),
		ReadHeaderTimeout: 10 * time.Second,
		// No WriteTimeout: it would cut a long /events stream. Request bodies
		// are bounded per handler (bodyReadTimeout).
		IdleTimeout: idleTimeout,
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	drainFailed := false
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		logger.Info("shutting down", "drain_timeout", *drainTimeout)
		// Graceful drain first: stop accepting jobs and let the in-flight
		// ones finish. Only when the deadline fires do we escalate to
		// Close, which cancels what is left — and the exit code records
		// that work was killed.
		drainCtx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := eng.Drain(drainCtx); err != nil {
			drainFailed = true
			logger.Error("drain deadline exceeded; cancelling remaining jobs", "err", err)
		}
		dcancel()
		// Close is idempotent after a clean drain; after a failed one it
		// cancels every remaining job, which also terminates the open NDJSON
		// event streams so the HTTP drain below can finish. Close also
		// flushes the journal; the store itself closes once nothing can
		// append to it anymore.
		eng.Close()
		if st != nil {
			if err := st.Close(); err != nil {
				logger.Error("closing store", "err", err)
			}
		}
		shutdownCtx, done := context.WithTimeout(context.Background(), 10*time.Second)
		defer done()
		_ = srv.Shutdown(shutdownCtx)
	}()

	logger.Info("listening", "addr", *addr, "workers", *workers, "queue", *queueCap,
		"peers", *peers, "trace_iters", *traceIters, "log_format", *logFormat)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("listener failed", "err", err)
	}
	// ListenAndServe returns as soon as Shutdown begins; wait for the drain
	// and engine teardown to actually finish before exiting.
	<-shutdownDone
	if drainFailed {
		os.Exit(1)
	}
}

// registerNetMetrics adds the esrd_net_* series: the multi-process
// listener/fleet state. The healthz "net" block mirrors them by prefix off
// the same registry.
func registerNetMetrics(m *metrics.Registry, peers int, fleet *netrun.Coordinator) {
	m.GaugeFunc("esrd_net_peers_max", "Max worker processes allowed per net-transport job (-peers).",
		func() float64 { return float64(peers) })
	m.GaugeFunc("esrd_net_workers_live", "Worker processes currently running across net-transport jobs.",
		func() float64 { return float64(fleet.LiveWorkers()) })
	m.CounterFunc("esrd_net_respawns_total", "Replacement worker processes spawned for scheduled failures.",
		func() float64 { return float64(fleet.Respawns()) })
	m.CounterFunc("esrd_net_job_retries_total", "Net jobs retried on a fresh fleet after an unscheduled worker loss.",
		func() float64 { return float64(fleet.JobRetries()) })
	m.CounterFunc("esrd_net_jobs_total", "Net-transport jobs accepted by the coordinator.",
		func() float64 { return float64(fleet.JobsRun()) })
}
