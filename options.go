package esr

import "repro/internal/engine"

// Preconditioner is a typed node-local block preconditioner selector for
// WithPreconditioner. Its values are the wire names accepted by
// Config.Preconditioner.
type Preconditioner string

// The available preconditioners.
const (
	// Identity disables preconditioning (plain CG).
	Identity Preconditioner = engine.PrecondIdentity
	// Jacobi preconditions with diag(A).
	Jacobi Preconditioner = engine.PrecondJacobi
	// BlockJacobiILU preconditions with an ILU(0) factorization of the
	// rank-local diagonal block (the default).
	BlockJacobiILU Preconditioner = engine.PrecondBlockJacobiILU
	// BlockJacobiChol solves the rank-local diagonal block exactly via dense
	// Cholesky — the paper's configuration; expensive to set up, which is
	// exactly what a Solver session amortizes.
	BlockJacobiChol Preconditioner = engine.PrecondBlockJacobiChol
	// SSOR preconditions with symmetric successive overrelaxation of the
	// local block (relaxation factor via WithSSOROmega).
	SSOR Preconditioner = engine.PrecondSSOR
	// IC0 preconditions with an incomplete Cholesky factorization M = L L^T
	// of the local block; the only split-capable choice, required by SPCG.
	IC0 Preconditioner = engine.PrecondIC0
)

// Transport is a typed communication-fabric selector for WithTransport.
// Its values are the wire names accepted by Config.Transport.
type Transport string

// The available communication fabrics.
const (
	// ChanTransport (the default) is the in-process fabric: mailbox
	// hand-off between rank goroutines, with payload buffers served from a
	// pooled recycler so the steady-state halo-exchange/collective loop
	// does not allocate.
	ChanTransport Transport = engine.TransportChan
	// ChaosTransport delivers every message asynchronously after a
	// deterministic seeded delay, reordering messages across distinct
	// (source, tag) pairs, for stressing the resilience protocol's ordering
	// assumptions.
	ChaosTransport Transport = engine.TransportChaos
	// NetTransport runs every rank-to-rank message over real TCP sockets
	// with length-prefixed frames — delivery semantics and results are
	// bit-identical to ChanTransport. In-process solves run it in
	// self-loop mode (every rank in this process, one socket pair); under
	// the esrd daemon's -peers coordinator each rank is a separate OS
	// process, and a killed process is a real node failure that ESR
	// recovers from.
	NetTransport Transport = engine.TransportNet
)

// Strategy is a typed failure-recovery selector for WithStrategy. Its
// values are the wire names accepted by Config.Strategy.
type Strategy string

// The available recovery strategies.
const (
	// ESRStrategy (the default) is the paper's exact state reconstruction:
	// no explicit steady-state work — phi redundant copies of the search
	// direction ride the SpMV — and an in-place Alg. 2 reconstruction on
	// failure. Needs a session with phi >= 1 to honour a failure schedule.
	ESRStrategy Strategy = engine.StrategyESR
	// CheckpointStrategy is the checkpoint/restart baseline the paper
	// compares against: a coordinated save of the full solver state to
	// reliable storage every WithCheckpointInterval iterations, and a
	// rollback-and-redo of the lost iterations on failure. Works at phi 0.
	CheckpointStrategy Strategy = engine.StrategyCheckpoint
	// RestartStrategy is the null strategy: no protection work at all; on
	// failure the solve restarts from the initial guess. The lower bound
	// every protection scheme must beat. Works at phi 0.
	RestartStrategy Strategy = engine.StrategyRestart
	// TwinStrategy is the TwinCG-style twin-replica scheme: a node-local
	// shadow copy of the solver state, compared by checksum every
	// WithTwinInterval iterations. On divergence a scalar-residual vote
	// identifies the corrupted copy and the healthy one is carried forward —
	// the only strategy that *corrects* silent data corruption (bit flips
	// injected with BitFlip events or by the chaos wire) instead of merely
	// detecting it. Fail-stop failures delegate to ESR reconstruction, so a
	// fail-stop schedule still needs phi >= 1; corruption-only schedules run
	// at phi 0.
	TwinStrategy Strategy = engine.StrategyTwin
)

// Method is a typed solver selector for WithMethod. Its values are the wire
// names accepted by Config.Method.
type Method string

// The available solver methods.
const (
	// AutoMethod (the default) accepts what ESRPCG accepts; both run the
	// same solver.
	AutoMethod Method = engine.MethodAuto
	// PCG is the reference parallel PCG (paper Alg. 1): the same solver as
	// ESRPCG, accepted only without a failure schedule, a strategy other
	// than ESR or the SDC check.
	PCG Method = engine.MethodPCG
	// ESRPCG is the paper's resilient PCG with exact state reconstruction
	// after up to phi node failures.
	ESRPCG Method = engine.MethodESRPCG
	// SPCG is the split-preconditioner variant ([23, Alg. 5]); it requires
	// the IC0 preconditioner and runs under every strategy, schedule and
	// width like ESRPCG does.
	SPCG Method = engine.MethodSPCG
)

// InvalidConfigError reports a configuration value rejected by validation:
// Field is the Config field's JSON name ("block_size", "ssor_omega",
// "strategy", ...), Value the rejected value, Reason what is accepted
// instead. Every option and Config rejection is one; match it with
// errors.As and branch on Field, or on the class with
// errors.Is(err, ErrInvalidArgument).
type InvalidConfigError = engine.InvalidConfigError

// InvalidRHSError reports a malformed right-hand side in a batch: a column
// with the wrong length or a non-finite element, naming its index.
type InvalidRHSError = engine.InvalidRHSError

// DefaultBlockSize is the block width SolveBatch uses when none is
// configured; MaxBlockSize bounds WithBlockSize.
const (
	DefaultBlockSize = engine.DefaultBlockSize
	MaxBlockSize     = engine.MaxBlockSize
)

// Option is a typed functional configuration knob for NewSolver and, for
// everything but the four preparation-scoped ones (WithRanks, WithPhi,
// WithPreconditioner, WithSSOROmega), for Solver.Solve and SolveBatch too:
// a per-call option overrides the session's setting for that call. Options
// lower onto the same Config that the JSON wire format uses: a Config
// decoded off the wire and applied with FromConfig behaves identically to
// the equivalent Option list. Values Config treats as "use the default" (0)
// are set as given; everything else is validated when the session is built
// or the solve starts, with an *InvalidConfigError.
type Option func(*Config) error

// positive rejects n <= 0 for the options whose Config field reads 0 as
// "use the default": passing it explicitly is a mistake, not a default.
func positive[T int | float64](field string, n T) error {
	if n <= 0 {
		return &InvalidConfigError{Field: field, Value: n, Reason: "must be positive"}
	}
	return nil
}

// WithRanks sets the number of simulated compute nodes (default 8, clamped
// to the matrix size). Preparation-scoped.
func WithRanks(n int) Option {
	return func(c *Config) error {
		c.Ranks = n
		return positive("ranks", n)
	}
}

// WithPhi sets the number of simultaneous node failures to tolerate: the
// solver keeps phi redundant copies of the two most recent search
// directions. Preparation-scoped.
func WithPhi(phi int) Option {
	return func(c *Config) error {
		c.Phi = phi
		return nil
	}
}

// WithPreconditioner selects the node-local block preconditioner.
// Preparation-scoped.
func WithPreconditioner(p Preconditioner) Option {
	return func(c *Config) error {
		c.Preconditioner = string(p)
		return nil
	}
}

// WithSSOROmega sets the SSOR relaxation factor, which must satisfy
// 0 < omega < 2 when the SSOR preconditioner is selected.
// Preparation-scoped.
func WithSSOROmega(omega float64) Option {
	return func(c *Config) error {
		c.SSOROmega = omega
		return nil
	}
}

// WithTransport selects the communication fabric solves run on (and, on
// NewSolver, the fabric of the preparation's own symbolic exchange). Run
// policy: per call it moves that one solve to another fabric, bit-identically.
func WithTransport(t Transport) Option {
	return func(c *Config) error {
		c.Transport = string(t)
		return nil
	}
}

// WithTransportSeed seeds the chaos transport's deterministic delay
// sequence (ignored by the other transports; 0 keeps the default seed,
// matching the wire format's omitempty semantics). Run policy.
func WithTransportSeed(seed int64) Option {
	return func(c *Config) error {
		c.TransportSeed = seed
		return nil
	}
}

// WithBlockSize sets the block width of batched solves: SolveBatch chunks
// its right-hand sides into groups of k columns solved in lockstep through
// the blocked multi-RHS driver (fused k-column SpMM, k-strided halo frames,
// length-k allreduces). 0 (the default) selects DefaultBlockSize; 1 solves
// the columns one at a time; negative values and values above MaxBlockSize
// are rejected. Blocking never changes
// results — column c of a blocked solve is bitwise identical to a solo
// solve of that right-hand side — so this is purely a throughput knob.
// Batch-scoped: it can differ per SolveBatch call without invalidating the
// session.
func WithBlockSize(k int) Option {
	return func(c *Config) error {
		c.BlockSize = k
		return nil
	}
}

// WithStrategy selects the failure-recovery strategy solves run under:
// exact state reconstruction (the default), the checkpoint/restart
// baseline, cold restart, or the twin replica. Run policy: one prepared
// session serves every strategy, so per call it is how the strategies are
// compared on identical prepared state.
func WithStrategy(s Strategy) Option {
	return func(c *Config) error {
		c.Strategy = string(s)
		return nil
	}
}

// WithCheckpointInterval sets the coordinated-save period (in iterations)
// of the checkpoint strategy; n must be positive (ignored by the other
// strategies; the default is 10). Run policy.
func WithCheckpointInterval(n int) Option {
	return func(c *Config) error {
		c.CheckpointInterval = n
		return positive("checkpoint_interval", n)
	}
}

// WithTwinInterval sets the shadow-synchronisation and checksum-comparison
// period (in iterations) of the twin strategy; n must be positive (ignored
// by the other strategies; the default is 1, catching every corruption at
// the poll point of the iteration it strikes and repairing it bitwise —
// larger periods trade detection latency for comparison overhead). Run
// policy.
func WithTwinInterval(n int) Option {
	return func(c *Config) error {
		c.TwinInterval = n
		return positive("twin_interval", n)
	}
}

// WithSDCCheck arms the periodic silent-data-corruption detector: every n
// iterations (and once more at convergence) the solver compares the true
// residual ||b - A x|| against its recurrence residual. Under TwinStrategy
// detected drift is repaired forward; under every other strategy the solve
// fails with a data_loss-classed *SDCDetectedError instead of silently
// returning a wrong answer. n must be positive; the detector is off by
// default. Run policy: per call it arms the check on that solve (a session
// that armed it keeps it armed on every solve).
func WithSDCCheck(n int) Option {
	return func(c *Config) error {
		c.SDCCheckInterval = n
		return positive("sdc_check_interval", n)
	}
}

// WithMethod selects the solver method. Allowed per-solve as long as the
// session's preconditioner supports it (SPCG needs IC0).
func WithMethod(m Method) Option {
	return func(c *Config) error {
		c.Method = string(m)
		return nil
	}
}

// WithTolerance sets the relative residual reduction target (default 1e-8,
// the paper's Sec. 7.1 setting). Solve-scoped.
func WithTolerance(tol float64) Option {
	return func(c *Config) error {
		c.Tol = tol
		return positive("tol", tol)
	}
}

// WithMaxIterations bounds the PCG iterations (default 10 n). Solve-scoped.
func WithMaxIterations(n int) Option {
	return func(c *Config) error {
		c.MaxIter = n
		return positive("max_iter", n)
	}
}

// WithLocalTolerance sets the reconstruction subsystem tolerance (default
// 1e-14). Solve-scoped.
func WithLocalTolerance(tol float64) Option {
	return func(c *Config) error {
		c.LocalTol = tol
		return positive("local_tol", tol)
	}
}

// WithSchedule injects the deterministic failure schedule into every solve
// of the session (or into one solve when passed to Solver.Solve).
// Solve-scoped. Under ESRStrategy or TwinStrategy a schedule with fail-stop
// events needs a session prepared with phi >= 1: NewSolver and Solve refuse
// it otherwise with an *InvalidConfigError naming phi.
func WithSchedule(s *Schedule) Option {
	return func(c *Config) error {
		c.Schedule = s
		return nil
	}
}

// WithProgress observes solves from rank 0: one event per iteration plus
// one per reconstruction episode. With concurrent solves on one session the
// events of all of them are delivered to the same callback; pass a per-call
// WithProgress to Solver.Solve to observe one solve in isolation.
// Solve-scoped.
func WithProgress(fn ProgressFunc) Option {
	return func(c *Config) error {
		c.Progress = fn
		return nil
	}
}

// WithTracer observes solves from rank 0 at the solver's phase boundaries:
// per-iteration phase durations (SpMV, preconditioner apply, allreduce), the
// residual trajectory, and recovery episodes. Tracing is observer-only —
// traced solves are bit-identical to untraced ones. With concurrent solves
// on one session every solve reports to the same tracer; pass a per-call
// WithTracer to Solver.Solve to trace one solve in isolation. Combine
// tracers with MultiTracer. Solve-scoped.
func WithTracer(t Tracer) Option {
	return func(c *Config) error {
		c.Tracer = t
		return nil
	}
}

// FromConfig lowers a (typically JSON-decoded) Config onto the option list:
// the configuration built so far is replaced by cfg (options listed after
// FromConfig still apply on top). It is the bridge from the wire format to
// the session API — esr.Solve(a, b, cfg) is equivalent to
// NewSolver(a, FromConfig(cfg)) followed by one Solve and a Close.
func FromConfig(cfg Config) Option {
	return func(c *Config) error {
		progress, tracer := c.Progress, c.Tracer
		*c = cfg
		if c.Progress == nil {
			c.Progress = progress
		}
		if c.Tracer == nil {
			// Like Progress: observers are not part of the wire format, so a
			// decoded Config must not silently drop one installed earlier.
			c.Tracer = tracer
		}
		return nil
	}
}

// buildConfig applies opts onto a zero Config.
func buildConfig(opts []Option) (Config, error) {
	var cfg Config
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}
