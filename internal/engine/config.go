// Package engine is the concurrent solve-job subsystem: a typed JobSpec
// (matrix source, right-hand side, solver configuration), a bounded worker
// pool with a FIFO queue, per-job context cancellation and deadlines, a
// progress-event stream, and an in-memory result store with job lifecycle
// states (queued -> running -> done|failed|cancelled).
//
// The package also owns the single-job solve path (SolveSystem): the public
// esr.Solve / esr.SolveContext entry points and the engine's workers share
// this one code path, so a job submitted to the cmd/esrd daemon runs exactly
// the library call.
package engine

import (
	"fmt"
	"math"
	"reflect"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/xerr"
)

// Preconditioner names accepted by Config.
const (
	PrecondIdentity        = "identity"
	PrecondJacobi          = "jacobi"
	PrecondBlockJacobiILU  = "block-jacobi-ilu"
	PrecondBlockJacobiChol = "block-jacobi-cholesky"
	PrecondSSOR            = "ssor"
	PrecondIC0             = "ic0"
)

// Method names accepted by Config: the recurrence the one driver loop runs
// (the esr package documents each). The empty string selects MethodPCG.
const (
	MethodPCG  = "pcg"
	MethodSPCG = "spcg"
)

// esrpcgSynonym is an accepted synonym of MethodPCG (journaled job specs
// carry it: it named the same solver while "pcg" refused schedules);
// WithDefaults resolves it like fastSynonym.
const esrpcgSynonym = "esrpcg"

// Strategy names accepted by Config (mirroring internal/core; the esr
// package documents each). The empty string selects StrategyESR.
const (
	StrategyESR        = core.StrategyESR
	StrategyCheckpoint = core.StrategyCheckpoint
	StrategyRestart    = core.StrategyRestart
	StrategyTwin       = core.StrategyTwin
)

// DefaultBlockSize is the blocked multi-RHS width applied to batched solves
// whose Config.BlockSize is 0: large enough that the shared SpMM and fused
// allreduces amortize the per-iteration communication over many columns,
// small enough that the k-strided halo frames and the k per-rank column
// vectors stay cache- and pool-friendly.
const DefaultBlockSize = 32

// MaxBlockSize caps Config.BlockSize: one k-wide solve keeps k column
// vectors of every recurrence on every rank plus k-strided halo and
// retention payloads, so an unbounded width from a network-submitted job
// could exhaust memory before the solver's first iteration.
const MaxBlockSize = 4096

// Transport names accepted by Config (mirroring internal/cluster; the esr
// package documents each). The empty string selects TransportChan.
const (
	TransportChan = cluster.TransportChan
	TransportNet  = cluster.TransportNet
)

// fastSynonym is an accepted synonym of TransportChan (journaled job specs
// carry it); WithDefaults resolves it, so nothing downstream of a normalized
// Config — the cluster, session names, usage gauges, metric labels — ever
// sees it.
const fastSynonym = "fast"

// Scope says which layer consumes a Config field. Every field declares
// exactly one in its `scope` struct tag — the single place a knob's scope is
// stated; the prepared-session identity, the per-solve policy and the docs
// all derive from it.
type Scope string

const (
	// ScopePrep fields shape the prepared numeric state (partition, halo and
	// redundancy plan, preconditioner factors): together with the matrix they
	// identify a prepared session and key the engine's session cache.
	ScopePrep Scope = "prep"
	// ScopeRun fields are run policy, resolved per solve (see overlay):
	// solves differing only in them share one prepared session.
	ScopeRun Scope = "run"
	// ScopeBatch fields only shape how a batch of right-hand sides is grouped.
	ScopeBatch Scope = "batch"
	// ScopeObserver fields watch a solve and never change it; not serialized.
	ScopeObserver Scope = "observer"
)

// fieldScope reads a Config field's declared scope.
func fieldScope(f reflect.StructField) Scope { return Scope(f.Tag.Get("scope")) }

// prepFields indexes Config's prep-scoped fields; solveFields the rest, the
// run-, batch- and observer-scoped fields a per-solve Config may set;
// allFields both.
var prepFields, solveFields, allFields = func() (prep, solve, all []int) {
	t := reflect.TypeOf(Config{})
	for i := 0; i < t.NumField(); i++ {
		if fieldScope(t.Field(i)) == ScopePrep {
			prep = append(prep, i)
		} else {
			solve = append(solve, i)
		}
		all = append(all, i)
	}
	return prep, solve, all
}()

// overlay sets c's fields among fields from o wherever o's is non-zero: o's
// value wins, zero keeps c's. o is a pointer so the reflection does not copy
// (and heap-allocate) the Config.
func (c *Config) overlay(o *Config, fields []int) {
	dst, src := reflect.ValueOf(c).Elem(), reflect.ValueOf(o).Elem()
	for _, i := range fields {
		if f := src.Field(i); !f.IsZero() {
			dst.Field(i).Set(f)
		}
	}
}

// Merge is the one rule that combines configurations: base with every field
// each of over sets (non-zero) laid on it in turn, so the last non-zero value
// of a field wins and zero keeps what came before. It combines esr.NewSolver's
// options, a Solver call's options with its session, and a job's Config with
// the daemon defaults beneath it. A prepared session resolves each solve's
// policy by the same rule over the non-prep fields only.
func Merge(base Config, over ...Config) Config {
	for i := range over {
		base.overlay(&over[i], allFields)
	}
	return base
}

// Config controls a solve. The zero value selects the paper's experimental
// setup. Numerical defaults (Tol, MaxIter, LocalTol) are NOT filled in here:
// their single source of truth is core.Options.withDefaults, which resolves
// zero values against the paper's Sec. 7.1 settings (Tol 1e-8, MaxIter 10 n,
// LocalTol 1e-14) at solve time. Config only normalizes the fields that the
// solver layer cannot default. Invalid values are rejected by Validate with
// an *InvalidConfigError naming the field.
type Config struct {
	// Ranks is the number of simulated compute nodes (default 8, clamped to
	// the matrix size).
	Ranks int `json:"ranks,omitempty" scope:"prep"`
	// Phi is the number of simultaneous node failures to tolerate
	// (default 0: plain PCG without redundancy).
	Phi int `json:"phi,omitempty" scope:"prep"`
	// Preconditioner selects the node-local block preconditioner; see the
	// Precond* constants (default block-jacobi-ilu).
	Preconditioner string `json:"preconditioner,omitempty" scope:"prep"`
	// Tol is the relative residual reduction target; 0 selects the
	// core.Options default (1e-8, as in the paper).
	Tol float64 `json:"tol,omitempty" scope:"run"`
	// MaxIter bounds the PCG iterations; 0 selects the core.Options default
	// (10 n).
	MaxIter int `json:"max_iter,omitempty" scope:"run"`
	// LocalTol is the reconstruction subsystem tolerance; 0 selects the
	// core.Options default (1e-14).
	LocalTol float64 `json:"local_tol,omitempty" scope:"run"`
	// SSOROmega is the relaxation factor when Preconditioner is "ssor"
	// (default 1.2). SSOR diverges outside 0 < omega < 2. It shapes (and
	// identifies) prepared state only under that preconditioner.
	SSOROmega float64 `json:"ssor_omega,omitempty" scope:"prep"`
	// Method names the recurrence: MethodPCG (default; "esrpcg" is an
	// accepted synonym) or MethodSPCG, the split-preconditioner variant
	// (requires Preconditioner "ic0"). Both run under every strategy,
	// schedule and detector setting.
	Method string `json:"method,omitempty" scope:"run"`
	// Transport selects the cluster communication fabric: TransportChan
	// (default; "fast" is an accepted synonym) or TransportNet (real TCP
	// sockets on loopback). Results are bit-identical on both.
	Transport string `json:"transport,omitempty" scope:"run"`
	// Strategy selects the failure-recovery strategy: StrategyESR
	// (default; the paper's exact state reconstruction), StrategyCheckpoint
	// (the periodic-save/rollback baseline), StrategyRestart (cold restart
	// from the initial guess) or StrategyTwin (twin-replica forward
	// recovery).
	Strategy string `json:"strategy,omitempty" scope:"run"`
	// CheckpointInterval is the coordinated-save period in iterations of
	// the checkpoint strategy (default 10; ignored by the others).
	CheckpointInterval int `json:"checkpoint_interval,omitempty" scope:"run"`
	// TwinInterval is the shadow-synchronisation and checksum-comparison
	// period in iterations of the twin strategy (default 1: every
	// iteration is compared, so a bit flip is caught at the poll point of
	// the iteration it strikes and repaired bitwise; ignored by the other
	// strategies).
	TwinInterval int `json:"twin_interval,omitempty" scope:"run"`
	// SDCCheckInterval, when > 0, arms the periodic silent-data-corruption
	// detector: every SDCCheckInterval iterations (and once more at
	// convergence) the true residual ||b - A x|| is compared against the
	// recurrence residual. Under the twin strategy detected drift is
	// repaired forward; under every other strategy the solve fails with a
	// data_loss-classed *core.SDCDetectedError instead of silently
	// returning a wrong answer. 0 (the default) disables the detector.
	SDCCheckInterval int `json:"sdc_check_interval,omitempty" scope:"run"`
	// BlockSize bounds the columns a batch has in flight: each chunk of up
	// to BlockSize right-hand sides runs as two concurrent lockstep groups,
	// a group's columns sharing every SpMM, halo exchange and fused
	// allreduce. 0 (the default) selects DefaultBlockSize; 1 disables
	// blocking (one column at a time); other values must lie in [1,
	// MaxBlockSize]. It only shapes SolveBatch/batch jobs, never a single solve.
	BlockSize int `json:"block_size,omitempty" scope:"batch"`
	// Schedule injects node failures (nil for a failure-free run).
	Schedule *faults.Schedule `json:"schedule,omitempty" scope:"run"`
	// Tracer, when non-nil, observes the solve from rank 0: every completed
	// iteration (residual trajectory, phase timings) and every recovery
	// episode. It is the one observer of a solve, observer-only (never
	// changes results) and not serialized; over the wire, a job's event
	// stream and the daemon's trace capture are tracers the engine installs.
	Tracer core.Tracer `json:"-" scope:"observer"`
}

// WithDefaults normalizes the runtime-level fields (see the type doc for why
// the numerical tolerances are left to core.Options). It only fills zero
// values and resolves the two synonyms ("fast", "esrpcg"); it never repairs
// invalid ones — a negative Ranks or an out-of-range SSOROmega passes
// through unchanged so that Validate can reject it with a typed error
// instead of the solver silently running on a default or diverging.
func (c Config) WithDefaults() Config {
	if c.Ranks == 0 {
		c.Ranks = 8
	}
	if c.Method == "" || c.Method == esrpcgSynonym {
		c.Method = MethodPCG
	}
	if c.Preconditioner == "" {
		if c.Method == MethodSPCG {
			// SPCG iterates on the transformed residual L^{-1} r and needs
			// the explicit M = L L^T split; IC(0) is the only split-capable
			// preconditioner.
			c.Preconditioner = PrecondIC0
		} else {
			c.Preconditioner = PrecondBlockJacobiILU
		}
	}
	if c.SSOROmega == 0 {
		c.SSOROmega = 1.2
	}
	if c.Transport == "" || c.Transport == fastSynonym {
		c.Transport = TransportChan
	}
	if c.Strategy == "" {
		c.Strategy = StrategyESR
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = core.DefaultCheckpointInterval
	}
	if c.TwinInterval == 0 {
		c.TwinInterval = core.DefaultTwinInterval
	}
	if c.BlockSize == 0 {
		c.BlockSize = DefaultBlockSize
	}
	return c
}

// prepOnly returns the defaulted configuration reduced to its prep-scoped
// fields: everything Prepare computes is a function of the matrix and these.
func (c Config) prepOnly() Config {
	c = c.WithDefaults()
	if c.Preconditioner != PrecondSSOR {
		// Omega shapes preparation only for SSOR; keeping it otherwise would
		// split identical sessions over an unused field.
		c.SSOROmega = 0
	}
	var out Config
	src, dst := reflect.ValueOf(c), reflect.ValueOf(&out).Elem()
	for _, i := range prepFields {
		dst.Field(i).Set(src.Field(i))
	}
	return out
}

// PrepIdentity names the prepared numeric state this configuration asks
// for: the prep-scoped fields after defaulting (Ranks, Phi, Preconditioner,
// and SSOROmega under "ssor"). Two configurations with equal identities can
// share one prepared session of a matrix whatever their run policy; the
// engine's session cache keys on it and Solver.Solve uses it to reject
// per-call options that would need a different session.
func (c Config) PrepIdentity() string {
	v := reflect.ValueOf(c.prepOnly())
	var sb strings.Builder
	for _, i := range prepFields {
		fmt.Fprintf(&sb, "|%s=%v", v.Type().Field(i).Name, v.Field(i))
	}
	return sb.String()
}

// InvalidConfigError reports a Config field rejected by validation: Field is
// the field's JSON name, Value the rejected value (nil for a schedule, whose
// Reason names the offending event), Reason what is accepted instead. For a
// rule binding two fields (a method and the strategy it cannot run under),
// Field is the one to change.
type InvalidConfigError struct {
	Field  string
	Value  any
	Reason string
}

// Error implements the error interface.
func (e *InvalidConfigError) Error() string {
	if e.Value == nil {
		return fmt.Sprintf("engine: invalid %s: %s", e.Field, e.Reason)
	}
	return fmt.Sprintf("engine: invalid %s %#v: %s", e.Field, e.Value, e.Reason)
}

// Is claims the InvalidArgument class, so errors.Is(err, xerr.InvalidArgument)
// holds without wrapping.
func (e *InvalidConfigError) Is(target error) bool { return target == xerr.InvalidArgument }

func invalid(field string, value any, format string, args ...any) error {
	return &InvalidConfigError{Field: field, Value: value, Reason: fmt.Sprintf(format, args...)}
}

// Validate checks the configuration after WithDefaults normalization, field
// by field, then the failure schedule against the ranks and the redundancy
// its recovery needs. Zero is "the default" on every field, never an error.
// It is called at job submission (over the daemon defaults), at session
// preparation and on every solve's resolved policy, so invalid
// configurations are rejected at the door rather than failing (or silently
// diverging) mid-solve. Every rejection is an *InvalidConfigError (class
// xerr.InvalidArgument).
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.Ranks < 1 {
		return invalid("ranks", c.Ranks, "use a positive rank count, or 0 for the default (8)")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"tol", c.Tol}, {"local_tol", c.LocalTol}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) { // NaN fails the comparison
			return invalid(f.name, f.v, "use a finite positive value, or 0 for the default")
		}
	}
	if math.IsNaN(c.SSOROmega) || math.IsInf(c.SSOROmega, 0) {
		return invalid("ssor_omega", c.SSOROmega, "must be finite")
	}
	if c.MaxIter < 0 {
		return invalid("max_iter", c.MaxIter, "use a positive iteration bound, or 0 for the default (10 n)")
	}
	switch c.Preconditioner {
	case PrecondIdentity, PrecondJacobi, PrecondBlockJacobiILU, PrecondBlockJacobiChol, PrecondSSOR, PrecondIC0:
	default:
		return invalid("preconditioner", c.Preconditioner, "unknown preconditioner")
	}
	if c.Preconditioner == PrecondSSOR && (c.SSOROmega <= 0 || c.SSOROmega >= 2) {
		return invalid("ssor_omega", c.SSOROmega, "SSOR diverges outside (0, 2)")
	}
	switch c.Method {
	case MethodPCG:
	case MethodSPCG:
		if c.Preconditioner != PrecondIC0 {
			return invalid("method", c.Method, "needs the split preconditioner %q, got %q", PrecondIC0, c.Preconditioner)
		}
	default:
		return invalid("method", c.Method, "want %q or %q", MethodPCG, MethodSPCG)
	}
	switch c.Transport {
	case TransportChan, TransportNet:
	default:
		return invalid("transport", c.Transport, "want %q or %q", TransportChan, TransportNet)
	}
	switch c.Strategy {
	case StrategyESR, StrategyCheckpoint, StrategyRestart, StrategyTwin:
	default:
		return invalid("strategy", c.Strategy, "want %q, %q, %q or %q",
			StrategyESR, StrategyCheckpoint, StrategyRestart, StrategyTwin)
	}
	// WithDefaults resolves the unset zero of the two intervals and the block
	// size, so only explicit out-of-range values reach these checks.
	if c.CheckpointInterval <= 0 {
		return invalid("checkpoint_interval", c.CheckpointInterval, "must be positive")
	}
	if c.TwinInterval <= 0 {
		return invalid("twin_interval", c.TwinInterval, "must be positive")
	}
	if c.SDCCheckInterval < 0 {
		return invalid("sdc_check_interval", c.SDCCheckInterval, "use a positive period, or 0 to disable the check")
	}
	if c.BlockSize < 1 || c.BlockSize > MaxBlockSize {
		return invalid("block_size", c.BlockSize, "use 1..%d, or 0 for the default (%d)", MaxBlockSize, DefaultBlockSize)
	}
	if c.Phi < 0 || c.Phi >= c.Ranks {
		return invalid("phi", c.Phi, "out of range [0, %d)", c.Ranks)
	}
	if err := c.Schedule.Validate(c.Ranks); err != nil {
		return &InvalidConfigError{Field: "schedule", Reason: err.Error()}
	}
	if c.Phi == 0 && c.Schedule.HasFailStop() && (c.Strategy == StrategyESR || c.Strategy == StrategyTwin) {
		// Only ESR reconstruction needs redundancy (the twin strategy delegates
		// its fail-stop recovery to it); checkpoint/restart roll back without
		// it, and corruption-only schedules never lose a node's state.
		return invalid("phi", c.Phi, "a fail-stop schedule under strategy %q needs phi >= 1 (or strategy %q or %q)",
			c.Strategy, StrategyCheckpoint, StrategyRestart)
	}
	return nil
}
