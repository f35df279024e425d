package esr

// Option is one configuration of a NewSolver session or of one Solve or
// SolveBatch call: a Config whose non-zero fields are the knobs it sets.
// Several combine by engine.Merge's rule — a later non-zero field wins, zero
// keeps what came before — so
//
//	esr.NewSolver(a, esr.Config{Ranks: 8, Phi: 2}, esr.Config{Tol: 1e-10})
//
// builds the session esr.NewSolver(a, esr.Config{Ranks: 8, Phi: 2, Tol:
// 1e-10}) does. Zero means "the default" on every field; everything else is
// validated when the session is built or the solve starts, with an
// *InvalidConfigError naming the field.
type Option = Config

// The constructors below are one-field Configs, kept as shorthands for the
// most common knobs.

// WithRanks sets the number of simulated compute nodes. Preparation-scoped.
func WithRanks(n int) Option { return Config{Ranks: n} }

// WithPhi sets the number of simultaneous node failures to tolerate.
// Preparation-scoped.
func WithPhi(phi int) Option { return Config{Phi: phi} }

// WithTolerance sets the relative residual reduction target.
func WithTolerance(tol float64) Option { return Config{Tol: tol} }

// WithLocalTolerance sets the reconstruction subsystem tolerance.
func WithLocalTolerance(tol float64) Option { return Config{LocalTol: tol} }

// WithSchedule injects a deterministic failure schedule.
func WithSchedule(s *Schedule) Option { return Config{Schedule: s} }

// WithTracer observes solves at the solver's phase boundaries (see Tracer).
func WithTracer(t Tracer) Option { return Config{Tracer: t} }
