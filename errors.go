package esr

import "repro/internal/xerr"

// ErrorClass is a sentinel error class: every error the library and the
// esrd daemon return carries exactly one class, matched with errors.Is.
// Classes are the stable, machine-readable half of an error — the message
// text is free to change, the class (and its wire code) is contract:
//
//	_, err := esr.Solve(a, b, cfg)
//	if errors.Is(err, esr.ErrInvalidArgument) { ... fix the request ... }
//
// The esrd daemon derives HTTP statuses and the JSON error envelope's
// "code" field from the same classes, so a client of the Go API and a
// client of the HTTP API branch on identical vocabulary.
type ErrorClass = xerr.Class

// The error classes. See each class's doc for the condition it reports;
// ErrorCode returns the wire code ("invalid_argument", ...) of any error.
var (
	// ErrInvalidArgument: the request itself is malformed (unknown
	// preconditioner, out-of-range phi, non-finite right-hand side, ...),
	// or its matrix is outside what the solver serves (a PCG breakdown or
	// divergence, a zero diagonal under Jacobi or SSOR).
	ErrInvalidArgument = xerr.InvalidArgument
	// ErrNotFound: the referenced entity (job, matrix, trace) does not exist.
	ErrNotFound = xerr.NotFound
	// ErrAlreadyExists: creation conflicts with an existing entity.
	ErrAlreadyExists = xerr.AlreadyExists
	// ErrFailedPrecondition: the entity exists but is in the wrong state
	// (e.g. cancelling an already-terminal job).
	ErrFailedPrecondition = xerr.FailedPrecondition
	// ErrResourceExhausted: a bounded queue or store is full; retry later.
	ErrResourceExhausted = xerr.ResourceExhausted
	// ErrUnavailable: the serving component is closed or draining.
	ErrUnavailable = xerr.Unavailable
	// ErrDataLoss: solver data was lost beyond the redundancy's coverage, or
	// silent corruption was detected without a strategy able to repair it.
	ErrDataLoss = xerr.DataLoss
	// ErrDeadlineExceeded: the operation's own time limit (a job's
	// timeout_ms) expired before it finished.
	ErrDeadlineExceeded = xerr.DeadlineExceeded
	// ErrInternal: an invariant broke; the caller cannot fix this.
	ErrInternal = xerr.Internal
)

// ErrorCode returns the stable wire code of err's class ("not_found",
// "resource_exhausted", ...), or "" when err is nil or carries no class.
// It is the same code the esrd daemon puts in its JSON error envelope, so
// Go clients and HTTP clients can share error-handling tables.
func ErrorCode(err error) string { return xerr.Code(err) }
