// Package xerr defines the repo-wide sentinel error taxonomy: a small,
// closed set of error classes that every API surface shares. Producers
// attach a class to an error once (New/Newf/Wrap/Ensure); consumers branch
// on the class with errors.Is or ClassOf instead of matching concrete types
// or message substrings. The class survives any number of fmt.Errorf("%w")
// wrappings, so intermediate layers can add context freely.
//
// cmd/esrd maps classes to HTTP statuses through a single table, and the
// public esr package re-exports the classes plus a Code helper, so the wire
// contract ("not_found", "resource_exhausted", ...) is derived mechanically
// from the same values the Go API exposes.
package xerr

import (
	"errors"
	"fmt"
)

// Class is one sentinel error class. Classes are compared by identity: the
// package-level variables below are the complete taxonomy, and a Class is
// matched with errors.Is(err, xerr.NotFound) like any sentinel error.
type Class struct{ code string }

// Error makes a Class usable as a bare, message-less error value and as an
// errors.Is target.
func (c *Class) Error() string { return c.code }

// Code returns the stable wire code of the class ("not_found", ...).
func (c *Class) Code() string { return c.code }

// The taxonomy. Mirrors the familiar gRPC code vocabulary:
//
//	InvalidArgument    the request itself is malformed (bad config, bad RHS)
//	NotFound           the referenced entity does not exist
//	AlreadyExists      creation conflicts with an existing entity
//	FailedPrecondition the entity exists but is in the wrong state
//	ResourceExhausted  a bounded store or queue is full; retry later
//	Unavailable        the serving component is shut down or draining
//	DataLoss           data was lost or silently corrupted beyond recovery
//	DeadlineExceeded   the operation's own time limit expired before it finished
//	Internal           an invariant broke; the caller cannot fix this
var (
	InvalidArgument    = &Class{"invalid_argument"}
	NotFound           = &Class{"not_found"}
	AlreadyExists      = &Class{"already_exists"}
	FailedPrecondition = &Class{"failed_precondition"}
	ResourceExhausted  = &Class{"resource_exhausted"}
	Unavailable        = &Class{"unavailable"}
	DataLoss           = &Class{"data_loss"}
	DeadlineExceeded   = &Class{"deadline_exceeded"}
	Internal           = &Class{"internal"}
)

// Classes returns the full taxonomy in a stable order, which is also the
// precedence order ClassOf uses when an error chain somehow carries more
// than one class (the first match wins).
func Classes() []*Class {
	return []*Class{
		InvalidArgument,
		NotFound,
		AlreadyExists,
		FailedPrecondition,
		ResourceExhausted,
		Unavailable,
		DataLoss,
		DeadlineExceeded,
		Internal,
	}
}

// classified pairs an error with its class. Unwrap returns both, so
// errors.Is matches the class and everything the wrapped error matched,
// and errors.As still reaches typed errors underneath.
type classified struct {
	class *Class
	err   error
}

func (e *classified) Error() string   { return e.err.Error() }
func (e *classified) Unwrap() []error { return []error{e.err, e.class} }

// New returns a new error with the given message carrying class.
func New(class *Class, msg string) error {
	return &classified{class: class, err: errors.New(msg)}
}

// Newf is New with fmt.Errorf formatting (including %w wrapping).
func Newf(class *Class, format string, args ...any) error {
	return &classified{class: class, err: fmt.Errorf(format, args...)}
}

// Wrap attaches class to err. The result's message is err's message
// unchanged; errors.Is matches both class and err's own chain. Wrapping a
// nil error yields nil.
func Wrap(class *Class, err error) error {
	if err == nil {
		return nil
	}
	return &classified{class: class, err: err}
}

// Ensure returns err guaranteed to carry a class: errors that already have
// one pass through untouched, unclassified errors are wrapped with class.
// This is the boundary helper — validation layers built from plain
// fmt.Errorf calls get a default class in one place instead of at every
// return. Ensure(nil) is nil.
func Ensure(class *Class, err error) error {
	if err == nil || ClassOf(err) != nil {
		return err
	}
	return &classified{class: class, err: err}
}

// ClassOf returns the class carried anywhere along err's chain — whether
// attached by this package or claimed by a typed error's own Is method —
// or nil for unclassified errors (and nil errors).
func ClassOf(err error) *Class {
	if err == nil {
		return nil
	}
	for _, c := range Classes() {
		if errors.Is(err, c) {
			return c
		}
	}
	return nil
}

// Code returns the wire code of err's class, or "" when err is nil or
// carries no class.
func Code(err error) string {
	if c := ClassOf(err); c != nil {
		return c.code
	}
	return ""
}
