// Package senterr wraps errors with an errors.Is-able classification
// sentinel while preserving the wrapped error's exact message and chain.
// The engine, parser, value layer and backend all classify their statement
// errors through it so the clustering middleware can separate "the
// statement is wrong" (deterministic on every replica) from "this backend
// is broken" without sniffing message text.
package senterr

import "errors"

// ErrSemantic is the errors.Is sentinel for statement-level failures of a
// database: errors that are a property of the statement and the
// (replicated) data, so every replica fails identically — bad SQL
// semantics, missing tables or columns, constraint violations, lock
// timeouts, transaction-state misuse. It lives here, not in the engine, so
// the middleware classifies a database's errors without naming the engine.
var ErrSemantic = errors.New("engine: semantic statement error")

// Wrap returns an error that reports err's message, unwraps to err, and
// for which errors.Is(result, sentinel) holds.
func Wrap(sentinel, err error) error {
	return &wrapped{sentinel: sentinel, err: err}
}

type wrapped struct{ sentinel, err error }

func (w *wrapped) Error() string        { return w.err.Error() }
func (w *wrapped) Unwrap() error        { return w.err }
func (w *wrapped) Is(target error) bool { return target == w.sentinel }
