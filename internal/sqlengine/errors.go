package sqlengine

import (
	"errors"
	"fmt"

	"cjdbc/internal/senterr"
)

// ErrSemantic is the errors.Is sentinel for statement-level failures, the
// same value as senterr.ErrSemantic. The clustering middleware uses it to
// separate "the statement is wrong" from "this backend is broken": semantic
// errors must never trigger failover or disable a backend. Every error the
// engine constructs carries this sentinel; match with errors.Is(err,
// ErrSemantic) instead of sniffing the "engine:" message prefix.
var ErrSemantic = senterr.ErrSemantic

// ErrKilled is returned by statements (and in-flight lock waits) of a
// session that was killed via Session.Kill. It deliberately does NOT carry
// the ErrSemantic sentinel: a kill is an administrative/failure-path event
// local to one backend, never a property of the statement, so the
// clustering middleware must not treat it like a replica-identical error.
var ErrKilled = errors.New("engine: session killed")

// errf builds an engine error carrying the ErrSemantic sentinel. All engine
// statement errors are constructed through it.
func errf(format string, args ...any) error {
	return senterr.Wrap(ErrSemantic, fmt.Errorf("engine: "+format, args...))
}

// Is marks missing-table errors as semantic.
func (e *TableNotFoundError) Is(target error) bool { return target == ErrSemantic }
