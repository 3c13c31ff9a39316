package subsystem

import (
	"errors"
	"fmt"
)

// ErrLocked is returned when an invocation cannot acquire its locks
// because a transaction of another process holds them (possibly a
// prepared, in-doubt transaction whose commit is deferred).
var ErrLocked = errors.New("subsystem: lock conflict")

// ErrAborted is returned when the invocation's local transaction aborted
// (forced failure or injected failure probability).
var ErrAborted = errors.New("subsystem: local transaction aborted")

// ErrTransient is returned by an unreliable transport (internal/chaos)
// when an invocation could not be delivered to the subsystem at all:
// the local transaction provably never executed, so redelivery is safe
// for any activity kind.
var ErrTransient = errors.New("subsystem: transient delivery failure")

// ErrTimeout is returned by an unreliable transport when no reply
// arrived in time. Unlike ErrTransient the invocation may or may not
// have executed; callers must resolve the ambiguity through the
// idempotency table (LookupIdem) before treating it as a failure.
var ErrTimeout = errors.New("subsystem: invocation timed out")

// SubsystemError is the typed error every subsystem-boundary failure is
// wrapped in: it names the subsystem and service and carries the error
// kind (one of the sentinels above), so call sites can route on
// errors.Is(err, ErrX) and still recover the failing service via
// errors.As.
type SubsystemError struct {
	// Subsystem is the owning resource manager ("" when routing failed
	// before an owner was known).
	Subsystem string
	// Service is the invoked service.
	Service string
	// Kind is the failure class: ErrLocked, ErrAborted, ErrTransient or
	// ErrTimeout.
	Kind error
	// Detail is an optional human-readable qualifier (e.g. the lock
	// holder, or "outage").
	Detail string
}

// Error formats "kind: subsystem/service (detail)".
func (e *SubsystemError) Error() string {
	msg := fmt.Sprintf("%v: %s/%s", e.Kind, e.Subsystem, e.Service)
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return msg
}

// Unwrap exposes the kind sentinel to errors.Is.
func (e *SubsystemError) Unwrap() error { return e.Kind }

// FailureKind extracts the kind sentinel of a subsystem-boundary error
// (nil when err carries none of the known sentinels).
func FailureKind(err error) error {
	for _, kind := range []error{ErrLocked, ErrAborted, ErrTransient, ErrTimeout} {
		if errors.Is(err, kind) {
			return kind
		}
	}
	return nil
}

// IsInvocationFailure reports whether err means "this invocation did
// not produce a prepared local transaction": a genuine local abort or a
// transport-level loss. Both engines treat such completions as failed
// invocations (transient for retriable activities, permanent
// otherwise); lock conflicts are not failures.
func IsInvocationFailure(err error) bool {
	return errors.Is(err, ErrAborted) || errors.Is(err, ErrTransient) || errors.Is(err, ErrTimeout)
}
