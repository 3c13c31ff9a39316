package subsystem

// ResilientInvoker is the invocation boundary between an engine and the
// subsystems, filled by a fault model (internal/chaos) or by a test.
// There is no retry policy behind it: each call is one logical delivery,
// and re-invoking a failed invocation is the driver's decision, made by
// the paper's typing. An implementation surfaces only outcomes the
// engine already handles:
//
//   - (res, lat, nil): the invocation executed; res is its Result and
//     lat the extra virtual latency (spikes, timeouts) the boundary
//     added on top of the service cost.
//   - errors.Is(err, ErrLocked): a lock conflict at the subsystem; the
//     engine parks the activity as usual.
//   - IsInvocationFailure(err): the invocation left no prepared
//     transaction — a genuine local abort (ErrAborted) or a delivery
//     failure (ErrTransient, or ErrTimeout resolved to not-executed
//     through the idempotency table first). The engine re-invokes
//     retriable activities and recovery steps and takes the ◁
//     alternative or backward recovery for everything else.
//
// key identifies the logical invocation for idempotent delivery: the
// caller uses a fresh key per logical invocation, including each
// re-invocation of a retriable activity, which is a new execution per
// the paper.
type ResilientInvoker interface {
	InvokeResilient(proc, service string, mode Mode, key string) (res *Result, lat int64, err error)
}
