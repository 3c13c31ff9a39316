package subsystem

import (
	"errors"
	"fmt"
	"slices"

	"transproc/internal/activity"
	"transproc/internal/metrics"
)

// Weak-order support (Section 3.6 of the paper): under the weak order,
// two conflicting activities may execute in parallel inside the
// subsystem as long as the overall effect equals the strong order. The
// subsystem realizes this with commit-order serializability: a weakly
// invoked transaction records the in-doubt transactions it conflicts
// with as commit-order dependencies; its commit is refused until they
// have committed, and if one of them aborts, the dependent must abort
// (and be re-invoked) as well — without this counting as a failure of
// its process.

// ErrOrder is returned by CommitPrepared when a weak-order dependency
// has not committed yet; the caller retries once it has.
var ErrOrder = fmt.Errorf("subsystem: weak-order dependency not yet committed")

// ErrDependencyAborted is returned when a weak-order dependency aborted:
// the dependent transaction has been rolled back and must be re-invoked.
var ErrDependencyAborted = fmt.Errorf("subsystem: weak-order dependency aborted; re-invoke")

// InvokeWeak executes an invocation under the weak order: lock conflicts
// with in-doubt transactions of other processes do not block; instead
// they become commit-order dependencies of the new transaction. The
// transaction is always left in the prepared state; resolve it with
// CommitPrepared (which enforces the commit order) or AbortPrepared.
func (s *Subsystem) InvokeWeak(proc, service string) (*Result, []TxID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv, ok := s.services[service]
	if !ok {
		return nil, nil, fmt.Errorf("subsystem %s: unknown service %q", s.name, service)
	}
	s.invocations++
	s.m.Inc(metrics.SubInvocations)

	// Outcome decision (deterministic rules, forced failures,
	// probability) as in Invoke.
	fail := false
	if s.failRules[proc+"/"+service] {
		fail = true
	} else if s.forceFail[service] > 0 {
		s.forceFail[service]--
		fail = true
	} else if sv.spec.FailureProb > 0 && s.rng.Float64() < sv.spec.FailureProb {
		fail = true
	}
	if fail {
		s.aborts++
		s.m.Inc(metrics.SubAborts)
		return &Result{Outcome: activity.Aborted}, nil,
			&SubsystemError{Subsystem: s.name, Service: service, Kind: ErrAborted}
	}

	// Commit-order dependencies: every in-doubt transaction of another
	// process whose service conflicts on data items.
	var deps []TxID
	for id, t := range s.inDoubt {
		if t.proc == proc {
			continue
		}
		if s.itemConflictLocked(sv, s.services[t.service]) {
			deps = append(deps, id)
		}
	}

	s.nextTx++
	s.dPut(durNextTx, int64(s.nextTx))
	t := &txn{id: s.nextTx, proc: proc, service: service, writes: sv.writes, prepared: true, weakDeps: slices.Clone(deps)}
	reads := s.readLocked(sv)
	s.inDoubt[t.id] = t
	s.putIntentLocked(t)
	s.m.Observe(metrics.HistInDoubt, int64(len(s.inDoubt)))
	return &Result{Tx: t.id, Outcome: activity.Prepared, Reads: reads}, deps, nil
}

// itemConflictLocked reports whether two services touch conflicting data
// items (write/write or read/write overlap).
func (s *Subsystem) itemConflictLocked(a, b *svc) bool {
	if a == nil || b == nil {
		return false
	}
	for _, w := range a.writes {
		if b.writesItem(w.item) || slices.Contains(b.spec.ReadSet, w.item) {
			return true
		}
	}
	for _, w := range b.writes {
		if slices.Contains(a.spec.ReadSet, w.item) {
			return true
		}
	}
	return false
}

// CommitPreparedWeak commits a weakly invoked transaction while
// enforcing the commit order: it fails with ErrOrder while a dependency
// is still in doubt, and with ErrDependencyAborted (after rolling the
// transaction back) when a dependency aborted.
func (s *Subsystem) CommitPreparedWeak(id TxID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.inDoubt[id]
	if !ok {
		return fmt.Errorf("subsystem %s: transaction %d is not in doubt", s.name, id)
	}
	if err := s.weakCommittableLocked(t); err != nil {
		if errors.Is(err, ErrDependencyAborted) {
			s.aborts++
			s.m.Inc(metrics.SubAborts)
			s.resolved[id] = false
			s.recordFateLocked(t, false)
			delete(s.inDoubt, id)
		}
		return err
	}
	s.applyLocked(t)
	s.resolved[id] = true
	s.recordFateLocked(t, true)
	delete(s.inDoubt, id)
	return nil
}

// TxService returns the service an in-doubt transaction executes.
func (s *Subsystem) TxService(id TxID) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.inDoubt[id]
	if !ok {
		return "", false
	}
	return t.service, true
}

// WeakCommittable reports whether a weakly invoked transaction could
// commit right now: nil when all dependencies committed, ErrOrder while
// one is still in doubt, ErrDependencyAborted when one aborted (the
// transaction is NOT rolled back by this check; CommitPreparedWeak or
// AbortPrepared does that).
func (s *Subsystem) WeakCommittable(id TxID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.inDoubt[id]
	if !ok {
		return fmt.Errorf("subsystem %s: transaction %d is not in doubt", s.name, id)
	}
	return s.weakCommittableLocked(t)
}

func (s *Subsystem) weakCommittableLocked(t *txn) error {
	for _, dep := range t.weakDeps {
		if _, still := s.inDoubt[dep]; still {
			return ErrOrder
		}
		if !s.resolved[dep] {
			return ErrDependencyAborted
		}
	}
	return nil
}
