package policy

import (
	"fmt"

	"transproc/internal/process"
	"transproc/internal/schedule"
)

// activePreds calls yield for each non-terminated process with an edge
// into id in the conflict graph, in arbitrary order, until yield returns
// false.
func (s *State) activePreds(v View, id process.ID, yield func(process.ID) bool) {
	for k, n := range s.edges {
		if n > 0 && k[1] == id && v.Phase(k[0]) != Done && !yield(k[0]) {
			return
		}
	}
}

// HasActiveConflictPred reports whether any non-terminated process has
// an edge into id in the conflict graph — Lemma 1's commit-deferral
// condition.
func (s *State) HasActiveConflictPred(v View, id process.ID) bool {
	found := false
	s.activePreds(v, id, func(process.ID) bool { found = true; return false })
	return found
}

// ActiveConflictPreds lists the non-terminated processes with an edge
// into id — the processes a Lemma-1 commit deferral is waiting on. The
// deferral resolves only when all of them terminated, so the list is
// the AND-set of one wait-for alternative in the runtime's deadlock
// detector.
func (s *State) ActiveConflictPreds(v View, id process.ID) []process.ID {
	var out []process.ID
	s.activePreds(v, id, func(q process.ID) bool { out = append(out, q); return true })
	return out
}

// FirstActivePred names one active conflicting predecessor of id — the
// process a deferred commit is waiting on (trace detail for the
// defer-commit decision). Which one is named is arbitrary when several
// exist; "" when none.
func (s *State) FirstActivePred(v View, id process.ID) string {
	first := ""
	s.activePreds(v, id, func(q process.ID) bool { first = string(q); return false })
	return first
}

// lemma1Blocks is the Lemma-1 dispatch rule for one conflicting
// predecessor q of a regular activity on svcID: q blocks the dispatch
// while it is active, unless it can no longer produce a recovery
// activity conflicting with the service (quasi-commit, Example 10).
func (s *State) lemma1Blocks(v View, q process.ID, svcID int) bool {
	return v.Phase(q) != Done && !s.safeQuasiCommit(v, q, svcID)
}

// DispatchBlockers lists the active predecessors on which MayDispatch's
// Lemma-1 rule denies a regular dispatch of a by id: the processes that
// must all terminate (or become exempt by acting) before the activity
// can run. An empty result means the denial — if any — came from a rule
// without pred-wait semantics (forced-order acyclicity, the ablation
// pivot gate, or a non-PRED mode), so the caller has no edge information
// and must fall back to quiescence-based stall handling.
func (s *State) DispatchBlockers(v View, id process.ID, a *process.Activity) []process.ID {
	if s.cfg.Mode != PRED {
		return nil
	}
	svcID := s.u.intern(a.Service)
	if !anyBit(s.u.mask(svcID)) {
		return nil
	}
	var out []process.ID
	for q := range s.conflictPreds(v, id, svcID) {
		if s.lemma1Blocks(v, q, svcID) {
			out = append(out, q)
		}
	}
	return out
}

// wouldCycle reports whether adding edges from the given predecessors to
// `to` closes a cycle in the conflict graph.
func (s *State) wouldCycle(preds map[process.ID]bool, to process.ID) bool {
	// DFS from `to` over positive edges; if we reach any pred, the new
	// edge pred->to closes a cycle.
	stack := []process.ID{to}
	seen := map[process.ID]bool{}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		if n != to && preds[n] {
			return true
		}
		for k, cnt := range s.edges {
			if cnt > 0 && k[0] == n {
				stack = append(stack, k[1])
			}
		}
	}
	return false
}

// conflictPreds returns, for a prospective activity of id, the set of
// processes with an earlier effective conflicting event (executed or in
// flight). The returned map is scratch, valid until the next
// conflictPreds call on this state.
func (s *State) conflictPreds(v View, id process.ID, svcID int) map[process.ID]bool {
	preds := s.predScratch
	clear(preds)
	fc := s.forced(v)
	mask := s.u.mask(svcID)
	for svc, owners := range fc.bySvc {
		if len(owners) == 0 {
			continue
		}
		if w := svc / 64; w >= len(mask) || mask[w]&(1<<(uint(svc)%64)) == 0 {
			continue
		}
		for _, p := range owners {
			if p != id {
				preds[p] = true
			}
		}
	}
	return preds
}

// MayDispatch implements the per-activity scheduling rules for a regular
// (non-recovery) invocation of the given activity by process id. When
// denied, the returned string names the rule.
func (s *State) MayDispatch(v View, id process.ID, a *process.Activity) (bool, string) {
	switch s.cfg.Mode {
	case Serial, Conservative:
		return true, "" // admission already serialized conflicts
	}
	svcID := s.u.intern(a.Service)
	// Conflict-free services can never gain predecessors, force an
	// ordering or close a cycle — only the ablation-mode pivot gate can
	// still apply. This skips the forced-context machinery entirely for
	// the commutative bulk of a workload.
	if !anyBit(s.u.mask(svcID)) {
		if s.cfg.Mode != CCOnly && s.cfg.BlockPivots && a.Kind.NonCompensatable() && s.HasActiveConflictPred(v, id) {
			return false, "pivot blocked until predecessors terminate (ablation mode)"
		}
		return true, ""
	}
	preds := s.conflictPreds(v, id, svcID)
	if s.cfg.Mode == CCOnly {
		if len(preds) == 0 {
			return true, ""
		}
		if s.wouldCycle(preds, id) {
			return false, "serializability: edge would close a cycle"
		}
		return true, ""
	}
	// PRED: dependencies on active processes are restricted.
	for q := range preds {
		if s.lemma1Blocks(v, q, svcID) {
			return false, fmt.Sprintf("recovery: depends on active process %s (Lemma 1)", q)
		}
	}
	// The dispatch must keep the forced ordering graph of the completed
	// current schedule acyclic (prefix-reducibility, maintained
	// inductively).
	fc := s.forced(v)
	if !fc.acyclicWith(fc.newEdges(id, svcID, false)) {
		return false, "completed-schedule ordering would become cyclic"
	}
	if s.cfg.BlockPivots && a.Kind.NonCompensatable() && s.HasActiveConflictPred(v, id) {
		return false, "pivot blocked until predecessors terminate (ablation mode)"
	}
	return true, ""
}

// safeQuasiCommit reports whether q can no longer produce a recovery
// activity conflicting with the service: q is forward-recoverable and
// none of its potential recovery services conflicts (Example 10). The
// potential set is read from the round's forced context (same state
// version, so it is current).
func (s *State) safeQuasiCommit(v View, q process.ID, svcID int) bool {
	inst := v.Instance(q)
	if v.Phase(q) != Running || inst == nil || inst.Mode() != process.FREC {
		return false
	}
	return !intersects(s.forced(v).pots[q], s.u.mask(svcID))
}

// Lemma1ClearForward gates a forward-recovery invocation (StepInvoke):
// it must not conflict-follow an effective activity of an active
// process that could still need a conflicting recovery of its own
// (the "arbitrary conflicts can be introduced to S̃" hazard of
// Section 3.5). Aborting processes are waited for only through their
// queued compensations (Lemma3Clear); their remaining forward paths
// merely order against ours.
func (s *State) Lemma1ClearForward(v View, id process.ID, st process.Step) bool {
	svcID := s.u.intern(st.Service)
	if !anyBit(s.u.mask(svcID)) {
		return true
	}
	for q := range s.conflictPreds(v, id, svcID) {
		if ph := v.Phase(q); ph == Done || ph == Aborting {
			continue
		}
		if !s.safeQuasiCommit(v, q, svcID) {
			return false
		}
	}
	return true
}

// Lemma2Clear enforces the cross-process reverse order of compensations:
// the compensation of an activity executed at sequence T must wait while
// another active process still has effective conflicting work executed
// after T (that process compensates first — it is cascading).
func (s *State) Lemma2Clear(v View, id process.ID, st process.Step) bool {
	svcID := s.u.intern(st.Service)
	if !anyBit(s.u.mask(svcID)) {
		return true
	}
	baseSeq := s.BaseSeq(id, st.Local)
	for _, ev := range s.events {
		if ev.Proc == id || !ev.effective() {
			continue
		}
		if ev.Seq <= baseSeq {
			continue
		}
		if v.Phase(ev.Proc) == Done {
			continue
		}
		if s.u.conflictsID(ev.svc, svcID) {
			return false
		}
	}
	return true
}

// Lemma3Clear defers a forward-recovery invocation while another active
// process has a conflicting compensation still queued: compensations
// precede conflicting retriable activities in the completion (Lemma 3).
func (s *State) Lemma3Clear(v View, id process.ID, st process.Step) bool {
	if !anyBit(s.u.mask(s.u.intern(st.Service))) {
		return true
	}
	for _, o := range v.Procs() {
		if o == id || v.Phase(o) == Done {
			continue
		}
		for _, os := range v.RecoverySteps(o) {
			if os.Kind == process.StepCompensate && s.u.Conflicts(os.Service, st.Service) {
				return false
			}
		}
	}
	return true
}

// StepForcedClear checks a forward-recovery step against the forced
// ordering graph: wait while the step's new edges close a cycle that
// waiting can still break (some process on the cycle path is active). A
// cycle whose other participants already terminated cannot be avoided —
// the completion step must run eventually, so it proceeds.
func (s *State) StepForcedClear(v View, id process.ID, st process.Step) bool {
	svcID := s.u.intern(st.Service)
	if !anyBit(s.u.mask(svcID)) {
		return true
	}
	fc := s.forced(v)
	return fc.acyclicWithActive(fc.newEdges(id, svcID, true), func(q process.ID) bool {
		return v.Phase(q) != Done
	})
}

// DeferToAborting defers a forward-recovery step to aborting processes
// whose queued conflicting forward steps are forced before ours. When
// forced paths exist in both directions (over-approximated soft edges),
// the tie breaks by age then id, so exactly one side proceeds and the
// mutual wait cannot deadlock. It returns the process deferred to, if
// any.
func (s *State) DeferToAborting(v View, id process.ID, st process.Step) (process.ID, bool) {
	if !anyBit(s.u.mask(s.u.intern(st.Service))) {
		return "", false
	}
	fc := s.forced(v)
	for _, o := range v.Procs() {
		if o == id || v.Phase(o) != Aborting {
			continue
		}
		for _, os := range v.RecoverySteps(o) {
			if os.Kind != process.StepInvoke || !s.u.Conflicts(os.Service, st.Service) {
				continue
			}
			if !fc.pathExists(o, id) {
				continue
			}
			if fc.pathExists(id, o) {
				// Mutual: older (or lower id) goes first.
				if v.Arrival(id) < v.Arrival(o) || (v.Arrival(id) == v.Arrival(o) && id < o) {
					continue
				}
			}
			return o, true
		}
	}
	return "", false
}

// String renders one effective-history line (diagnostics).
func (ev *Event) String() string {
	if ev.Typ != schedule.Invoke {
		return fmt.Sprintf("seq=%d %s %v", ev.Seq, ev.Proc, ev.Typ)
	}
	return fmt.Sprintf("seq=%d %s/%d %s inv=%v tent=%v comp=%v erased=%v",
		ev.Seq, ev.Proc, ev.Local, ev.Service, ev.Inverse, ev.Tentative, ev.Compensated, ev.Erased)
}
