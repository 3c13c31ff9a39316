package policy

import (
	"cmp"
	"fmt"
	"slices"

	"transproc/internal/process"
	"transproc/internal/schedule"
)

// Rule names what a waiting process stands behind (scheduler.Wait), each
// with the blockers it names — except the last two, which name none, and
// why. MayDispatch denies with lemma1, pivot, forced-cycle and
// serializability:
type Rule string

const (
	RuleBusy       Rule = "busy"              // its own work in flight: the process itself
	RuleLemma1     Rule = "lemma1"            // Lemma 1 at dispatch: the active predecessors it blocks on
	RuleCommit     Rule = "commit"            // Lemma 1's 2PC commit deferral: the active conflict predecessors
	RulePivot      Rule = "pivot"             // the ablation pivot gate: the same
	RuleLemma2     Rule = "lemma2"            // a compensation behind later conflicting work: its owners
	RuleLemma3     Rule = "lemma3"            // a forward step behind queued conflicting compensations: their owners
	RuleLemma1Fwd  Rule = "lemma1fwd"         // a forward step behind predecessors that may still recover: them
	RuleDeferAbort Rule = "defer-to-aborting" // a forward step deferred to an aborting process: it
	RuleLock       Rule = "lock"              // an item lock: the live incarnation holding it
	RuleParked     Rule = "parked"            // (hub) conflicting with a parked process's remaining steps: it

	RuleForced Rule = "forced-cycle"    // the forced-order search finds that a path closes, not the cycle's processes
	RuleCycle  Rule = "serializability" // CCOnly's conflict-graph search, likewise
)

// HasActiveConflictPred reports whether any non-terminated process has
// an edge into id in the conflict graph — Lemma 1's commit-deferral
// condition.
func (s *State) HasActiveConflictPred(v View, id process.ID) bool {
	s.refresh(v)
	if n := s.lookup(id); n != nil {
		for q := range n.in {
			if q.alive {
				return true
			}
		}
	}
	return false
}

// ActiveConflictPreds lists, in admission order, the non-terminated
// processes with an edge into id — the processes a Lemma-1 commit
// deferral is waiting on. The deferral resolves only when all of them
// terminated, so the list is the AND-set of one wait-for alternative in
// the runtime's deadlock detector. The list is the State's buffer, as
// MayDispatch's blockers are.
func (s *State) ActiveConflictPreds(v View, id process.ID) []process.ID {
	s.refresh(v)
	s.blockers = s.blockers[:0]
	if n := s.lookup(id); n != nil {
		for q := range n.in {
			if q.alive {
				s.blockers = append(s.blockers, q.id)
			}
		}
	}
	return byAdmission(v, s.blockers)
}

// admission orders processes by admission rank, then id.
func admission(v View, a, b process.ID) int {
	return cmp.Or(cmp.Compare(v.Arrival(a), v.Arrival(b)), cmp.Compare(a, b))
}

// older reports whether a was admitted before b.
func older(v View, a, b process.ID) bool { return admission(v, a, b) < 0 }

// byAdmission sorts ids into admission order, the order of a wait's
// blockers.
func byAdmission(v View, ids []process.ID) []process.ID {
	slices.SortFunc(ids, func(a, b process.ID) int { return admission(v, a, b) })
	return ids
}

// lemma1Blocks is the Lemma-1 dispatch rule for one conflicting
// predecessor q of a regular activity on svc: q blocks the dispatch
// while it is active, unless it can no longer produce a recovery
// activity conflicting with the service (quasi-commit, Example 10).
func lemma1Blocks(q *node, svc int) bool {
	return q.alive && !safeQuasiCommit(q, svc)
}

// safeQuasiCommit reports whether q can no longer produce a recovery
// activity conflicting with the service: q is forward-recoverable and
// none of its potential recovery services conflicts (Example 10).
func safeQuasiCommit(q *node, svc int) bool {
	return q.phase == Running && q.frec && !testBit(q.potConf, svc)
}

// MayDispatch implements the per-activity scheduling rules for a regular
// (non-recovery) invocation of the given activity by process id. It
// returns "" when the dispatch may run, else the rule that denies it and
// the processes that must all act first, in admission order: for Lemma 1
// every active predecessor it blocks on, for the ablation pivot gate the
// active conflict predecessors, none for a forced-order or CCOnly cycle.
// The blockers are the State's buffer, valid until its next MayDispatch
// or ActiveConflictPreds.
func (s *State) MayDispatch(v View, id process.ID, a *process.Activity) (Rule, []process.ID) {
	switch s.cfg.Mode {
	case Serial, Conservative:
		return "", nil // admission already serialized conflicts
	}
	svc := s.svcID(s.lookup(id), a.Local, a.Service)
	// Conflict-free services can never gain predecessors, force an
	// ordering or close a cycle — only the ablation-mode pivot gate can
	// still apply. This skips the graph entirely for the commutative
	// bulk of a workload.
	if anyBit(s.u.mask(svc)) {
		c := s.candidate(v, id, svc)
		if s.cfg.Mode == CCOnly {
			// The new hard edges preds → c close a cycle iff c reaches one
			// of the predecessors over the edges executed so far.
			s.stack = append(s.stack, c)
			if s.search(nil, true, func(n *node) bool { return n.pred == s.epoch }) {
				return RuleCycle, nil
			}
			return "", nil
		}
		// PRED: dependencies on active processes are restricted.
		s.blockers = s.blockers[:0]
		for _, q := range s.preds {
			if lemma1Blocks(q, svc) {
				s.blockers = append(s.blockers, q.id)
			}
		}
		if len(s.blockers) > 0 {
			return RuleLemma1, byAdmission(v, s.blockers)
		}
		// The dispatch must keep the forced ordering graph of the completed
		// current schedule acyclic (prefix-reducibility, maintained
		// inductively).
		if s.closesCycle(c, svc, false) {
			return RuleForced, nil
		}
	}
	// The ablation mode's pivot gate (Config.BlockPivots).
	if s.cfg.Mode == CCOnly || !s.cfg.BlockPivots || !a.Kind.NonCompensatable() {
		return "", nil
	}
	if preds := s.ActiveConflictPreds(v, id); len(preds) > 0 {
		return RulePivot, preds
	}
	return "", nil
}

// Lemma1ForwardBlockers gates a forward-recovery invocation (StepInvoke):
// it must not conflict-follow an effective activity of an active
// process that could still need a conflicting recovery of its own
// (the "arbitrary conflicts can be introduced to S̃" hazard of
// Section 3.5). It lists those processes — the step may run once all of
// them acted — and nil when the step is clear. Aborting processes are
// waited for only through their queued compensations (Lemma3Blockers);
// their remaining forward paths merely order against ours.
func (s *State) Lemma1ForwardBlockers(v View, id process.ID, st process.Step) []process.ID {
	svc := s.svcID(s.lookup(id), st.Local, st.Service)
	if !anyBit(s.u.mask(svc)) {
		return nil
	}
	s.candidate(v, id, svc)
	var out []process.ID
	for _, q := range s.preds {
		if q.phase != Aborting && lemma1Blocks(q, svc) {
			out = append(out, q.id)
		}
	}
	return out
}

// Lemma2Blockers enforces the cross-process reverse order of
// compensations: the compensation of an activity executed at sequence T
// waits while another active process still has effective conflicting
// work executed after T (that process compensates first — it is
// cascading). It lists the owners of that work, each once; nil when the
// compensation is clear.
func (s *State) Lemma2Blockers(v View, id process.ID, st process.Step) []process.ID {
	svc := s.svcID(s.lookup(id), st.Local, st.Service)
	if !anyBit(s.u.mask(svc)) {
		return nil
	}
	s.refresh(v)
	baseSeq := s.BaseSeq(id, st.Local)
	var out []process.ID
	for _, ev := range s.conflicting(svc) {
		if ev.Proc != id && ev.Seq > baseSeq && ev.owner.alive && !slices.Contains(out, ev.Proc) {
			out = append(out, ev.Proc)
		}
	}
	return out
}

// Lemma3Blockers defers a forward-recovery invocation while other active
// processes have a conflicting compensation still queued: compensations
// precede conflicting retriable activities in the completion (Lemma 3).
// It lists those processes; nil when the step is clear.
func (s *State) Lemma3Blockers(v View, id process.ID, st process.Step) []process.ID {
	if !anyBit(s.u.mask(s.svcID(s.lookup(id), st.Local, st.Service))) {
		return nil
	}
	s.refresh(v)
	var out []process.ID
	for _, o := range s.live {
		if o.id == id {
			continue
		}
		for _, os := range v.RecoverySteps(o.id) {
			if os.Kind == process.StepCompensate && s.u.Conflicts(os.Service, st.Service) {
				out = append(out, o.id)
				break
			}
		}
	}
	return out
}

// StepForcedClear checks a forward-recovery step against the forced
// ordering graph: wait while the step's new edges close a cycle that
// waiting can still break (some process on the cycle is active). Every
// such cycle runs through the stepping process itself, which is active,
// so any cycle is a reason to wait.
func (s *State) StepForcedClear(v View, id process.ID, st process.Step) bool {
	svc := s.svcID(s.lookup(id), st.Local, st.Service)
	if !anyBit(s.u.mask(svc)) {
		return true
	}
	return !s.closesCycle(s.candidate(v, id, svc), svc, true)
}

// DeferToAborting defers a forward-recovery step to aborting processes
// whose queued conflicting forward steps are forced before ours. When
// forced paths exist in both directions (over-approximated soft edges),
// the tie breaks by age then id, so exactly one side proceeds and the
// mutual wait cannot deadlock. It returns the process deferred to, if
// any.
func (s *State) DeferToAborting(v View, id process.ID, st process.Step) (process.ID, bool) {
	if !anyBit(s.u.mask(s.svcID(s.lookup(id), st.Local, st.Service))) {
		return "", false
	}
	s.refresh(v)
	c := s.node(id)
	for _, o := range s.live {
		if o == c || o.phase != Aborting {
			continue
		}
		for _, os := range v.RecoverySteps(o.id) {
			if os.Kind != process.StepInvoke || !s.u.Conflicts(os.Service, st.Service) {
				continue
			}
			if !s.pathExists(o, c) {
				continue
			}
			// Mutual: older (or lower id) goes first.
			if s.pathExists(c, o) && older(v, id, o.id) {
				continue
			}
			return o.id, true
		}
	}
	return "", false
}

// String renders one record line (diagnostics).
func (ev *Event) String() string {
	if ev.Typ != schedule.Invoke {
		return fmt.Sprintf("seq=%d %s %v", ev.Seq, ev.Proc, ev.Typ)
	}
	return fmt.Sprintf("seq=%d %s/%d %s inv=%v tent=%v comp=%v erased=%v",
		ev.Seq, ev.Proc, ev.Local, ev.Service, ev.Inverse, ev.Tentative, ev.Compensated, ev.Erased)
}
