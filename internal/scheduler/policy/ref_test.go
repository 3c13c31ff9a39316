package policy

import (
	"fmt"
	"slices"

	"transproc/internal/process"
	"transproc/internal/schedule"
)

// refState is the test oracle of the incremental State: the decision
// state as it was before the forced-order graph was maintained in place.
// It keeps the whole history, scans all of it in AppendEvent and
// removeEventEdges, rebuilds the forced context (newForcedCtx) after
// every Bump and runs one depth-first search per candidate edge.
// TestIncrementalMatchesReference holds State to its answers.
type refState struct {
	cfg    Config
	u      *universe
	events []*Event
	edges  map[[2]process.ID]int

	version     int64
	fctx        *refForcedCtx
	fctxVersion int64

	predScratch map[process.ID]bool
}

func newRefState(u *universe, cfg Config) *refState {
	return &refState{cfg: cfg, u: u, edges: make(map[[2]process.ID]int), predScratch: make(map[process.ID]bool)}
}

func (s *refState) Bump() { s.version++ }

// effective reports whether the event currently contributes
// conflict-graph edges.
func (ev *Event) effective() bool {
	return ev.Typ == schedule.Invoke && !ev.Erased && !ev.Compensated && !ev.Inverse
}

// AppendEvent records an effective event (Seq set by the caller) and
// adds its conflict-graph edges against all earlier effective events.
// Inverse (compensating) events never contribute edges: the pair
// ⟨a a⁻¹⟩ is effect-free, and the Lemma-2 dispatch guard already
// verified no conflicting later work of another process exists before
// the compensation ran.
func (s *refState) AppendEvent(ev *Event) {
	ev.svc = -1
	if ev.Typ == schedule.Invoke && ev.Service != "" {
		ev.svc = s.u.intern(ev.Service)
	}
	if ev.Typ == schedule.Invoke && !ev.Inverse {
		for _, old := range s.events {
			if !old.effective() || old.Proc == ev.Proc {
				continue
			}
			if s.u.conflictsID(old.svc, ev.svc) {
				s.addEdge(old.Proc, ev.Proc)
			}
		}
	}
	s.events = append(s.events, ev)
	s.Bump()
}

func (s *refState) addEdge(a, b process.ID) {
	if a == b {
		return
	}
	s.edges[[2]process.ID{a, b}]++
}

// removeEventEdges decrements the edges an event contributed when it is
// erased (rollback) or compensated.
func (s *refState) removeEventEdges(ev *Event) {
	for _, old := range s.events {
		if old == ev || !old.effective() || old.Proc == ev.Proc {
			continue
		}
		if s.u.conflictsID(old.svc, ev.svc) {
			var key [2]process.ID
			if old.Seq < ev.Seq {
				key = [2]process.ID{old.Proc, ev.Proc}
			} else {
				key = [2]process.ID{ev.Proc, old.Proc}
			}
			if s.edges[key] > 0 {
				s.edges[key]--
			}
		}
	}
	s.Bump()
}

// EraseTentative erases the live tentative event of (proc, local) —
// a rolled-back prepared invocation — removing its edges. It reports
// whether an event was erased.
func (s *refState) EraseTentative(proc process.ID, local int) bool {
	erased := false
	for _, ev := range s.events {
		if ev.Proc == proc && ev.Local == local && ev.Tentative && !ev.Erased {
			ev.Erased = true
			s.removeEventEdges(ev)
			erased = true
		}
	}
	return erased
}

// MarkCompensated marks the live base invocation of (proc, local) as
// compensated; it stops contributing conflict edges.
func (s *refState) MarkCompensated(proc process.ID, local int) {
	for _, ev := range s.events {
		if ev.Proc == proc && ev.Local == local && !ev.Inverse && !ev.Compensated && !ev.Erased && ev.Typ == schedule.Invoke {
			ev.Compensated = true
			s.removeEventEdges(ev)
		}
	}
}

// FinalizeTentative commits a tentative event at 2PC time: the activity
// joins the observed schedule at its *commit* point, not its prepare
// point — a prefix cut between prepare and commit must not contain it
// (the subsystem's locks guarantee no conflicting activity ran in
// between, so moving it is conflict-order preserving). The event is
// re-sequenced to newSeq and moved to the end of the history.
func (s *refState) FinalizeTentative(proc process.ID, local int, newSeq int64) bool {
	for i, ev := range s.events {
		if ev.Proc == proc && ev.Local == local && ev.Tentative && !ev.Erased {
			ev.Tentative = false
			ev.Seq = newSeq
			s.events = append(append(s.events[:i:i], s.events[i+1:]...), ev)
			s.Bump()
			return true
		}
	}
	return false
}

// BaseSeq returns the history sequence of the live (non-erased,
// non-compensated) base invocation of (proc, local), or 0 when none
// exists. It identifies the position T of Lemma 2's "activity executed
// at T".
func (s *refState) BaseSeq(proc process.ID, local int) int64 {
	var seq int64
	for _, ev := range s.events {
		if ev.Proc == proc && ev.Local == local && ev.Typ == schedule.Invoke &&
			!ev.Inverse && !ev.Erased && !ev.Compensated {
			seq = ev.Seq
		}
	}
	return seq
}

// refForcedCtx captures, for one dispatch round, the *forced* ordering
// edges of the completed current schedule: conflicts between surviving
// executed activities, and conflicts between a surviving executed
// activity and a potential completion activity of an active process
// (completion activities are appended after everything executed, so such
// a conflict forces the executed activity's process before the active
// one). Prefix-reducibility is maintained inductively by refusing any
// dispatch whose new forced edges would close a cycle — the operational
// form of "the completed process schedule S̃ has always to be considered"
// (Section 3.5).
//
// The context and its maps are reused across rebuilds (a State is
// driven from one goroutine at a time), and all conflict tests run on
// interned service ids and bitset masks.
type refForcedCtx struct {
	s *refState
	// pots maps each non-terminated process to the bitset of services
	// its future completions might still invoke. For running processes
	// this is the potential recovery set; for aborting processes the
	// services of their queued forward steps.
	pots map[process.ID][]uint64
	// bySvc indexes the surviving effective activities (executed and
	// not compensated/erased, plus in-flight invocations) by interned
	// service id: bySvc[svc] lists the owning processes (deduplicated).
	bySvc [][]process.ID
	// edges is the forced edge set.
	edges map[[2]process.ID]bool
	// phase snapshots the view's phases at build time (for newEdges'
	// aborting-process exemption).
	phase map[process.ID]Phase

	// adj is the adjacency form of edges, built lazily on the first
	// reachability query of the round.
	adj map[process.ID][]process.ID

	// per-query scratch.
	edgeBuf   [][2]process.ID
	stack     []process.ID
	seen      map[process.ID]bool
	maskAlloc []uint64 // bump allocator for pot masks
}

// forced returns the current round's forced-graph context, rebuilt when
// the state version moved since the cached one.
func (s *refState) forced(v View) *refForcedCtx {
	if s.fctx == nil || s.fctxVersion != s.version {
		s.fctx = s.newForcedCtx(v)
		s.fctxVersion = s.version
	}
	return s.fctx
}

// newForcedCtx builds the round context from the view, reusing the
// previous round's allocations.
func (s *refState) newForcedCtx(v View) *refForcedCtx {
	f := s.fctx
	if f == nil {
		f = &refForcedCtx{
			s:     s,
			pots:  make(map[process.ID][]uint64),
			edges: make(map[[2]process.ID]bool),
			phase: make(map[process.ID]Phase),
			seen:  make(map[process.ID]bool),
		}
	} else {
		clear(f.pots)
		clear(f.edges)
		clear(f.phase)
		f.adj = nil
	}
	for i := range f.bySvc {
		f.bySvc[i] = f.bySvc[i][:0]
	}
	f.maskAlloc = f.maskAlloc[:0]

	procs := v.Procs()
	words := (s.u.rel.Len() + len(s.u.extra) + 63) / 64
	for _, id := range procs {
		ph := v.Phase(id)
		f.phase[id] = ph
		switch ph {
		case Running:
			if inst := v.Instance(id); inst != nil {
				f.pots[id] = f.newMask(inst.PotentialRecoveryServices(), words)
			}
		case Aborting:
			m := f.blankMask(words)
			for _, st := range v.RecoverySteps(id) {
				if st.Kind == process.StepInvoke {
					m = setBit(m, s.u.intern(st.Service))
				}
			}
			f.pots[id] = m
		}
	}
	for _, ev := range s.events {
		if !ev.effective() {
			continue
		}
		f.addSurvivor(ev.Proc, ev.svc)
	}
	// In-flight invocations participate as survivors: they will commit
	// (or vanish atomically) and their pending conflict edges must be
	// visible to concurrent dispatch decisions.
	for _, id := range procs {
		for _, svc := range v.InFlight(id) {
			f.addSurvivor(id, s.u.intern(svc))
		}
	}
	// Executed-executed edges.
	for k, n := range s.edges {
		if n > 0 {
			f.edges[k] = true
		}
	}
	// Executed-vs-potential-completion edges, computed per distinct
	// (survivor service, process potential) pair.
	for svc, owners := range f.bySvc {
		if len(owners) == 0 {
			continue
		}
		mask := s.u.mask(svc)
		for q, pot := range f.pots {
			if !intersects(pot, mask) {
				continue
			}
			for _, p := range owners {
				if p != q {
					f.edges[[2]process.ID{p, q}] = true
				}
			}
		}
	}
	return f
}

// blankMask hands out a zeroed bitset of the given word count from the
// round's bump allocator.
func (f *refForcedCtx) blankMask(words int) []uint64 {
	n := len(f.maskAlloc)
	if cap(f.maskAlloc)-n < words {
		f.maskAlloc = make([]uint64, 0, 64+words)
		n = 0
	}
	f.maskAlloc = f.maskAlloc[:n+words]
	m := f.maskAlloc[n : n+words : n+words]
	for i := range m {
		m[i] = 0
	}
	return m
}

// newMask interns a service-name set into a bitset.
func (f *refForcedCtx) newMask(set map[string]bool, words int) []uint64 {
	m := f.blankMask(words)
	for svc := range set {
		m = setBit(m, f.s.u.intern(svc))
	}
	return m
}

// addSurvivor records a surviving effective activity owner under its
// service id, deduplicating owners.
func (f *refForcedCtx) addSurvivor(proc process.ID, svc int) {
	for len(f.bySvc) <= svc {
		f.bySvc = append(f.bySvc, nil)
	}
	owners := f.bySvc[svc]
	for _, p := range owners {
		if p == proc {
			return
		}
	}
	f.bySvc[svc] = append(owners, proc)
}

// newEdges computes the forced edges a dispatch of service by proc would
// add. When the dispatch is a queued forward-recovery step, potential
// sets of other *aborting* processes do not force edges (the relative
// order of two queued forward steps is free and realized by actual
// execution order). The returned slice is scratch, valid until the next
// newEdges call on this context.
func (f *refForcedCtx) newEdges(proc process.ID, svcID int, isStep bool) [][2]process.ID {
	out := f.edgeBuf[:0]
	mask := f.s.u.mask(svcID)
	for svc, owners := range f.bySvc {
		if len(owners) == 0 {
			continue
		}
		if w := svc / 64; w >= len(mask) || mask[w]&(1<<(uint(svc)%64)) == 0 {
			continue
		}
		for _, p := range owners {
			if p != proc {
				out = append(out, [2]process.ID{p, proc})
			}
		}
	}
	for q, pot := range f.pots {
		if q == proc {
			continue
		}
		if isStep && f.phase[q] == Aborting {
			continue
		}
		if intersects(pot, mask) {
			out = append(out, [2]process.ID{proc, q})
		}
	}
	f.edgeBuf = out
	return out
}

// ensureAdj materializes the adjacency form of the forced edges.
func (f *refForcedCtx) ensureAdj() {
	if f.adj != nil {
		return
	}
	f.adj = make(map[process.ID][]process.ID, len(f.edges))
	for k := range f.edges {
		if k[0] != k[1] {
			f.adj[k[0]] = append(f.adj[k[0]], k[1])
		}
	}
}

// reaches reports whether `to` is reachable from `from` over the forced
// edges plus the extra edge list.
func (f *refForcedCtx) reaches(from, to process.ID, extra [][2]process.ID) bool {
	f.ensureAdj()
	clear(f.seen)
	stack := append(f.stack[:0], from)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			f.stack = stack
			return true
		}
		if f.seen[n] {
			continue
		}
		f.seen[n] = true
		stack = append(stack, f.adj[n]...)
		for _, k := range extra {
			if k[0] == n && k[1] != n {
				stack = append(stack, k[1])
			}
		}
	}
	f.stack = stack
	return false
}

// acyclicWith reports whether none of the given new edges closes a
// cycle through itself in (base ∪ extra). The base contains
// conservative soft edges (conflicts with *potential* completions);
// such over-approximated edges may already form phantom cycles among
// other processes, which must not veto unrelated dispatches — only a
// cycle that the candidate's own edges participate in is a reason to
// deny.
func (f *refForcedCtx) acyclicWith(extra [][2]process.ID) bool {
	if len(extra) == 0 {
		return true
	}
	for _, k := range extra {
		if k[0] == k[1] {
			continue
		}
		if f.reaches(k[1], k[0], extra) {
			return false
		}
	}
	return true
}

// acyclicWithActive is acyclicWith, but a cycle only counts when at
// least one process on the closing path satisfies isActive — cycles
// consisting entirely of terminated processes cannot be avoided by
// waiting.
func (f *refForcedCtx) acyclicWithActive(extra [][2]process.ID, isActive func(process.ID) bool) bool {
	if len(extra) == 0 {
		return true
	}
	f.ensureAdj()
	neighbors := func(n process.ID, visit func(process.ID)) {
		for _, m := range f.adj[n] {
			visit(m)
		}
		for _, k := range extra {
			if k[0] == n && k[1] != n {
				visit(k[1])
			}
		}
	}
	for _, k := range extra {
		if k[0] == k[1] {
			continue
		}
		// DFS from k[1] to k[0]; remember whether any intermediate (or
		// the endpoints) are active.
		type node struct {
			id        process.ID
			sawActive bool
		}
		start := node{k[1], isActive(k[1]) || isActive(k[0])}
		stack := []node{start}
		best := make(map[process.ID]int) // 0 unseen, 1 seen-inactive, 2 seen-active
		closed := false
		for len(stack) > 0 && !closed {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			level := 1
			if n.sawActive {
				level = 2
			}
			if best[n.id] >= level {
				continue
			}
			best[n.id] = level
			if n.id == k[0] && n.sawActive {
				closed = true
				break
			}
			neighbors(n.id, func(m process.ID) {
				stack = append(stack, node{m, n.sawActive || isActive(m)})
			})
		}
		if closed {
			return false
		}
	}
	return true
}

// pathExists reports whether a forced path from a to b exists.
func (f *refForcedCtx) pathExists(a, b process.ID) bool {
	return f.reaches(a, b, nil)
}

// activePreds calls yield for each non-terminated process with an edge
// into id in the conflict graph, in arbitrary order, until yield returns
// false.
func (s *refState) activePreds(v View, id process.ID, yield func(process.ID) bool) {
	for k, n := range s.edges {
		if n > 0 && k[1] == id && v.Phase(k[0]) != Done && !yield(k[0]) {
			return
		}
	}
}

// HasActiveConflictPred reports whether any non-terminated process has
// an edge into id in the conflict graph — Lemma 1's commit-deferral
// condition.
func (s *refState) HasActiveConflictPred(v View, id process.ID) bool {
	found := false
	s.activePreds(v, id, func(process.ID) bool { found = true; return false })
	return found
}

// FirstActivePred names the oldest active conflicting predecessor of id.
func (s *refState) FirstActivePred(v View, id process.ID) string {
	var first process.ID
	s.activePreds(v, id, func(q process.ID) bool {
		if first == "" || older(v, q, first) {
			first = q
		}
		return true
	})
	return string(first)
}

// lemma1Blocks is the Lemma-1 dispatch rule for one conflicting
// predecessor q of a regular activity on svcID: q blocks the dispatch
// while it is active, unless it can no longer produce a recovery
// activity conflicting with the service (quasi-commit, Example 10).
func (s *refState) lemma1Blocks(v View, q process.ID, svcID int) bool {
	return v.Phase(q) != Done && !s.safeQuasiCommit(v, q, svcID)
}

// DispatchBlockers lists the active predecessors on which MayDispatch's
// Lemma-1 rule denies a regular dispatch of a by id: the processes that
// must all terminate (or become exempt by acting) before the activity
// can run. An empty result means the denial — if any — came from a rule
// without pred-wait semantics (forced-order acyclicity, the ablation
// pivot gate, or a non-PRED mode), so the caller has no edge information
// and must fall back to quiescence-based stall handling.
func (s *refState) DispatchBlockers(v View, id process.ID, a *process.Activity) []process.ID {
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
func (s *refState) wouldCycle(preds map[process.ID]bool, to process.ID) bool {
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
func (s *refState) conflictPreds(v View, id process.ID, svcID int) map[process.ID]bool {
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
func (s *refState) MayDispatch(v View, id process.ID, a *process.Activity) (bool, string) {
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
	var blocker process.ID
	for q := range preds {
		if s.lemma1Blocks(v, q, svcID) && (blocker == "" || older(v, q, blocker)) {
			blocker = q
		}
	}
	if blocker != "" {
		return false, fmt.Sprintf("recovery: depends on active process %s (Lemma 1)", blocker)
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
func (s *refState) safeQuasiCommit(v View, q process.ID, svcID int) bool {
	inst := v.Instance(q)
	if v.Phase(q) != Running || inst == nil || inst.Mode() != process.FREC {
		return false
	}
	return !intersects(s.forced(v).pots[q], s.u.mask(svcID))
}

// Lemma1ForwardBlockers gates a forward-recovery invocation (StepInvoke):
// it must not conflict-follow an effective activity of an active
// process that could still need a conflicting recovery of its own
// (the "arbitrary conflicts can be introduced to S̃" hazard of
// Section 3.5); it lists those processes. Aborting processes are waited
// for only through their queued compensations (Lemma3Blockers); their
// remaining forward paths merely order against ours.
func (s *refState) Lemma1ForwardBlockers(v View, id process.ID, st process.Step) []process.ID {
	svcID := s.u.intern(st.Service)
	if !anyBit(s.u.mask(svcID)) {
		return nil
	}
	var out []process.ID
	for q := range s.conflictPreds(v, id, svcID) {
		if ph := v.Phase(q); ph == Done || ph == Aborting {
			continue
		}
		if !s.safeQuasiCommit(v, q, svcID) {
			out = append(out, q)
		}
	}
	return out
}

// Lemma2Blockers enforces the cross-process reverse order of
// compensations: the compensation of an activity executed at sequence T
// must wait while another active process still has effective
// conflicting work executed after T (that process compensates first — it
// is cascading); it lists those processes.
func (s *refState) Lemma2Blockers(v View, id process.ID, st process.Step) []process.ID {
	svcID := s.u.intern(st.Service)
	if !anyBit(s.u.mask(svcID)) {
		return nil
	}
	baseSeq := s.BaseSeq(id, st.Local)
	var out []process.ID
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
		if s.u.conflictsID(ev.svc, svcID) && !slices.Contains(out, ev.Proc) {
			out = append(out, ev.Proc)
		}
	}
	return out
}

// Lemma3Blockers defers a forward-recovery invocation while other active
// processes have a conflicting compensation still queued: compensations
// precede conflicting retriable activities in the completion (Lemma 3).
// It lists those processes.
func (s *refState) Lemma3Blockers(v View, id process.ID, st process.Step) []process.ID {
	if !anyBit(s.u.mask(s.u.intern(st.Service))) {
		return nil
	}
	var out []process.ID
	for _, o := range v.Procs() {
		if o == id || v.Phase(o) == Done {
			continue
		}
		for _, os := range v.RecoverySteps(o) {
			if os.Kind == process.StepCompensate && s.u.Conflicts(os.Service, st.Service) {
				out = append(out, o)
				break
			}
		}
	}
	return out
}

// StepForcedClear checks a forward-recovery step against the forced
// ordering graph: wait while the step's new edges close a cycle that
// waiting can still break (some process on the cycle path is active). A
// cycle whose other participants already terminated cannot be avoided —
// the completion step must run eventually, so it proceeds.
func (s *refState) StepForcedClear(v View, id process.ID, st process.Step) bool {
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
func (s *refState) DeferToAborting(v View, id process.ID, st process.Step) (process.ID, bool) {
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
