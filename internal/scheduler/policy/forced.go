package policy

import (
	"math/bits"
	"slices"

	"transproc/internal/process"
)

// node is one process in the forced-order graph of the completed current
// schedule. Its edges are the *forced* orderings: conflicts between
// surviving executed activities (hard edges, materialised with reference
// counts), and conflicts between a surviving activity and a potential
// completion activity of a live process (soft edges: completion
// activities are appended after everything executed, so such a conflict
// forces the executed activity's process before the live one). Soft
// edges are not stored; soft tests one from the two bitsets involved.
// Prefix-reducibility is maintained inductively by refusing any dispatch
// whose new forced edges would close a cycle — the operational form of
// "the completed process schedule S̃ has always to be considered"
// (Section 3.5).
type node struct {
	id process.ID

	// History-derived. events are the process's effective events
	// (invocations neither erased, compensated nor inverse) in history
	// order and surv the set of their services; in counts, per hard
	// predecessor, the event pairs behind the edge (entries are
	// positive) and out is the set of hard successors.
	events     []*Event
	surv       []uint64
	in         map[*node]int
	out        map[*node]struct{}
	terminated bool // its Terminate event is in the record
	pruned     bool // it left the graph

	// View-derived, for a process the view reports live (alive) and
	// zero otherwise. flight is the set of its in-flight services —
	// survivors too: they will commit (or vanish atomically) and their
	// pending conflict edges must be visible to concurrent decisions.
	// potConf is the set of services conflicting with a potential
	// completion: the potential recovery set of a running process, the
	// queued forward steps of an aborting one. frec says a running
	// process is forward-recoverable. potInst and potGen key the cached
	// potConf and frec of a running process.
	alive   bool
	moved   bool // on State.moved
	phase   Phase
	frec    bool
	flight  []uint64
	potConf []uint64
	potInst *process.Instance
	potGen  uint64
	// def is the definition of the process's instance, once the view
	// showed it; ids holds the interned id of each of its activities'
	// services (even index) and compensations (odd), plus one, filled
	// as they are needed: a process interns a name once.
	def *process.Process
	ids []int32

	// seen and pred equal State.epoch when the current search visited
	// the node, and when it is a conflict predecessor of the candidate.
	seen, pred uint64
}

// node returns the graph node of a process, creating it on first sight.
func (s *State) node(id process.ID) *node {
	n := s.lookup(id)
	if n == nil {
		if s.nodes == nil {
			s.nodes = make(map[process.ID]*node)
		}
		n = &node{id: id}
		s.nodes[id] = n
		s.last = n
	}
	return n
}

// lookup returns the graph node of a process, or nil. It keeps the last
// node it found: a host names one process several times in a row — its
// decision, its dispatch, its event.
func (s *State) lookup(id process.ID) *node {
	if n := s.last; n != nil && n.id == id {
		return n
	}
	n := s.nodes[id]
	if n != nil {
		s.last = n
	}
	return n
}

// learn points n's interned ids at def, its instance's definition.
func (n *node) learn(def *process.Process) {
	if n.def != def {
		n.def = def
		n.ids = slices.Grow(n.ids[:0], 2*def.Len())[:2*def.Len()]
		clear(n.ids)
	}
}

// actID is the interned id of the service of the activity at position i
// of n's definition, or of its compensation when comp.
func (s *State) actID(n *node, i int, comp bool) int {
	k := 2 * i
	if comp {
		k++
	}
	if id := n.ids[k]; id > 0 {
		return int(id - 1)
	}
	a := n.def.ActivityAt(i)
	name := a.Service
	if comp {
		name = a.Compensation
	}
	id := s.u.intern(name)
	n.ids[k] = int32(id + 1)
	return id
}

// svcID interns name, the service of activity local of process n or its
// compensation, through n's ids when n knows its definition.
func (s *State) svcID(n *node, local int, name string) int {
	if n != nil && n.def != nil {
		if i, ok := n.def.Pos(local); ok {
			switch a := n.def.ActivityAt(i); name {
			case a.Service:
				return s.actID(n, i, false)
			case a.Compensation:
				return s.actID(n, i, true)
			}
		}
	}
	return s.u.intern(name)
}

// addEdge counts one more event pair ordering a before b.
func (s *State) addEdge(a, b *node) {
	if a == b {
		return
	}
	if b.in == nil {
		b.in = make(map[*node]int)
	}
	if a.out == nil {
		a.out = make(map[*node]struct{})
	}
	b.in[a]++
	a.out[b] = struct{}{}
}

// conflicting collects the effective events of every service that
// conflicts with svc. The result is scratch, valid until the next call.
func (s *State) conflicting(svc int) []*Event {
	out := s.evBuf[:0]
	for w, word := range s.u.mask(svc) {
		for ; word != 0; word &= word - 1 {
			if other := w<<6 + bits.TrailingZeros64(word); other < len(s.bySvc) {
				out = append(out, s.bySvc[other]...)
			}
		}
	}
	s.evBuf = out
	return out
}

// enter lists an effective event under its process and its service.
func (s *State) enter(n *node, ev *Event) {
	ev.owner = n
	n.events = append(n.events, ev)
	n.surv = setBit(n.surv, ev.svc)
	for len(s.bySvc) <= ev.svc {
		s.bySvc = append(s.bySvc, nil)
	}
	ev.slot = len(s.bySvc[ev.svc])
	s.bySvc[ev.svc] = append(s.bySvc[ev.svc], ev)
}

// unindex takes an event out of its service's list.
func (s *State) unindex(ev *Event) {
	list := s.bySvc[ev.svc]
	last := list[len(list)-1]
	list[ev.slot], last.slot = last, ev.slot
	list[len(list)-1] = nil
	s.bySvc[ev.svc] = list[:len(list)-1]
}

// removeEventEdges releases the edges an event (already out of the
// index) contributed when it is erased (rollback) or compensated. A
// process left without predecessors goes onto s.work for prune.
func (s *State) removeEventEdges(ev *Event) {
	for _, old := range s.conflicting(ev.svc) {
		if old.owner == ev.owner {
			continue
		}
		from, to := old.owner, ev.owner
		if old.Seq >= ev.Seq {
			from, to = to, from
		}
		switch c := to.in[from]; {
		case c > 1:
			to.in[from] = c - 1
		case c == 1:
			delete(to.in, from)
			delete(from.out, to)
			s.work = append(s.work, to)
		}
	}
}

// prune is the node-deletion rule of serialization-graph testing, applied
// to the nodes on s.work and in cascade to their successors: a process
// whose Terminate event is in the record and that no unpruned process
// precedes leaves the graph and the survivor index, with its out-edges.
//
// It is safe because a terminated process never gains an in-edge again —
// a hard one needs it to append an event, a soft one needs it to have
// potential completions — so it can never lie on a cycle, and every
// path between two unpruned processes runs only through processes with
// an unpruned ancestor. As a conflict predecessor it is Done, which
// Lemma 1, 2 and 3 ignore already. History seeded without Terminate
// events (restart recovery, SeedSummary stand-ins) is never pruned.
func (s *State) prune() {
	for len(s.work) > 0 {
		t := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		if !t.terminated || len(t.in) > 0 || t.pruned {
			continue
		}
		t.pruned = true
		delete(s.nodes, t.id)
		if s.last == t {
			s.last = nil
		}
		for _, ev := range t.events {
			s.unindex(ev)
		}
		for m := range t.out {
			delete(m.in, t)
			s.work = append(s.work, m)
		}
		t.events, t.out = nil, nil
	}
}

// refresh brings the view-derived half up to date on the first decision
// after a change: it reads the new entries of v.Procs() that are not
// Done and re-reads the live processes Bump and AppendEvent named (all
// of them after SeedSummary) — phase, in-flight services and potential
// completions — dropping the ones that turned Done.
func (s *State) refresh(v View) {
	procs := v.Procs()
	if !s.all && len(s.moved) == 0 && s.cursor == len(procs) {
		return
	}
	dropped := false
	if s.all {
		for _, n := range s.live {
			dropped = !s.read(v, n, v.Phase(n.id)) || dropped
		}
	} else {
		for _, n := range s.moved {
			dropped = !s.read(v, n, v.Phase(n.id)) || dropped
		}
	}
	for _, n := range s.moved {
		n.moved = false
	}
	s.moved, s.all = s.moved[:0], false
	for ; s.cursor < len(procs); s.cursor++ {
		id := procs[s.cursor]
		if ph := v.Phase(id); ph != Done {
			n := s.node(id)
			s.read(v, n, ph)
			s.live = append(s.live, n)
		}
	}
	if dropped {
		s.live = slices.DeleteFunc(s.live, func(n *node) bool { return !n.alive })
	}
}

// read sets the view-derived fields of n from phase ph and reports
// whether n is live.
func (s *State) read(v View, n *node, ph Phase) bool {
	if ph == Done {
		n.alive, n.frec, n.potInst = false, false, nil
		n.flight, n.potConf = n.flight[:0], n.potConf[:0]
		return false
	}
	n.alive, n.phase = true, ph
	n.flight = n.flight[:0]
	for _, svc := range v.InFlight(n.id) {
		n.flight = setBit(n.flight, s.u.intern(svc))
	}
	s.readPotentials(v, n, ph)
	return true
}

// readPotentials sets n.potConf and n.frec. A running process's potential
// recovery set is a function of its instance's status vector, so it is
// recomputed only when that changed.
func (s *State) readPotentials(v View, n *node, ph Phase) {
	inst := v.Instance(n.id)
	if inst != nil {
		n.learn(inst.Process())
	}
	if ph == Aborting {
		inst = nil
	}
	if inst != nil && inst == n.potInst && inst.StatusGen() == n.potGen {
		return
	}
	n.potInst, n.frec, n.potConf = inst, false, n.potConf[:0]
	switch {
	case ph == Aborting:
		for _, st := range v.RecoverySteps(n.id) {
			if st.Kind == process.StepInvoke {
				n.potConf = orInto(n.potConf, s.u.mask(s.svcID(n, st.Local, st.Service)))
			}
		}
	case inst != nil:
		n.potGen, n.frec = inst.StatusGen(), inst.Mode() == process.FREC
		for i, comp := range inst.PotentialRecoverySeq() {
			n.potConf = orInto(n.potConf, s.u.mask(s.actID(n, i, comp)))
		}
	}
}

// soft reports the soft edge p → q: a surviving activity of p, executed
// or in flight, conflicts with a potential completion of the live q.
func soft(p, q *node) bool {
	return p != q && (intersects(q.potConf, p.surv) || intersects(q.potConf, p.flight))
}

// begin starts the bookkeeping of one decision: no node is seen or marked
// a predecessor, the search stack is empty.
func (s *State) begin() {
	s.epoch++
	s.stack = s.stack[:0]
}

// candidate opens the decision on a dispatch of service svc by process
// id: it brings the view half up to date and collects into s.preds —
// marking them — the processes with a surviving conflicting activity,
// executed or in flight: the sources of the hard edges the dispatch
// would add.
func (s *State) candidate(v View, id process.ID, svc int) *node {
	s.refresh(v)
	s.begin()
	c := s.node(id)
	s.preds = s.preds[:0]
	for _, ev := range s.conflicting(svc) {
		s.addPred(c, ev.owner)
	}
	mask := s.u.mask(svc)
	for _, q := range s.live {
		if intersects(q.flight, mask) {
			s.addPred(c, q)
		}
	}
	return c
}

// addPred marks p a conflict predecessor of the candidate c, once.
func (s *State) addPred(c, p *node) {
	if p != c && p.pred != s.epoch {
		p.pred = s.epoch
		s.preds = append(s.preds, p)
	}
}

// successors lists the live processes whose potential completions
// conflict with service svc — the targets of the soft edges a dispatch
// of svc would add. A queued forward-recovery step (isStep) takes none
// towards other *aborting* processes: the relative order of two queued
// forward steps is free and realized by actual execution order.
func (s *State) successors(c *node, svc int, isStep bool, out []*node) []*node {
	for _, q := range s.live {
		if q != c && !(isStep && q.phase == Aborting) && testBit(q.potConf, svc) {
			out = append(out, q)
		}
	}
	return out
}

// search runs the one depth-first search of the package: from the nodes
// on s.stack over hard edges and — unless hardOnly — soft edges, never
// entering avoid, until it pops a node hit accepts. Nodes seen earlier in
// the same decision are not revisited.
func (s *State) search(avoid *node, hardOnly bool, hit func(*node) bool) bool {
	for len(s.stack) > 0 {
		n := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if n == avoid || n.seen == s.epoch {
			continue
		}
		n.seen = s.epoch
		if hit(n) {
			return true
		}
		for m := range n.out {
			s.stack = append(s.stack, m)
		}
		if hardOnly || !(anyBit(n.surv) || anyBit(n.flight)) {
			continue
		}
		for _, q := range s.live {
			if q.seen != s.epoch && soft(n, q) {
				s.stack = append(s.stack, q)
			}
		}
	}
	return false
}

// closesCycle reports whether the forced edges a dispatch of svc by c
// would add — preds → c, collected by candidate, and c → successors —
// close a cycle through one of themselves. The graph contains
// conservative soft edges (conflicts with *potential* completions); such
// over-approximated edges may already form phantom cycles among other
// processes, which must not veto unrelated dispatches — only a cycle
// that the candidate's own edges participate in is a reason to deny.
//
// Every new edge is incident on c, so one pass decides: a new edge c → q
// closes a cycle iff q reaches, without passing c, a process with an
// edge into c, old or new; a new edge p → c closes one iff a successor
// of c, old or new, reaches p without passing c. The second half skips
// what the first has seen: nothing there reaches a predecessor.
func (s *State) closesCycle(c *node, svc int, isStep bool) bool {
	isPred := func(n *node) bool { return n.pred == s.epoch }
	s.stack = s.successors(c, svc, isStep, s.stack)
	if s.search(c, false, func(n *node) bool { return isPred(n) || c.in[n] > 0 || soft(n, c) }) {
		return true
	}
	if len(s.preds) == 0 {
		return false
	}
	for m := range c.out {
		s.stack = append(s.stack, m)
	}
	for _, q := range s.live {
		if soft(c, q) {
			s.stack = append(s.stack, q)
		}
	}
	return s.search(c, false, isPred)
}

// pathExists reports whether a forced path from a to b exists.
func (s *State) pathExists(a, b *node) bool {
	s.begin()
	s.stack = append(s.stack, a)
	return s.search(nil, false, func(n *node) bool { return n == b })
}
