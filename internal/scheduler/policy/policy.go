// Package policy implements the pure PRED scheduling decisions of the
// paper, factored out of any particular execution engine: the effective
// event history and process conflict graph, the forced-ordering context
// that maintains prefix-reducibility inductively, Lemma 1's commit
// deferral condition, the quasi-commit exploitation of Example 10 and
// the Lemma 2/3 ordering of compensations and forward-recovery steps.
//
// The protocol driver (scheduler.Driver) calls this layer for all of its
// hosts: the sequential discrete-event engine (internal/scheduler) — the
// reference oracle — the concurrent runtime (internal/runtime) and the
// federation hub. The policy State is NOT internally synchronized: each
// host calls it from its serial section (the engine's event loop, the
// runtime's loop on the real clock, the hub mutex).
//
// Host-dynamic facts (process phases, instances, queued recovery steps,
// in-flight invocations) are supplied through the View interface so
// that the decisions stay pure functions of the observable state.
package policy

import (
	"fmt"
	"slices"
	"sort"

	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/process"
	"transproc/internal/schedule"
)

// Mode selects the scheduling policy.
type Mode int

const (
	// PRED is the paper's protocol: dependencies on active processes
	// are allowed only when the active process's potential completions
	// provably cannot conflict (quasi-commit). No cascading aborts ever
	// occur.
	PRED Mode = iota
	// Serial runs one process at a time (admission-level policy; every
	// per-activity dispatch is allowed).
	Serial
	// Conservative admits a process only when its full service
	// footprint does not conflict with any running process
	// (process-level conservative locking; admission level, every
	// per-activity dispatch is allowed).
	Conservative
	// CCOnly orders conflicting activities for serializability but
	// ignores recovery entirely: no deferred commits, no Lemma-1
	// blocking. Under failures it produces non-PRED schedules and can
	// leave inconsistencies (Section 2.2's motivating anomaly).
	CCOnly
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case PRED:
		return "pred"
	case Serial:
		return "serial"
	case Conservative:
		return "conservative"
	case CCOnly:
		return "cc-only"
	default:
		return "unknown"
	}
}

// ParseMode is the inverse of String ("" means PRED). Hosts that
// support fewer modes refuse the parsed value themselves.
func ParseMode(s string) (Mode, error) {
	if s == "" {
		return PRED, nil
	}
	for m := PRED; m <= CCOnly; m++ {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (pred|serial|conservative|cc-only)", s)
}

// Config parameterizes the decision rules.
type Config struct {
	Mode Mode
	// BlockPivots switches PRED from "prepare and defer the
	// commit" to "do not even execute non-compensatable activities while
	// conflicting predecessors are active" (ablation mode).
	BlockPivots bool
}

// Phase is the policy-visible lifecycle state of a process.
type Phase int

const (
	// Running processes execute forward work (possibly with queued
	// forward-recovery steps after a non-fatal failure).
	Running Phase = iota
	// Aborting processes drain their completion C(P_i).
	Aborting
	// Done processes have terminated (committed or aborted).
	Done
)

// View supplies the per-process dynamic facts the pure decisions need.
// The driver's process table (scheduler.Table) is the implementation;
// all methods must be cheap and must tolerate ids the table does not
// hold (report them Done). A State is driven with one View.
type View interface {
	// Procs lists the admitted processes (any phase), in admission
	// order — decision iteration order follows it. The list only grows:
	// the State reads each entry once, and asks for the list at every
	// decision, so it must not be built per call.
	Procs() []process.ID
	// Phase returns the lifecycle phase; Done for unknown ids. Done is
	// final.
	Phase(id process.ID) Phase
	// Arrival is the admission rank used for age-priority tie breaks.
	Arrival(id process.ID) int
	// Instance returns the process's instance for potential-service-set
	// queries; nil for unknown ids.
	Instance(id process.ID) *process.Instance
	// RecoverySteps returns the queued completion steps of the process
	// (compensations and forward invocations not yet executed).
	RecoverySteps(id process.ID) []process.Step
	// InFlight lists the services of the process's in-flight
	// invocations (issued, completion pending); the result is read
	// before the next call.
	InFlight(id process.ID) []string
}

// Event is one effective event in the observed history, used both for
// conflict-graph maintenance and to build the final observed schedule.
type Event struct {
	Seq     int64
	Proc    process.ID
	Local   int
	Service string
	// svc is the interned id of Service, assigned by AppendEvent (-1
	// for non-invocation events); the hot conflict scans run on it.
	svc     int
	Kind    activity.Kind
	Typ     schedule.EventType
	Inverse bool
	// Tentative marks prepared invocations whose commit is deferred;
	// they are erased if rolled back.
	Tentative bool
	Erased    bool
	// Compensated marks base invocations undone later (they stop
	// contributing conflict-graph edges).
	Compensated bool
	Committed   bool // Terminate events: regular C_i
	Group       []process.ID
	// owner and slot place an effective event in the survivor index: its
	// process's node, and its position in State.bySvc[svc].
	owner *node
	slot  int
}

// State is the shared decision state: the append-only event record and,
// over it, the forced-order graph of the completed schedule S̃, kept
// current by every operation instead of being rebuilt from the record.
//
// The graph has two halves. The history-derived half — per process its
// effective events and hard edges, per service the effective events —
// changes only in AppendEvent, EraseTentative, MarkCompensated,
// FinalizeTentative and SeedSummary, at a cost proportional to the
// events of conflicting services. The view-derived half — phase,
// potential completions and in-flight invocations of the processes the
// View reports live — is read once for a process new in View.Procs(),
// and re-read for a process named by Bump or AppendEvent on the first
// decision after, at a cost proportional to the processes that moved
// (refresh). A terminated
// process that nothing unpruned precedes leaves both (prune), so neither
// grows with the length of the run; only the record does.
type State struct {
	cfg    Config
	u      *universe
	events []*Event

	// History-derived half: the unpruned processes and, per interned
	// service, their effective events. Both are allocated on first use.
	nodes map[process.ID]*node
	last  *node // the node lookup found last
	bySvc [][]*Event

	// View-derived half: the processes the view reports live, in
	// admission order, found by reading v.Procs() from cursor on and
	// dropping the ones that turned Done. moved lists the live ones to
	// re-read, all says to re-read every one.
	live   []*node
	cursor int
	moved  []*node
	all    bool

	// Scratch (a State is always driven from one goroutine at a time —
	// the engine loop, the runtime loop or the holder of the hub mutex).
	// epoch stamps node.seen and node.pred for one decision; preds holds
	// the candidate's conflict predecessors, work the nodes prune has to
	// look at, blockers the list MayDispatch and ActiveConflictPreds
	// answer with.
	epoch    uint64
	stack    []*node
	preds    []*node
	work     []*node
	evBuf    []*Event
	blockers []process.ID
}

// New creates an empty decision state over a fixed conflict table.
func New(table *conflict.Table, cfg Config) *State {
	return &State{cfg: cfg, u: newUniverse(table)}
}

// Table returns the conflict table decisions are made under.
func (s *State) Table() *conflict.Table { return s.u.table }

// Mode returns the configured policy mode.
func (s *State) Mode() Mode { return s.cfg.Mode }

// Bump tells the state that View-visible facts of process id changed
// (dispatch, completion, phase, recovery queue): the next decision
// re-reads it. AppendEvent names its event's process itself, and a
// process new in View.Procs() is read without one.
func (s *State) Bump(id process.ID) {
	if n := s.lookup(id); n != nil {
		s.mark(n)
	}
}

// mark lists a live process for the next refresh, once.
func (s *State) mark(n *node) {
	if n.alive && !n.moved {
		n.moved = true
		s.moved = append(s.moved, n)
	}
}

// Conflicts is the interned front end to the conflict table.
func (s *State) Conflicts(a, b string) bool {
	return s.u.Conflicts(a, b)
}

// AppendEvent records an event (Seq set by the caller). An invocation
// becomes effective and gains a hard edge from every process with an
// effective conflicting event. Inverse (compensating) events never
// contribute edges: the pair ⟨a a⁻¹⟩ is effect-free, and the Lemma-2
// dispatch guard already verified no conflicting later work of another
// process exists before the compensation ran. A Terminate event —
// appended only once the view reports the process Done — makes the
// process prunable.
func (s *State) AppendEvent(ev *Event) {
	ev.svc = -1
	// The mark comes first: a Terminate's prune deletes the node.
	n := s.lookup(ev.Proc)
	if n != nil {
		s.mark(n)
	}
	switch {
	case ev.Typ == schedule.Invoke && ev.Service != "":
		ev.svc = s.svcID(n, ev.Local, ev.Service)
		if !ev.Inverse {
			if n == nil {
				n = s.node(ev.Proc)
			}
			for _, old := range s.conflicting(ev.svc) {
				s.addEdge(old.owner, n)
			}
			s.enter(n, ev)
		}
	case ev.Typ == schedule.Terminate && n != nil:
		n.terminated = true
		s.work = append(s.work, n)
		s.prune()
	}
	s.events = append(s.events, ev)
}

// SeedSummary enters what a checkpoint kept of the order that ran through
// the terminated processes it summarized away (wal.Checkpoint): edges,
// the closure of the order among its live processes, and shadow, per live
// process p the committed services of summarized processes p is ordered
// before. Those become the surviving activities of a stand-in that p
// precedes. The stand-in is in no process table, so it reads as
// terminated (View.Phase): it orders every later conflicting event and
// completion step after p, as the summarized processes would have, and
// like them never holds back a compensation (Lemma2Blockers). Nothing is
// ordered before a stand-in; what preceded the summarized processes is
// in edges. seq is the history position of the checkpoint's horizon.
// Having no Terminate event, a stand-in is never pruned.
func (s *State) SeedSummary(edges [][2]string, shadow map[string][]string, seq int64) {
	for _, ed := range edges {
		s.addEdge(s.node(process.ID(ed[0])), s.node(process.ID(ed[1])))
	}
	for p, services := range shadow {
		standIn := s.node(process.ID(p + "~summarized"))
		s.addEdge(s.node(process.ID(p)), standIn)
		for _, svc := range services {
			ev := &Event{Seq: seq, Proc: standIn.id, Service: svc, svc: s.u.intern(svc), Typ: schedule.Invoke}
			s.enter(standIn, ev)
			s.events = append(s.events, ev)
		}
	}
	s.all = true // the seeded events are no process's: re-read every live one
}

// Events exposes the append-only record in arrival order (diagnostics);
// a finalized event keeps its place and carries its commit position in
// Seq. Callers must not mutate the returned slice.
func (s *State) Events() []*Event { return s.events }

// EraseTentative erases the live tentative event of (proc, local) —
// a rolled-back prepared invocation — removing its edges. It reports
// whether an event was erased.
func (s *State) EraseTentative(proc process.ID, local int) bool {
	return s.retire(proc, local, true)
}

// MarkCompensated marks the live base invocation of (proc, local) as
// compensated; it stops contributing conflict edges.
func (s *State) MarkCompensated(proc process.ID, local int) {
	s.retire(proc, local, false)
}

// retire takes the effective events of (proc, local) — with erase only
// the tentative ones — out of the survivor index and releases the edges
// they contributed.
func (s *State) retire(proc process.ID, local int, erase bool) bool {
	n := s.lookup(proc)
	if n == nil {
		return false
	}
	s.mark(n)
	found := false
	for i := 0; i < len(n.events); {
		ev := n.events[i]
		if ev.Local != local || (erase && !ev.Tentative) {
			i++
			continue
		}
		if erase {
			ev.Erased = true
		} else {
			ev.Compensated = true
		}
		n.events = append(n.events[:i], n.events[i+1:]...)
		s.unindex(ev)
		s.removeEventEdges(ev)
		found = true
	}
	if found {
		clear(n.surv)
		for _, ev := range n.events {
			n.surv = setBit(n.surv, ev.svc)
		}
		s.prune()
	}
	return found
}

// FinalizeTentative commits a tentative event at 2PC time: the activity
// joins the observed schedule at its *commit* point, not its prepare
// point — a prefix cut between prepare and commit must not contain it
// (the subsystem's locks guarantee no conflicting activity ran in
// between, so moving it is conflict-order preserving). The event is
// re-sequenced to newSeq — what BuildSchedule orders by — and becomes
// the latest of its process.
func (s *State) FinalizeTentative(proc process.ID, local int, newSeq int64) bool {
	n := s.lookup(proc)
	if n == nil {
		return false
	}
	for i, ev := range n.events {
		if ev.Local == local && ev.Tentative {
			ev.Tentative = false
			ev.Seq = newSeq
			copy(n.events[i:], n.events[i+1:])
			n.events[len(n.events)-1] = ev
			s.mark(n)
			return true
		}
	}
	return false
}

// BaseSeq returns the history sequence of the live (non-erased,
// non-compensated) base invocation of (proc, local), or 0 when none
// exists. It identifies the position T of Lemma 2's "activity executed
// at T".
func (s *State) BaseSeq(proc process.ID, local int) int64 {
	if n := s.lookup(proc); n != nil {
		for i := len(n.events) - 1; i >= 0; i-- {
			if n.events[i].Local == local {
				return n.events[i].Seq
			}
		}
	}
	return 0
}

// EdgeList returns the hard edges of the unpruned graph, sorted
// (diagnostics): a terminated process that no live process is ordered
// before has left it, with every edge out of it.
func (s *State) EdgeList() [][2]process.ID {
	var out [][2]process.ID
	for _, n := range s.nodes {
		for m := range n.out {
			out = append(out, [2]process.ID{n.id, m.id})
		}
	}
	slices.SortFunc(out, func(a, b [2]process.ID) int { return slices.Compare(a[:], b[:]) })
	return out
}

// BuildSchedule materializes the observed process schedule from the
// finalized events, ordered by Seq (a finalized event carries its commit
// position there); it can be checked with PRED(), Serializable() and
// ProcessRecoverable().
func (s *State) BuildSchedule(procs []*process.Process) *schedule.Schedule {
	sched := schedule.MustNew(s.u.table.Clone(), procs...)
	evs := make([]*Event, 0, len(s.events))
	for _, ev := range s.events {
		if !ev.Erased && !ev.Tentative {
			evs = append(evs, ev)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	sched.Grow(len(evs))
	for _, ev := range evs {
		sched.AppendUnchecked(schedule.Event{
			Type: ev.Typ, Proc: ev.Proc, Local: ev.Local, Service: ev.Service,
			Kind: ev.Kind, Inverse: ev.Inverse, Committed: ev.Committed, Group: ev.Group,
		})
	}
	return sched
}
