package scheduler

import (
	"errors"
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"sync"

	"transproc/internal/activity"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
	"transproc/internal/twopc"
	"transproc/internal/wal"
)

// Host is what differs between the hosts of the protocol driver: the
// sequential engine (event heap, virtual clock), the concurrent runtime
// (the same loop on the real clock) and the federation hub. Every transition of
// the per-process protocol is written once, on Driver, against it.
type Host interface {
	// NextSeq grants the next global event sequence number.
	NextSeq() int64
	// ForceLog writes a record ahead of the state change it announces.
	// false means the record did not reach the log: the transition stops
	// without applying the change, and the host ends the run for its own
	// reason (append error, injected crash, run already stopped) — or,
	// when its log is a round trip away (the hub), makes the same call
	// again once the append is acknowledged.
	ForceLog(rec wal.Record) bool
	// Now is the host clock in virtual ticks, for traces and outcomes.
	Now() int64
}

// PreparedTx is a local transaction in the prepared state, of the
// activity Local.
type PreparedTx struct {
	Sub     *subsystem.Subsystem
	Tx      subsystem.TxID
	Service string
	Local   int
}

// Work is one invocation handed to a host: a frontier activity, or the
// recovery step at the head of the process's queue. Route is the
// service as the process resolved it at admission (zero for a recovery
// step: resolved by name when used).
type Work struct {
	Local   int
	Service string
	Route   subsystem.Route
	Kind    activity.Kind
	IsStep  bool
	Step    process.Step
}

// Proc is the protocol state of one process incarnation. Its fields are
// guarded by whatever serializes the host's driver calls.
type Proc struct {
	ID     process.ID
	Origin process.ID // subsystem identity (all restart suffixes stripped)
	Base   process.ID // admitted job id restarts derive from ("base+rN")
	Def    *process.Process
	Inst   *process.Instance
	Phase  policy.Phase
	// Footprint is every service the definition can touch (admission).
	Footprint []string
	// routes holds the route of each activity's service by position,
	// resolved once at admission.
	routes []subsystem.Route
	// Arrival is the admission rank (age priority, victim choice).
	Arrival  int
	Restarts int

	Recovery []process.Step // queued recovery steps (strictly sequential)
	StepBusy bool           // the head recovery step is in flight
	StepSvc  string
	// runningSvc holds the service of each in-flight invocation and
	// preparedTx each prepared local transaction, by activity position
	// ("" and a nil Sub where none); running and prepared count them.
	// Both are allocated at first use.
	runningSvc        []string
	preparedTx        []PreparedTx
	running, prepared int

	AbortPending bool // abort requested, waiting for in-flight work to drain
	Restartable  bool // restart after the abort completes
	keySeq       int  // idempotency-key counter (resilient invocations)

	Outcome *Outcome
	// Wait is why the process waited at its last Next, until it is woken
	// (zero while it may move): what the runtime's deadlock detector
	// reads and Dump prints.
	Wait    Wait
	slot    int     // index in Table.All
	waiters []*Proc // processes whose wait named this one since it last moved
	// blockedSince is the clock at which the finished process first
	// found its deferred 2PC commit blocked by an active conflicting
	// predecessor (-1 while not blocked); feeds HistProcBlocked.
	blockedSince int64
}

// NewProc creates the state of a fresh incarnation.
func NewProc(def *process.Process, arrival int, origin, base process.ID, restarts int) *Proc {
	return &Proc{
		ID: def.ID, Origin: origin, Base: base, Def: def,
		Inst: process.NewInstance(def), Arrival: arrival, Restarts: restarts,
		Footprint:    Footprint(def),
		Outcome:      &Outcome{Restarts: restarts},
		blockedSince: -1,
	}
}

// Restarted creates the incarnation that re-enters, under a derived id,
// after this one aborted restartably.
func (p *Proc) Restarted() *Proc {
	np := NewProc(p.Def.WithID(p.Base.Restart(p.Restarts+1)), p.Arrival, p.Origin, p.Base, p.Restarts+1)
	np.routes = p.routes
	return np
}

// StepWork is the invocation of a recovery step of the process.
func (p *Proc) StepWork(st process.Step) Work {
	kind := activity.Compensation
	if st.Kind == process.StepInvoke {
		kind = p.Def.Activity(st.Local).Kind
	}
	return Work{Local: st.Local, Service: st.Service, Kind: kind, IsStep: true, Step: st}
}

// Slot is the process's index in Table.All, from its admission.
func (p *Proc) Slot() int { return p.slot }

// Idle reports whether the process has nothing in flight.
func (p *Proc) Idle() bool { return p.running == 0 && !p.StepBusy }

// InFlight reports how many of the process's activities are in flight.
func (p *Proc) InFlight() int { return p.running }

// NumPrepared reports how many prepared local transactions the process
// holds.
func (p *Proc) NumPrepared() int { return p.prepared }

// pos is the position of a local id in the process definition.
func (p *Proc) pos(local int) int {
	i, _ := p.Def.Pos(local)
	return i
}

// setRunning registers the invocation of activity local as in flight
// (service) or, with service "", as finished.
func (p *Proc) setRunning(local int, service string) {
	if p.runningSvc == nil {
		p.runningSvc = make([]string, p.Def.Len())
	}
	i := p.pos(local)
	switch old := p.runningSvc[i]; {
	case old == "" && service != "":
		p.running++
	case old != "" && service == "":
		p.running--
	}
	p.runningSvc[i] = service
}

// putPrepared holds a prepared local transaction.
func (p *Proc) putPrepared(ptx PreparedTx) {
	if p.preparedTx == nil {
		p.preparedTx = make([]PreparedTx, p.Def.Len())
	}
	i := p.pos(ptx.Local)
	if p.preparedTx[i].Sub == nil {
		p.prepared++
	}
	p.preparedTx[i] = ptx
}

// TakePrepared removes and returns the prepared transaction of activity
// local, if the process holds one.
func (p *Proc) TakePrepared(local int) (PreparedTx, bool) {
	if p.prepared == 0 {
		return PreparedTx{}, false
	}
	i := p.pos(local)
	ptx := p.preparedTx[i]
	if ptx.Sub == nil {
		return PreparedTx{}, false
	}
	p.preparedTx[i] = PreparedTx{}
	p.prepared--
	return ptx, true
}

// PreparedSet yields the prepared transactions in activity order.
func (p *Proc) PreparedSet() iter.Seq[PreparedTx] {
	return func(yield func(PreparedTx) bool) {
		for _, ptx := range p.preparedTx {
			if ptx.Sub != nil && !yield(ptx) {
				return
			}
		}
	}
}

// Table is the process table of one serial section and the only
// policy.View: the decisions read phases, instances, recovery queues and
// in-flight sets straight from the Procs the transitions mutate.
type Table struct {
	procs []*Proc // admission order (includes done)
	ids   []process.ID
	byID  map[process.ID]*Proc
	last  *Proc // the process Get found last
	// flight is the result buffer of InFlight, which the policy reads
	// for every live process on every round.
	flight []string
	// ready is the wait index's bitset: one mark per slot, set for a
	// process a host is to ask (again).
	ready []uint64
}

// Add appends an admitted process, marked ready.
func (t *Table) Add(p *Proc) {
	if t.byID == nil {
		t.byID = make(map[process.ID]*Proc)
	}
	if p.slot = len(t.procs); p.slot&63 == 0 {
		t.ready = append(t.ready, 0)
	}
	t.ready[p.slot>>6] |= 1 << (p.slot & 63)
	t.procs = append(t.procs, p)
	t.ids = append(t.ids, p.ID)
	t.byID[p.ID], t.last = p, p
}

// Grow makes room for n more admitted processes.
func (t *Table) Grow(n int) {
	if t.byID == nil {
		t.byID = make(map[process.ID]*Proc, n)
	}
	t.procs, t.ids = slices.Grow(t.procs, n), slices.Grow(t.ids, n)
}

// Get returns the process, or nil. It keeps the last process it found:
// the policy reads one process's phase, in-flight set and instance in a
// row.
func (t *Table) Get(id process.ID) *Proc {
	if p := t.last; p != nil && p.ID == id {
		return p
	}
	p := t.byID[id]
	if p != nil {
		t.last = p
	}
	return p
}

// All lists the admitted processes in admission order; callers must not
// mutate the slice.
func (t *Table) All() []*Proc { return t.procs }

// Ready yields the processes marked ready and their slots in admission
// order, clearing each mark as it yields it: one marked during the walk
// at a later slot comes in the same walk, any other in the next.
func (t *Table) Ready() iter.Seq2[int, *Proc] {
	return func(yield func(int, *Proc) bool) {
		for s := t.nextReady(0); s >= 0; s = t.nextReady(s + 1) {
			t.ready[s>>6] &^= 1 << (s & 63)
			if !yield(s, t.procs[s]) {
				return
			}
		}
	}
}

// AnyReady reports whether some process is marked ready.
func (t *Table) AnyReady() bool { return t.nextReady(0) >= 0 }

// nextReady is the first slot at or after s marked ready, or -1.
func (t *Table) nextReady(s int) int {
	for i := s >> 6; i < len(t.ready); i, s = i+1, 0 {
		if w := t.ready[i] >> (s & 63); w != 0 {
			return i<<6 + s&63 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

func (t *Table) Procs() []process.ID { return t.ids }

func (t *Table) Phase(id process.ID) policy.Phase {
	if p := t.Get(id); p != nil {
		return p.Phase
	}
	return policy.Done
}

func (t *Table) Arrival(id process.ID) int {
	if p := t.Get(id); p != nil {
		return p.Arrival
	}
	return 0
}

func (t *Table) Instance(id process.ID) *process.Instance {
	if p := t.Get(id); p != nil {
		return p.Inst
	}
	return nil
}

func (t *Table) RecoverySteps(id process.ID) []process.Step {
	if p := t.Get(id); p != nil {
		return p.Recovery
	}
	return nil
}

func (t *Table) InFlight(id process.ID) []string {
	p := t.Get(id)
	if p == nil {
		return nil
	}
	out := t.flight[:0]
	for _, svc := range p.runningSvc {
		if svc != "" {
			out = append(out, svc)
		}
	}
	if p.StepBusy && p.StepSvc != "" {
		out = append(out, p.StepSvc)
	}
	t.flight = out
	return out
}

// Driver is the per-process PRED protocol of Section 3.5 — Lemma 1
// deferred 2PC commit, Lemma 2/3 ordered completions, Definition 4
// failure plans, the abort of Definition 8.2b — as one set of
// transitions over a process table and a policy state. A host serializes
// the calls (event loop, real-clock loop, hub mutex) and decides when to
// make them; what a transition does is the same everywhere.
type Driver struct {
	Table
	Host  Host
	Fed   *subsystem.Federation
	Pol   *policy.State
	Coord *twopc.Coordinator
	Reg   *metrics.Registry // nil = no-op
	// Resilience, when non-nil, carries the invocations (see
	// Config.Resilience).
	Resilience subsystem.ResilientInvoker
	Metrics    Metrics
	// frontier is Next's buffer for a process's frontier.
	frontier []int
	// unnamed lists the processes whose wait names no blocker, or one
	// that is not live, since the last transition.
	unnamed []*Proc
	// evs is the block that event carves the policy's events from.
	evs []policy.Event
}

// event returns a copy of e from a block of events: the policy keeps
// every event for the run, so they are allocated in blocks, of 4 at
// first and doubling to 64, so a short run wastes little.
func (d *Driver) event(e policy.Event) *policy.Event {
	if len(d.evs) == cap(d.evs) {
		d.evs = make([]policy.Event, 0, min(max(2*cap(d.evs), 4), 64))
	}
	d.evs = append(d.evs, e)
	return &d.evs[len(d.evs)-1]
}

// trace records a decision event. Callers whose detail argument costs
// something to build (a rendered Wait) guard it with d.Reg != nil
// themselves.
func (d *Driver) trace(kind metrics.TraceKind, p *Proc, local int, service, other string) {
	if d.Reg != nil {
		d.Reg.Trace(kind, d.Host.Now(), string(p.ID), local, service, other)
	}
}

// Cost is the virtual duration of a work item's invocation.
func (d *Driver) Cost(w Work) int64 {
	r := d.route(w)
	if !r.Valid() || r.Spec().Cost < 1 {
		return 1
	}
	return int64(r.Spec().Cost)
}

// route is the work's service as its process resolved it, or as
// resolved now.
func (d *Driver) route(w Work) subsystem.Route {
	if w.Route.Valid() {
		return w.Route
	}
	r, _ := d.Fed.Route(w.Service)
	return r
}

// LockBlocker reports whether p could take the item locks of w now and,
// if not, the wait on the holder (Held).
func (d *Driver) LockBlocker(p *Proc, w Work) (Wait, bool) {
	if r := d.route(w); r.Valid() {
		if holder, free := r.LockBlocker(string(p.Origin)); !free {
			return d.Held(holder), false
		}
	}
	return Wait{}, true
}

// Admit logs the start of a process and enters it into the table,
// resolving the route of each of its activities.
func (d *Driver) Admit(p *Proc) bool {
	if !d.Host.ForceLog(wal.Record{Type: wal.RecStart, Proc: string(p.ID)}) {
		return false
	}
	if p.routes == nil {
		p.routes = make([]subsystem.Route, p.Def.Len())
		for i := range p.routes {
			p.routes[i], _ = d.Fed.Route(p.Def.ActivityAt(i).Service)
		}
	}
	p.Outcome.Start = d.Host.Now()
	d.Add(p)
	d.Reg.Inc(metrics.ProcsAdmitted)
	d.trace(metrics.TAdmit, p, 0, "", "")
	return true
}

// Wait is why a process cannot move now: the rule that holds it and the
// processes that must act first. Blockers is a disjunction of
// conjunctions — the process can move once, for some alternative, every
// listed process acted (terminated, committed or rolled back, released a
// lock). A wait with an alternative whose rule names no blockers (a
// forced-order or CCOnly cycle, RuleLock on a holder with no live
// incarnation — a transaction an earlier run left in doubt — and RuleBusy
// with nothing on the frontier) carries that rule and no blockers: only
// quiescence may break it. Next records every wait on Proc.Wait. The
// rules are policy.Rule's.
type Wait struct {
	Rule     policy.Rule
	Blockers [][]process.ID
}

// String renders the wait for traces and Dump: "lemma1 on P1,P3 or P2".
func (w Wait) String() string {
	b, sep := []byte(w.Rule), " on "
	for _, alt := range w.Blockers {
		for j, id := range alt {
			if j == 0 {
				b, sep = append(b, sep...), " or "
			} else {
				b = append(b, ',')
			}
			b = append(b, id...)
		}
	}
	return string(b)
}

// Act is what Next decided.
type Act uint8

const (
	ActWait   Act = iota // nothing may happen now; Proc.Wait says why
	ActAgain             // a transition changed state: ask again
	ActInvoke            // the exec hook took the returned work
	ActDone              // the process terminated
)

// Exec is the host's hand in Next: it is offered each work item that
// passed every gate of the driver, in frontier order, and either refuses
// it with the wait that holds it (an item lock, a parked conflict) or
// takes it — invokes it, or claims it for the invocation the host makes
// once Next returns ActInvoke. more reports whether Next walks on over
// the rest of the frontier: the engine dispatches every dispatchable
// activity, the runtime and the hub the first.
type Exec func(p *Proc, w Work) (refused Wait, more bool)

// Next decides what p does next, in the one order of every host: the
// recovery step at the head of its queue, a pending abort, the drain of
// an abort, finishing (Lemma 1's gate on the 2PC commit of the prepared
// set, the commit, terminate), a deferred set mid-process, then the
// frontier. Transitions that call no service (an abandoned branch's
// rollback, the abort's begin and conclusion, a 2PC commit, a terminate)
// happen here; an invocation goes to exec. An error is a broken
// transition, or the 2PC coordinator's log refusing the decision — the
// host's own error, on which it holds or parks p until the append is
// acknowledged. A wait is registered in the wait index (park); any other
// answer is a transition (moved).
func (d *Driver) Next(p *Proc, exec Exec) (Act, Work, error) {
	act, w, err := d.next(p, exec)
	if act == ActWait {
		d.park(p)
	} else {
		d.moved(p)
	}
	return act, w, err
}

// park registers p, which answered ActWait, in the wait index — the
// driver's answer to whom the engine, recovery and the runtime ask again
// — and clears its mark: on the waiter list of every blocker its wait
// names, or on the unnamed list when it names no one or a process that
// is not live. A transition of a process — Next answering anything else,
// Complete, MarkVictim, a settle that committed — wakes the process, its
// waiters and the unnamed list: only these may answer differently now. A
// list holds a process once however often it is asked (the hub asks on
// every request); an entry a later wait no longer names costs one extra
// ask. Admission marks the admitted process alone: with no history and
// nothing in flight it can release no wait.
func (d *Driver) park(p *Proc) {
	d.ready[p.slot>>6] &^= 1 << (p.slot & 63)
	named := len(p.Wait.Blockers) > 0
	for _, alt := range p.Wait.Blockers {
		for _, id := range alt {
			if b := d.Get(id); b != nil && b.Phase != policy.Done {
				b.waiters = enlist(b.waiters, p)
			} else {
				named = false
			}
		}
	}
	if !named {
		d.unnamed = enlist(d.unnamed, p)
	}
}

// enlist adds p to l unless it is there.
func enlist(l []*Proc, p *Proc) []*Proc {
	if slices.Contains(l, p) {
		return l
	}
	return append(l, p)
}

// moved wakes p, its waiters and the unnamed list after a transition of p.
func (d *Driver) moved(p *Proc) {
	for _, l := range [...]*[]*Proc{&p.waiters, &d.unnamed} {
		for _, q := range *l {
			d.Wake(q)
		}
		*l = (*l)[:0]
	}
	d.Wake(p)
}

// Wake clears p's wait and marks it ready unless it terminated: the
// driver wakes whom a transition may release, a host one that a gate of
// its own (a sync) held.
func (d *Driver) Wake(p *Proc) {
	p.Wait = Wait{Blockers: p.Wait.Blockers[:0]}
	if p.Phase != policy.Done {
		d.ready[p.slot>>6] |= 1 << (p.slot & 63)
	}
}

// next is Next before the wait index sees the answer.
func (d *Driver) next(p *Proc, exec Exec) (Act, Work, error) {
	var rule, unnamed policy.Rule
	blockers := p.Wait.Blockers[:0]
	p.Wait = Wait{}
	// wait adds alternatives: p may move once, for one of them, every
	// process listed acted. None, or an empty one, is a rule that cannot
	// name its blockers. Each alternative is copied into p's own storage
	// (the policy answers from its buffers), reusing the last wait's.
	wait := func(r policy.Rule, alts ...[]process.ID) {
		if rule == "" {
			rule = r
		}
		if len(alts) == 0 || len(alts[0]) == 0 {
			if unnamed == "" {
				unnamed = r
			}
			return
		}
		for _, alt := range alts {
			n := len(blockers)
			blockers = slices.Grow(blockers, 1)[:n+1]
			blockers[n] = append(blockers[n][:0], alt...)
		}
	}
	park := func() (Act, Work, error) {
		switch {
		case unnamed != "":
			p.Wait = Wait{Rule: unnamed}
		case rule == "": // nothing on the frontier: only p's own work can change that
			p.Wait = Wait{Rule: policy.RuleBusy}
		default:
			p.Wait = Wait{Rule: rule, Blockers: blockers}
		}
		return ActWait, Work{}, nil
	}

	// Recovery steps run strictly sequentially and drain before a pending
	// abort is honoured (the instance's alternative bookkeeping must settle
	// before the completion is computed).
	if len(p.Recovery) > 0 {
		st := p.Recovery[0]
		switch {
		case p.StepBusy:
			wait(policy.RuleBusy, []process.ID{p.ID})
			return park()
		case st.Kind == process.StepAbortPrepared:
			d.AbortPreparedStep(p)
			return ActAgain, Work{}, nil
		}
		if rule, ids := d.stepWait(p, st); rule != "" {
			wait(rule, ids)
			return park()
		}
		w := p.StepWork(st)
		if no, _ := exec(p, w); no.Rule != "" {
			wait(no.Rule, no.Blockers...)
			return park()
		}
		return ActInvoke, w, nil
	}
	// An abort requested while work was in flight starts once it drained.
	if p.AbortPending && p.Phase != policy.Aborting && p.Idle() {
		return ActAgain, Work{}, d.BeginAbort(p)
	}
	if p.Phase == policy.Aborting {
		if !p.Idle() {
			wait(policy.RuleBusy, []process.ID{p.ID})
			return park()
		}
		// The completion drained: conclude the abort.
		d.RollbackLeftovers(p)
		if !d.Terminate(p, false) {
			return ActAgain, Work{}, nil // not logged: the host ends the run
		}
		return ActDone, Work{}, nil
	}
	// Finish: the prepared set commits atomically via 2PC once no active
	// conflicting predecessor remains (Lemma 1), then C_i is emitted.
	if p.Inst.Done() && p.running == 0 {
		if p.prepared > 0 {
			if preds := d.Pol.ActiveConflictPreds(d, p.ID); len(preds) > 0 {
				if p.blockedSince < 0 {
					p.blockedSince = d.Host.Now()
				}
				wait(policy.RuleCommit, preds)
				return park()
			}
			if err := d.CommitPreparedSet(p); err != nil {
				return ActAgain, Work{}, err
			}
		}
		if !d.Terminate(p, true) {
			return ActAgain, Work{}, nil
		}
		return ActDone, Work{}, nil
	}
	// A deferred set mid-process: the successors of a prepared activity
	// stay off the frontier until it commits, so it commits the moment
	// Lemma 1 releases it. Until then the deferral is one alternative of
	// the wait; parallel branches may keep executing.
	if !p.AbortPending && p.HasDeferred() {
		if ok, err := d.settle(p); ok || err != nil {
			return ActAgain, Work{}, err
		}
		wait(policy.RuleCommit, d.Pol.ActiveConflictPreds(d, p.ID))
	}
	if p.running > 0 {
		wait(policy.RuleBusy, []process.ID{p.ID})
	}
	// The frontier: each activity is one more alternative of the wait.
	var took Work
	taken := false
	d.frontier = p.Inst.AppendFrontier(d.frontier[:0])
	for _, local := range d.frontier {
		// An activity in flight is skipped, and one behind p's own deferred
		// set: a prepared non-compensatable defers its successors, so that
		// a rolled-back prepared transaction never has committed successors.
		pos := p.pos(local)
		if p.running > 0 && p.runningSvc[pos] != "" || !p.Inst.PredsCommitted(local) {
			continue
		}
		a := p.Def.ActivityAt(pos)
		if r, ids := d.Pol.MayDispatch(d, p.ID, a); r != "" {
			d.Metrics.PolicyWaits++
			d.Reg.Inc(metrics.InvokePolicyBlocked)
			if d.Reg != nil {
				d.trace(metrics.TPolicyWait, p, a.Local, a.Service, Wait{r, [][]process.ID{ids}}.String())
			}
			wait(r, ids)
			continue
		}
		w := Work{Local: local, Service: a.Service, Kind: a.Kind}
		if p.routes != nil {
			w.Route = p.routes[pos]
		}
		no, more := exec(p, w)
		if no.Rule != "" {
			wait(no.Rule, no.Blockers...)
		} else {
			took, taken = w, true
		}
		if !more {
			break
		}
	}
	if taken {
		return ActInvoke, took, nil
	}
	return park()
}

// settle commits the deferred set of a running process mid-process once
// Lemma 1 released it (no active conflicting predecessor remains) and
// reports whether it did. Next asks it before the frontier; the engine
// also asks it of every ready process right after a terminate, before
// later processes dispatch in the same pass.
func (d *Driver) settle(p *Proc) (bool, error) {
	if p.Phase != policy.Running || p.AbortPending || len(p.Recovery) > 0 || !p.HasDeferred() ||
		d.Pol.HasActiveConflictPred(d, p.ID) {
		return false, nil
	}
	defer d.moved(p)
	return true, d.CommitPreparedSet(p)
}

// stepWait gates the recovery step at the head of p's queue: a
// compensation waits while another active process holds conflicting work
// executed after its base (Lemma 2); a forward-recovery invocation waits
// for conflicting queued compensations (Lemma 3), for active conflict
// predecessors that may still need a conflicting recovery (Lemma 1), for
// forced-order cycles that waiting can break, and for aborting processes
// whose conflicting forward steps are forced before it. CCOnly ignores
// recovery ordering. A denial returns its rule and blockers, counted and
// traced; "" means the step may run.
func (d *Driver) stepWait(p *Proc, st process.Step) (rule policy.Rule, ids []process.ID) {
	if d.Pol.Mode() == CCOnly {
		return "", nil
	}
	switch st.Kind {
	case process.StepCompensate:
		if ids = d.Pol.Lemma2Blockers(d, p.ID, st); ids != nil {
			rule = policy.RuleLemma2
		}
	case process.StepInvoke:
		if ids = d.Pol.Lemma3Blockers(d, p.ID, st); ids != nil {
			rule = policy.RuleLemma3
		} else if ids = d.Pol.Lemma1ForwardBlockers(d, p.ID, st); ids != nil {
			rule = policy.RuleLemma1Fwd
		} else if !d.Pol.StepForcedClear(d, p.ID, st) {
			rule = policy.RuleForced
		} else if o, wait := d.Pol.DeferToAborting(d, p.ID, st); wait {
			rule, ids = policy.RuleDeferAbort, []process.ID{o}
		}
	}
	if rule != "" {
		d.Metrics.PolicyWaits++
		if d.Reg != nil {
			d.trace(metrics.TPolicyWait, p, st.Local, st.Service, Wait{rule, [][]process.ID{ids}}.String())
		}
	}
	return rule, ids
}

// Held is the wait on an item lock whose holder a subsystem knows as
// holder (an origin): on that origin's live incarnation, the latest one
// admitted, or unnamed when none is live.
func (d *Driver) Held(holder string) Wait {
	for i := len(d.procs) - 1; i >= 0; i-- {
		if q := d.procs[i]; string(q.Origin) == holder && q.Phase != policy.Done {
			return Wait{Rule: policy.RuleLock, Blockers: [][]process.ID{{q.ID}}}
		}
	}
	return Wait{Rule: policy.RuleLock}
}

// Dispatch force-logs an invocation and registers it as in flight, so
// that forced-order decisions taken while it runs see it as a survivor.
func (d *Driver) Dispatch(p *Proc, w Work) bool {
	if !d.Host.ForceLog(wal.Record{Type: wal.RecDispatch, Proc: string(p.ID), Local: w.Local, Service: w.Service}) {
		return false
	}
	if w.IsStep {
		p.StepBusy, p.StepSvc = true, w.Service
	} else {
		p.setRunning(w.Local, w.Service)
	}
	d.Pol.Bump(p.ID)
	d.Reg.Inc(metrics.InvokeDispatched)
	d.trace(metrics.TDispatch, p, w.Local, w.Service, "")
	return true
}

// Undispatch removes an in-flight registration (the invocation finished,
// lost the race for its item locks, or the run crashed under it).
func (d *Driver) Undispatch(p *Proc, w Work) {
	if w.IsStep {
		p.StepBusy, p.StepSvc = false, ""
	} else {
		p.setRunning(w.Local, "")
	}
	d.Pol.Bump(p.ID)
}

// invokeKey allocates the idempotency key of one logical invocation:
// fresh per invocation and per incarnation (the id carries the restart
// suffix), so a re-invocation is a new execution to the idempotency table.
func (p *Proc) invokeKey() string {
	key := fmt.Sprintf("%s#%d", p.ID, p.keySeq)
	p.keySeq++
	return key
}

// Invoke counts and performs the subsystem invocation of a work item
// into the prepared state, through the invocation boundary when there is
// one. res is nil when the invocation provably left no prepared
// transaction: held — counted and traced as a lock wait whose Wait names
// the holder (Held), and the host retries later — or failed: a genuine
// local abort or a delivery failure at the boundary, which Complete
// takes down the failure path. Any other error is a broken world.
func (d *Driver) Invoke(p *Proc, w Work) (res *subsystem.Result, extraLat int64, held Wait) {
	d.Metrics.Invocations++
	var err error
	r := d.route(w)
	switch {
	case d.Resilience != nil:
		res, extraLat, err = d.Resilience.InvokeResilient(string(p.Origin), w.Service, subsystem.Prepare, p.invokeKey())
	case r.Valid():
		res, err = r.Invoke(string(p.Origin), subsystem.Prepare)
	default:
		err = fmt.Errorf("federation: unknown service %q", w.Service)
	}
	switch {
	case errors.Is(err, subsystem.ErrLocked):
		d.Metrics.LockWaits++
		d.Reg.Inc(metrics.InvokeLockBlocked)
		d.trace(metrics.TLockWait, p, w.Local, w.Service, "")
		var holder string
		if r.Valid() {
			holder, _ = r.LockBlocker(string(p.Origin))
		}
		return nil, 0, d.Held(holder)
	case subsystem.IsInvocationFailure(err):
		return nil, extraLat, Wait{}
	case err != nil:
		panic(fmt.Sprintf("scheduler: invoke %s/%s: %v", p.ID, w.Service, err))
	}
	return res, extraLat, Wait{}
}

// commitsNow decides whether an activity's local transaction commits
// right at completion. Compensatable activities always do (they are
// undoable); non-compensatable ones only when the mode ignores recovery
// (CCOnly) or never interleaves (Serial/Conservative), or when the
// process has no active conflicting predecessor (Lemma 1's deferral
// condition is already satisfied).
func (d *Driver) commitsNow(p *Proc, kind activity.Kind) bool {
	if kind == activity.Compensatable {
		return true
	}
	switch d.Pol.Mode() {
	case CCOnly, Serial, Conservative:
		return true
	}
	return !d.Pol.HasActiveConflictPred(d, p.ID)
}

// outcomeRecord is the write-ahead record of an invocation that left a
// prepared local transaction. It carries the subsystem and transaction id
// so that a crash between the force-log and the commit of a recovery step
// is repaired by recovery's redo rule (Analyze collects these into
// ProcImage.RedoCommit) instead of presuming abort.
func outcomeRecord(p *Proc, w Work, sub *subsystem.Subsystem, tx subsystem.TxID) wal.Record {
	rec := wal.Record{
		Type: wal.RecOutcome, Proc: string(p.ID), Local: w.Local, Service: w.Service,
		Subsystem: sub.Name(), Tx: int64(tx), Outcome: "prepared",
	}
	switch {
	case w.IsStep && w.Step.Kind == process.StepCompensate:
		rec.Type, rec.Outcome = wal.RecCompensate, ""
	case w.IsStep:
		rec.Outcome = "committed"
	}
	return rec
}

// Complete handles a finished invocation; res is nil when it failed.
func (d *Driver) Complete(p *Proc, w Work, res *subsystem.Result) error {
	defer d.moved(p)
	r := d.route(w)
	sub := r.Sub()
	// Orphaned completion: while the invocation was in flight, its
	// branch was abandoned or the process began aborting (a parallel
	// sibling failed).
	orphaned := !w.IsStep && p.Inst.Status(w.Local) != process.Pending
	// Success: the local transaction is prepared at the subsystem. Until
	// the record is in the log the transaction stays in doubt — recovery
	// presumes an in-doubt transaction without a record aborted — and
	// the invocation stays in flight: nothing below has happened, so a
	// host whose log refused for now may call Complete again.
	if res != nil && !orphaned && !d.Host.ForceLog(outcomeRecord(p, w, sub, res.Tx)) {
		return nil
	}
	d.Undispatch(p, w)
	d.Reg.ObserveService(w.Service, d.Cost(w))
	switch {
	case w.IsStep:
		return d.completeStep(p, w, sub, res)
	case orphaned:
		// The outcome is discarded; a successful local transaction is
		// rolled back — atomicity guarantees no effects.
		if res != nil {
			d.rollback(p, PreparedTx{Sub: sub, Tx: res.Tx, Service: w.Service, Local: w.Local}, metrics.RollbacksOrphaned, "orphaned completion")
		}
		return nil
	case res == nil && w.Kind.GuaranteedToCommit():
		// Transient failure of a retriable activity: re-invoke.
		d.Metrics.Retries++
		d.Reg.Inc(metrics.RetriesTransient)
		d.trace(metrics.TRetry, p, w.Local, w.Service, "")
		d.Host.ForceLog(wal.Record{Type: wal.RecOutcome, Proc: string(p.ID), Local: w.Local, Service: w.Service, Outcome: "aborted"})
		return nil
	case res == nil:
		return d.permanentFailure(p, w)
	}
	ev := d.event(policy.Event{
		Seq: d.Host.NextSeq(), Proc: p.ID, Local: w.Local, Service: w.Service, Kind: w.Kind, Typ: schedule.Invoke,
	})
	if d.commitsNow(p, w.Kind) {
		if err := sub.CommitPrepared(res.Tx); err != nil {
			return fmt.Errorf("scheduler: commit %s/%s: %w", p.ID, w.Service, err)
		}
		d.Host.ForceLog(wal.Record{
			Type: wal.RecResolved, Proc: string(p.ID), Local: w.Local,
			Service: w.Service, Subsystem: sub.Name(), Tx: int64(res.Tx), Commit: true,
		})
		if err := p.Inst.MarkCommitted(w.Local); err != nil {
			return fmt.Errorf("scheduler: %w", err)
		}
		d.Pol.AppendEvent(ev)
		d.Reg.Inc(metrics.CommitsImmediate)
		d.trace(metrics.TCommit, p, w.Local, w.Service, "")
		return nil
	}
	// Deferred commit (Lemma 1): hold the prepared transaction.
	d.Metrics.Deferrals++
	d.Reg.Inc(metrics.CommitsDeferred)
	if d.Reg != nil {
		preds := d.Pol.ActiveConflictPreds(d, p.ID)
		d.trace(metrics.TDeferCommit, p, w.Local, w.Service, Wait{policy.RuleCommit, [][]process.ID{preds}}.String())
	}
	if err := p.Inst.MarkPrepared(w.Local); err != nil {
		return fmt.Errorf("scheduler: %w", err)
	}
	p.putPrepared(PreparedTx{Sub: sub, Tx: res.Tx, Service: w.Service, Local: w.Local})
	ev.Tentative = true
	d.Pol.AppendEvent(ev)
	return nil
}

// completeStep finishes a recovery-step invocation whose record, if it
// succeeded, is in the log: a crash before the log write leaves an orphan
// that recovery presumes aborted, and the step is re-executed.
func (d *Driver) completeStep(p *Proc, w Work, sub *subsystem.Subsystem, res *subsystem.Result) error {
	if res == nil {
		// Compensations and forward-recovery activities are retriable;
		// transient failures are re-invoked.
		d.Metrics.Retries++
		d.Reg.Inc(metrics.RetriesTransient)
		d.trace(metrics.TRetry, p, w.Local, w.Service, "recovery step")
		return nil
	}
	if err := sub.CommitPrepared(res.Tx); err != nil {
		return fmt.Errorf("scheduler: commit step %s/%s: %w", p.ID, w.Service, err)
	}
	if len(p.Recovery) > 0 && p.Recovery[0] == w.Step {
		p.Recovery = p.Recovery[1:]
	}
	ev := d.event(policy.Event{
		Seq: d.Host.NextSeq(), Proc: p.ID, Local: w.Local, Service: w.Service, Kind: w.Kind, Typ: schedule.Invoke,
	})
	if w.Step.Kind == process.StepCompensate {
		d.Metrics.Compensations++
		d.Reg.Inc(metrics.CompensationsIssued)
		d.trace(metrics.TCompensate, p, w.Local, w.Service, "")
		// The base event stops contributing conflicts.
		d.Pol.MarkCompensated(p.ID, w.Local)
		ev.Inverse = true
	} else {
		d.trace(metrics.TRecoveryStep, p, w.Local, w.Service, "")
	}
	d.Pol.AppendEvent(ev)
	if err := p.Inst.ApplyStep(w.Step); err != nil {
		return fmt.Errorf("scheduler: %w", err)
	}
	return nil
}

// permanentFailure reacts to the definitive failure of a compensatable
// or pivot activity with the instance's plan (Definition 4): forward
// along a ◁ alternative, or backward recovery.
func (d *Driver) permanentFailure(p *Proc, w Work) error {
	if !d.Host.ForceLog(wal.Record{Type: wal.RecFailed, Proc: string(p.ID), Local: w.Local, Service: w.Service}) {
		return nil
	}
	d.trace(metrics.TFail, p, w.Local, w.Service, "")
	d.Pol.AppendEvent(d.event(policy.Event{
		Seq: d.Host.NextSeq(), Proc: p.ID, Local: w.Local, Service: w.Service, Kind: w.Kind, Typ: schedule.FailedInvoke,
	}))
	plan, err := p.Inst.MarkFailed(w.Local)
	if err != nil {
		return fmt.Errorf("scheduler: %w", err)
	}
	if p.AbortPending {
		// An abort is already queued; its completion supersedes the
		// failure's local plan.
		return nil
	}
	if plan.Abort {
		p.Restartable = false
		d.unwind(p, plan.Steps, w.Local, w.Service)
		return nil
	}
	p.Recovery = plan.Steps
	d.Reg.Inc(metrics.ForwardRecoveries)
	d.trace(metrics.TForward, p, w.Local, w.Service, "")
	return nil
}

// BeginAbort starts the abort A_i a victim designation requested, once
// the process's in-flight work has drained: its completion C(P_i)
// becomes the recovery queue.
func (d *Driver) BeginAbort(p *Proc) error {
	steps, err := p.Inst.Abort()
	if err != nil {
		return fmt.Errorf("scheduler: abort %s: %w", p.ID, err)
	}
	if d.unwind(p, steps, 0, "") {
		p.AbortPending = false
	}
	return nil
}

// unwind puts the process into backward recovery over the given
// completion.
func (d *Driver) unwind(p *Proc, steps []process.Step, local int, service string) bool {
	if !d.Host.ForceLog(wal.Record{Type: wal.RecAbortBegin, Proc: string(p.ID)}) {
		return false
	}
	p.Phase = policy.Aborting
	p.Recovery = steps
	counter, kind := metrics.BackwardRecoveries, metrics.TBackward
	if p.Inst.Mode() == process.FREC { // past its pivot the abort completes forward
		counter, kind = metrics.ForwardRecoveries, metrics.TForward
		// Its work stands, so a restart would run it twice.
		p.Restartable = false
	}
	d.Reg.Inc(counter)
	d.trace(kind, p, local, service, "")
	d.Pol.AppendEvent(d.event(policy.Event{Seq: d.Host.NextSeq(), Proc: p.ID, Typ: schedule.AbortBegin}))
	return true
}

// rollback aborts a prepared local transaction and logs the resolution.
// A transaction the subsystem no longer knows is left alone.
func (d *Driver) rollback(p *Proc, ptx PreparedTx, counter metrics.CounterID, why string) {
	if err := ptx.Sub.AbortPrepared(ptx.Tx); err != nil {
		return
	}
	d.Metrics.Rollbacks++
	d.Reg.Inc(counter)
	d.trace(metrics.TRollback, p, ptx.Local, ptx.Service, why)
	d.Host.ForceLog(wal.Record{
		Type: wal.RecResolved, Proc: string(p.ID), Local: ptx.Local,
		Service: ptx.Service, Subsystem: ptx.Sub.Name(), Tx: int64(ptx.Tx), Commit: false,
	})
}

// AbortPreparedStep resolves the StepAbortPrepared at the head of p's
// recovery queue: the prepared transaction of an abandoned branch is
// rolled back and its tentative event erased with its edges.
func (d *Driver) AbortPreparedStep(p *Proc) {
	st := p.Recovery[0]
	p.Recovery = p.Recovery[1:]
	if ptx, ok := p.TakePrepared(st.Local); ok {
		d.rollback(p, ptx, metrics.DeferredRolledBack, "abandoned branch")
	}
	d.Pol.EraseTentative(p.ID, st.Local)
	_ = p.Inst.ApplyStep(st)
	d.Pol.Bump(p.ID)
}

// RollbackLeftovers rolls back whatever an aborting process still holds
// prepared once its completion drained (a safety net: the completion
// normally contains explicit StepAbortPrepared steps).
func (d *Driver) RollbackLeftovers(p *Proc) {
	for ptx := range p.PreparedSet() {
		p.TakePrepared(ptx.Local)
		d.rollback(p, ptx, metrics.DeferredRolledBack, "abort leftover")
		d.Pol.EraseTentative(p.ID, ptx.Local)
	}
}

// HasDeferred reports whether the process holds a prepared local whose
// commit is deferred (one a failure plan abandoned is not: the queued
// StepAbortPrepared resolves it).
func (p *Proc) HasDeferred() bool {
	for ptx := range p.PreparedSet() {
		if p.Inst.Status(ptx.Local) == process.Prepared {
			return true
		}
	}
	return false
}

// CommitPreparedSet performs the atomic 2PC commit of p's prepared set
// once Lemma 1 released it.
func (d *Driver) CommitPreparedSet(p *Proc) error {
	var parts []twopc.Participant
	for ptx := range p.PreparedSet() { // in activity order: ascending local ids
		if p.Inst.Status(ptx.Local) == process.Prepared {
			parts = append(parts, twopc.Participant{
				Sub: ptx.Sub, Tx: ptx.Tx, Proc: string(p.ID), Local: ptx.Local, Service: ptx.Service,
			})
		}
	}
	if len(parts) == 0 {
		return nil
	}
	if err := d.Coord.CommitAll(string(p.ID), parts); err != nil {
		return fmt.Errorf("scheduler: 2PC commit of %s: %w", p.ID, err)
	}
	for _, part := range parts {
		d.Metrics.TwoPCCommits++
		d.Reg.Inc(metrics.DeferredCommitted2PC)
		d.trace(metrics.TTwoPCCommit, p, part.Local, part.Service, "")
		if err := p.Inst.MarkCommitted(part.Local); err != nil {
			return fmt.Errorf("scheduler: %w", err)
		}
		d.Pol.FinalizeTentative(p.ID, part.Local, d.Host.NextSeq())
		p.TakePrepared(part.Local)
	}
	if p.blockedSince >= 0 {
		d.Reg.Observe(metrics.HistProcBlocked, d.Host.Now()-p.blockedSince)
		p.blockedSince = -1
	}
	d.Pol.Bump(p.ID)
	return nil
}

// Terminate emits the terminal event of a process.
func (d *Driver) Terminate(p *Proc, committed bool) bool {
	if !d.Host.ForceLog(wal.Record{Type: wal.RecTerminate, Proc: string(p.ID), Committed: committed}) {
		return false
	}
	p.Phase = policy.Done
	now := d.Host.Now()
	out := p.Outcome
	out.End = now
	out.Committed = committed
	out.Aborted = !committed
	out.Stands = committed || p.Inst.Mode() == process.FREC
	fate := "aborted"
	if committed {
		d.Metrics.CommittedProcs++
		d.Reg.Inc(metrics.ProcsCommitted)
		fate = "committed"
	} else {
		d.Metrics.AbortedProcs++
		d.Reg.Inc(metrics.ProcsAborted)
	}
	d.Reg.Observe(metrics.HistProcDuration, now-out.Start)
	d.trace(metrics.TTerminate, p, 0, "", fate)
	d.Pol.AppendEvent(d.event(policy.Event{Seq: d.Host.NextSeq(), Proc: p.ID, Typ: schedule.Terminate, Committed: committed}))
	p.Inst.MarkTerminated(committed)
	return true
}

// ChooseVictim picks the process whose abort breaks a scheduling stall:
// the youngest running process that is stalled at dispatch with nothing
// in flight; failing that, the youngest finished process blocked on its
// deferred 2PC commit, which can still deadlock with an aborting
// process's completion (it restarts afterwards). skip, when non-nil,
// exempts processes.
func (d *Driver) ChooseVictim(skip func(*Proc) bool) *Proc {
	pick := func(finished bool) *Proc {
		var victim *Proc
		for _, p := range d.procs {
			if p.Phase != policy.Running || !p.Idle() || p.AbortPending || p.Inst.Done() != finished || (skip != nil && skip(p)) {
				continue
			}
			if finished && (p.prepared == 0 || !d.Pol.HasActiveConflictPred(d, p.ID)) {
				continue
			}
			if victim == nil || p.Arrival > victim.Arrival {
				victim = p
			}
		}
		return victim
	}
	if victim := pick(false); victim != nil {
		return victim
	}
	return pick(true)
}

// MarkVictim requests the restartable abort of a chosen victim.
func (d *Driver) MarkVictim(p *Proc, why string) {
	d.Metrics.VictimAborts++
	d.Reg.Inc(metrics.VictimAborts)
	d.trace(metrics.TVictim, p, 0, "", why)
	p.Restartable = true
	p.AbortPending = true
	d.moved(p)
}

// Dump renders the live processes — each waiting one with its last Wait
// — the conflict edges and the in-doubt transactions for stall
// diagnostics.
func (d *Driver) Dump() string {
	var s string
	for _, p := range d.procs {
		if p.Phase == policy.Done {
			continue
		}
		s += fmt.Sprintf("  %s phase=%d mode=%v done=%v running=%d recovery=%d busy=%v abortPending=%v prepared=%d frontier=%v\n",
			p.ID, p.Phase, p.Inst.Mode(), p.Inst.Done(), p.running, len(p.Recovery), p.StepBusy, p.AbortPending, p.prepared, p.Inst.Frontier())
		if len(p.Recovery) > 0 {
			s += fmt.Sprintf("    next step: %v\n", p.Recovery[0])
		}
		if p.Wait.Rule != "" {
			s += "    wait " + p.Wait.String() + "\n"
		}
	}
	for _, k := range d.Pol.EdgeList() {
		s += fmt.Sprintf("  edge %s->%s\n", k[0], k[1])
	}
	for sub, recs := range d.Fed.InDoubt() {
		s += fmt.Sprintf("  in-doubt at %s: %v\n", sub, recs)
	}
	return s
}

// Checkpointer takes a fuzzy checkpoint (and optionally compacts the
// log) once Every force-log appends have accumulated. Checkpointing is
// an optimization: a failed attempt is dropped, never surfaced into the
// run. Injected crash sentinels do propagate — a crash inside a
// checkpoint is exactly what the torture battery exercises. The counter
// handshake runs under a leaf mutex and the checkpoint itself outside
// it, so an appender that does not go through the caller's serial
// section may append into the fuzzy window (wal.Expand tolerates the
// post-horizon tail). Every host calls Appended inside its serial
// section, so today only TestCheckpointConcurrentWithAppends exercises
// that window.
type Checkpointer struct {
	Every, Limit int // Config.CheckpointEvery, Config.CheckpointLimit
	Compact      bool
	Log          wal.Log
	Fed          *subsystem.Federation
	Conflicts    func(a, b string) bool
	Inject       func(point string)
	Reg          *metrics.Registry

	mu      sync.Mutex
	appends int
	taken   int
	busy    bool
}

// Appended counts one force-log append and checkpoints when due.
func (c *Checkpointer) Appended() {
	if c.Every <= 0 {
		return
	}
	c.mu.Lock()
	c.appends++
	due := !c.busy && c.appends >= c.Every && (c.Limit <= 0 || c.taken < c.Limit)
	if due {
		c.busy = true
		c.appends = 0
	}
	c.mu.Unlock()
	if !due {
		return
	}
	defer func() {
		c.mu.Lock()
		c.busy = false
		c.mu.Unlock()
	}()
	if _, err := wal.TakeCheckpoint(c.Log, c.Conflicts, c.Inject, c.Reg); err != nil {
		return
	}
	// Durable subsystems flush their pages at every checkpoint: the
	// write-ahead barrier inside the store has already forced the log,
	// and a bounded-replay recovery then also starts from near-fresh
	// pages. A flush error is dropped like a failed checkpoint — the
	// WAL remains the source of truth.
	if c.Fed.Durable() {
		c.Fed.FlushStores()
	}
	c.mu.Lock()
	c.taken++
	c.mu.Unlock()
	if c.Compact {
		if cp, ok := c.Log.(wal.Compactor); ok {
			cp.Compact(c.Inject)
		}
	}
}
