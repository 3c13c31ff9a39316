package scheduler

import (
	"errors"
	"fmt"
	"sort"
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

// PreparedTx is a local transaction in the prepared state.
type PreparedTx struct {
	Sub     *subsystem.Subsystem
	Tx      subsystem.TxID
	Service string
	Weak    bool // invoked under the weak order (Section 3.6)
}

// Work is one invocation handed to a host: a frontier activity, or the
// recovery step at the head of the process's queue.
type Work struct {
	Local   int
	Service string
	Kind    activity.Kind
	IsStep  bool
	Step    process.Step
	Weak    bool // invoked under the weak order (Section 3.6)
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
	// Arrival is the admission rank (age priority, victim choice).
	Arrival  int
	Restarts int

	Recovery []process.Step // queued recovery steps (strictly sequential)
	StepBusy bool           // the head recovery step is in flight
	StepSvc  string
	Running  map[int]string // in-flight invocations: local -> service
	Prepared map[int]PreparedTx

	AbortPending bool // abort requested, waiting for in-flight work to drain
	Restartable  bool // restart after the abort completes
	keySeq       int  // idempotency-key counter (resilient invocations)

	Outcome *Outcome
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
		Running:      make(map[int]string),
		Prepared:     make(map[int]PreparedTx),
		Outcome:      &Outcome{Restarts: restarts},
		blockedSince: -1,
	}
}

// Restarted creates the incarnation that re-enters, under a derived id,
// after this one aborted restartably.
func (p *Proc) Restarted() *Proc {
	return NewProc(p.Def.WithID(p.Base.Restart(p.Restarts+1)), p.Arrival, p.Origin, p.Base, p.Restarts+1)
}

// PredsCommitted reports whether every intra-process predecessor of the
// activity is fully committed: a prepared non-compensatable defers its
// successors, so that a rolled-back prepared transaction never has
// committed successors.
func (p *Proc) PredsCommitted(local int) bool {
	for _, h := range p.Def.Preds(local) {
		if p.Inst.Status(h) != process.Committed {
			return false
		}
	}
	return true
}

// StepWork is the invocation of a recovery step of the process.
func (p *Proc) StepWork(st process.Step) Work {
	kind := activity.Compensation
	if st.Kind == process.StepInvoke {
		kind = p.Def.Activity(st.Local).Kind
	}
	return Work{Local: st.Local, Service: st.Service, Kind: kind, IsStep: true, Step: st}
}

// Idle reports whether the process has nothing in flight.
func (p *Proc) Idle() bool { return len(p.Running) == 0 && !p.StepBusy }

// Table is the process table of one serial section and the only
// policy.View: the decisions read phases, instances, recovery queues and
// in-flight sets straight from the Procs the transitions mutate.
type Table struct {
	procs []*Proc // admission order (includes done)
	ids   []process.ID
	byID  map[process.ID]*Proc
	// flight is the result buffer of InFlight, which the policy reads
	// for every live process on every round.
	flight []string
}

// Add appends an admitted process.
func (t *Table) Add(p *Proc) {
	if t.byID == nil {
		t.byID = make(map[process.ID]*Proc)
	}
	t.procs = append(t.procs, p)
	t.ids = append(t.ids, p.ID)
	t.byID[p.ID] = p
}

// Get returns the process, or nil.
func (t *Table) Get(id process.ID) *Proc { return t.byID[id] }

// All lists the admitted processes in admission order; callers must not
// mutate the slice.
func (t *Table) All() []*Proc { return t.procs }

func (t *Table) Procs() []process.ID { return t.ids }

func (t *Table) Phase(id process.ID) policy.Phase {
	if p := t.byID[id]; p != nil {
		return p.Phase
	}
	return policy.Done
}

func (t *Table) Arrival(id process.ID) int {
	if p := t.byID[id]; p != nil {
		return p.Arrival
	}
	return 0
}

func (t *Table) Instance(id process.ID) *process.Instance {
	if p := t.byID[id]; p != nil {
		return p.Inst
	}
	return nil
}

func (t *Table) RecoverySteps(id process.ID) []process.Step {
	if p := t.byID[id]; p != nil {
		return p.Recovery
	}
	return nil
}

func (t *Table) InFlight(id process.ID) []string {
	p := t.byID[id]
	if p == nil {
		return nil
	}
	out := t.flight[:0]
	for _, svc := range p.Running {
		out = append(out, svc)
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
	// Resilience, when non-nil, carries strong-order invocations (see
	// Config.Resilience).
	Resilience subsystem.ResilientInvoker
	Metrics    Metrics
}

// trace records a decision event. Callers whose detail argument costs
// something to build (a formatted reason, FirstActivePred) guard it with
// d.Reg != nil themselves.
func (d *Driver) trace(kind metrics.TraceKind, p *Proc, local int, service, other string) {
	if d.Reg != nil {
		d.Reg.Trace(kind, d.Host.Now(), string(p.ID), local, service, other)
	}
}

// Cost is the virtual duration of a service invocation.
func (d *Driver) Cost(service string) int64 {
	spec, ok := d.Fed.Spec(service)
	if !ok || spec.Cost < 1 {
		return 1
	}
	return int64(spec.Cost)
}

// Admit logs the start of a process and enters it into the table.
func (d *Driver) Admit(p *Proc) bool {
	if !d.Host.ForceLog(wal.Record{Type: wal.RecStart, Proc: string(p.ID)}) {
		return false
	}
	p.Outcome.Start = d.Host.Now()
	d.Add(p)
	d.Reg.Inc(metrics.ProcsAdmitted)
	d.trace(metrics.TAdmit, p, 0, "", "")
	d.Pol.Bump()
	return true
}

// MayDispatch is the policy gate of a frontier activity; a denial is
// counted and traced with the denying rule.
func (d *Driver) MayDispatch(p *Proc, a *process.Activity) bool {
	ok, why := d.Pol.MayDispatch(d, p.ID, a)
	if !ok {
		d.Metrics.PolicyWaits++
		d.Reg.Inc(metrics.InvokePolicyBlocked)
		d.trace(metrics.TPolicyWait, p, a.Local, a.Service, why)
	}
	return ok
}

// LockWait counts and traces an invocation denied by subsystem locks.
func (d *Driver) LockWait(p *Proc, w Work, why string) {
	d.Metrics.LockWaits++
	d.Reg.Inc(metrics.InvokeLockBlocked)
	d.trace(metrics.TLockWait, p, w.Local, w.Service, why)
}

// StepGate decides whether the recovery step at the head of p's queue
// may be invoked now: a compensation waits while another active process
// holds conflicting work executed after its base (Lemma 2); a
// forward-recovery invocation waits for conflicting queued compensations
// (Lemma 3), for active conflict predecessors that may still need a
// conflicting recovery (Lemma 1), for forced-order cycles that waiting
// can break, and for aborting processes whose conflicting forward steps
// are forced before it. CCOnly ignores recovery ordering.
func (d *Driver) StepGate(p *Proc, st process.Step) bool {
	if d.Pol.Mode() == CCOnly {
		return true
	}
	why := ""
	switch st.Kind {
	case process.StepCompensate:
		if !d.Pol.Lemma2Clear(d, p.ID, st) {
			why = "lemma2"
		}
	case process.StepInvoke:
		switch {
		case !d.Pol.Lemma3Clear(d, p.ID, st):
			why = "lemma3"
		case !d.Pol.Lemma1ClearForward(d, p.ID, st):
			why = "lemma1fwd"
		case !d.Pol.StepForcedClear(d, p.ID, st):
			why = "forced-cycle"
		default:
			if o, wait := d.Pol.DeferToAborting(d, p.ID, st); wait {
				why = "defer-to-aborting"
				if d.Reg != nil {
					why = "defer-to-" + string(o)
				}
			}
		}
	}
	if why == "" {
		return true
	}
	d.Metrics.PolicyWaits++
	d.trace(metrics.TPolicyWait, p, st.Local, st.Service, why)
	return false
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
		p.Running[w.Local] = w.Service
	}
	d.Pol.Bump()
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
		delete(p.Running, w.Local)
	}
	d.Pol.Bump()
}

// InvokeKey allocates the idempotency key of one logical invocation:
// fresh per invocation and per incarnation (the id carries the restart
// suffix), reused by the resilience layer across transport attempts.
// "" without a resilience layer.
func (d *Driver) InvokeKey(p *Proc) string {
	if d.Resilience == nil {
		return ""
	}
	key := fmt.Sprintf("%s#%d", p.ID, p.keySeq)
	p.keySeq++
	return key
}

// Invoke performs the strong-order subsystem invocation of a work item
// into the prepared state. It reads only immutable fields of p, so a host
// may call it outside its serial section. res is nil when the invocation
// provably left no prepared transaction: locked (item locks held; retry
// later), or failed — a genuine local abort, or a transport failure the
// resilience layer could not mask (retry budget exhausted, circuit open,
// non-retriable kind), which Complete takes down the failure path.
func (d *Driver) Invoke(p *Proc, w Work, key string) (res *subsystem.Result, extraLat int64, locked bool) {
	var err error
	if d.Resilience != nil {
		res, extraLat, err = d.Resilience.InvokeResilient(string(p.Origin), w.Service, w.Kind, subsystem.Prepare, key)
	} else {
		res, err = d.Fed.Invoke(string(p.Origin), w.Service, subsystem.Prepare)
	}
	res, locked = invoked(p, w, res, err)
	return res, extraLat, locked
}

// invoked sorts a subsystem's answer to an invocation into prepared
// (res), locked, or failed (neither); anything else is a broken world.
func invoked(p *Proc, w Work, res *subsystem.Result, err error) (*subsystem.Result, bool) {
	switch {
	case errors.Is(err, subsystem.ErrLocked):
		return nil, true
	case subsystem.IsInvocationFailure(err):
		return nil, false
	case err != nil:
		panic(fmt.Sprintf("scheduler: invoke %s/%s: %v", p.ID, w.Service, err))
	}
	return res, false
}

// CommitsNow decides whether an activity's local transaction commits
// right at completion. Compensatable activities always do (they are
// undoable); non-compensatable ones only when the mode ignores recovery
// (CCOnly) or never interleaves (Serial/Conservative), or when the
// process has no active conflicting predecessor (Lemma 1's deferral
// condition is already satisfied).
func (d *Driver) CommitsNow(p *Proc, kind activity.Kind) bool {
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
	sub, _ := d.Fed.Owner(w.Service)
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
	d.Reg.ObserveService(w.Service, d.Cost(w.Service))
	switch {
	case w.IsStep:
		return d.completeStep(p, w, sub, res)
	case orphaned:
		// The outcome is discarded; a successful local transaction is
		// rolled back — atomicity guarantees no effects.
		if res != nil {
			d.rollback(p, w.Local, PreparedTx{Sub: sub, Tx: res.Tx, Service: w.Service}, metrics.RollbacksOrphaned, "orphaned completion")
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
	ev := &policy.Event{
		Seq: d.Host.NextSeq(), Proc: p.ID, Local: w.Local, Service: w.Service, Kind: w.Kind, Typ: schedule.Invoke,
	}
	if d.CommitsNow(p, w.Kind) {
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
		d.trace(metrics.TDeferCommit, p, w.Local, w.Service, d.Pol.FirstActivePred(d, p.ID))
	}
	if err := p.Inst.MarkPrepared(w.Local); err != nil {
		return fmt.Errorf("scheduler: %w", err)
	}
	p.Prepared[w.Local] = PreparedTx{Sub: sub, Tx: res.Tx, Service: w.Service, Weak: w.Weak}
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
	ev := &policy.Event{
		Seq: d.Host.NextSeq(), Proc: p.ID, Local: w.Local, Service: w.Service, Kind: w.Kind, Typ: schedule.Invoke,
	}
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
	d.Pol.AppendEvent(&policy.Event{
		Seq: d.Host.NextSeq(), Proc: p.ID, Local: w.Local, Service: w.Service, Kind: w.Kind, Typ: schedule.FailedInvoke,
	})
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
	}
	d.Reg.Inc(counter)
	d.trace(kind, p, local, service, "")
	d.Pol.AppendEvent(&policy.Event{Seq: d.Host.NextSeq(), Proc: p.ID, Typ: schedule.AbortBegin})
	return true
}

// rollback aborts a prepared local transaction and logs the resolution.
// A transaction the subsystem no longer knows is left alone.
func (d *Driver) rollback(p *Proc, local int, ptx PreparedTx, counter metrics.CounterID, why string) {
	if err := ptx.Sub.AbortPrepared(ptx.Tx); err != nil {
		return
	}
	d.Metrics.Rollbacks++
	d.Reg.Inc(counter)
	d.trace(metrics.TRollback, p, local, ptx.Service, why)
	d.Host.ForceLog(wal.Record{
		Type: wal.RecResolved, Proc: string(p.ID), Local: local,
		Service: ptx.Service, Subsystem: ptx.Sub.Name(), Tx: int64(ptx.Tx), Commit: false,
	})
}

// AbortPreparedStep resolves the StepAbortPrepared at the head of p's
// recovery queue: the prepared transaction of an abandoned branch is
// rolled back and its tentative event erased with its edges.
func (d *Driver) AbortPreparedStep(p *Proc) {
	st := p.Recovery[0]
	p.Recovery = p.Recovery[1:]
	if ptx, ok := p.Prepared[st.Local]; ok {
		d.rollback(p, st.Local, ptx, metrics.DeferredRolledBack, "abandoned branch")
		delete(p.Prepared, st.Local)
	}
	d.Pol.EraseTentative(p.ID, st.Local)
	_ = p.Inst.ApplyStep(st)
	d.Pol.Bump()
}

// RollbackLeftovers rolls back whatever an aborting process still holds
// prepared once its completion drained (a safety net: the completion
// normally contains explicit StepAbortPrepared steps).
func (d *Driver) RollbackLeftovers(p *Proc) {
	for l, ptx := range p.Prepared {
		d.rollback(p, l, ptx, metrics.DeferredRolledBack, "abort leftover")
		d.Pol.EraseTentative(p.ID, l)
		delete(p.Prepared, l)
	}
}

// HasDeferred reports whether the process holds a prepared local whose
// commit is deferred (one a failure plan abandoned is not: the queued
// StepAbortPrepared resolves it).
func (p *Proc) HasDeferred() bool {
	for l := range p.Prepared {
		if p.Inst.Status(l) == process.Prepared {
			return true
		}
	}
	return false
}

// Lemma1Blocked reports whether an active conflicting predecessor still
// holds back the 2PC commit of p's prepared set.
func (d *Driver) Lemma1Blocked(p *Proc) bool {
	if !d.Pol.HasActiveConflictPred(d, p.ID) {
		return false
	}
	if p.blockedSince < 0 {
		p.blockedSince = d.Host.Now()
	}
	return true
}

// CommitPreparedSet performs the atomic 2PC commit of p's prepared set
// once Lemma 1 released it. false without an error means the set did not
// commit yet (a weak-order participant must wait or was rolled back for
// re-invocation).
func (d *Driver) CommitPreparedSet(p *Proc) (bool, error) {
	locals := make([]int, 0, len(p.Prepared))
	for l := range p.Prepared {
		if p.Inst.Status(l) == process.Prepared {
			locals = append(locals, l)
		}
	}
	sort.Ints(locals)
	if len(locals) == 0 {
		return true, nil
	}
	// Weak-order preflight: every weakly invoked participant must be
	// committable (its commit-order predecessors committed). A still-
	// pending predecessor delays the whole set; an aborted predecessor
	// rolls the participant back for re-invocation.
	for _, l := range locals {
		ptx := p.Prepared[l]
		if !ptx.Weak {
			continue
		}
		switch err := ptx.Sub.WeakCommittable(ptx.Tx); {
		case errors.Is(err, subsystem.ErrOrder):
			d.weakWait(p, l, ptx.Service)
			return false, nil
		case errors.Is(err, subsystem.ErrDependencyAborted):
			d.Reg.Inc(metrics.DeferredRolledBack)
			if err := d.weakRestart(p, l, ptx); err != nil {
				return false, err
			}
			if err := p.Inst.ResetPrepared(l); err != nil {
				return false, fmt.Errorf("scheduler: %w", err)
			}
			d.Pol.EraseTentative(p.ID, l)
			delete(p.Prepared, l)
			d.Pol.Bump()
			return false, nil // the activity re-invokes; try again later
		case err != nil:
			return false, fmt.Errorf("scheduler: weak committable: %w", err)
		}
	}
	parts := make([]twopc.Participant, 0, len(locals))
	for _, l := range locals {
		ptx := p.Prepared[l]
		parts = append(parts, twopc.Participant{
			Sub: ptx.Sub, Tx: ptx.Tx, Proc: string(p.ID), Local: l, Service: ptx.Service,
		})
	}
	if err := d.Coord.CommitAll(string(p.ID), parts); err != nil {
		return false, fmt.Errorf("scheduler: 2PC commit of %s: %w", p.ID, err)
	}
	for _, l := range locals {
		d.Metrics.TwoPCCommits++
		d.Reg.Inc(metrics.DeferredCommitted2PC)
		d.trace(metrics.TTwoPCCommit, p, l, p.Prepared[l].Service, "")
		if err := p.Inst.MarkCommitted(l); err != nil {
			return false, fmt.Errorf("scheduler: %w", err)
		}
		d.Pol.FinalizeTentative(p.ID, l, d.Host.NextSeq())
		delete(p.Prepared, l)
	}
	if p.blockedSince >= 0 {
		d.Reg.Observe(metrics.HistProcBlocked, d.Host.Now()-p.blockedSince)
		p.blockedSince = -1
	}
	d.Pol.Bump()
	return true, nil
}

// weakWait counts a weak commit delayed by its commit-order
// predecessors (Section 3.6).
func (d *Driver) weakWait(p *Proc, local int, service string) {
	d.Metrics.WeakOrderWaits++
	d.Reg.Inc(metrics.WeakOrderWaits)
	d.trace(metrics.TWeakWait, p, local, service, "")
}

// weakRestart rolls back a weakly invoked transaction whose commit-order
// predecessor aborted; the activity stays pending and is re-invoked —
// this is not a failure of the process (Section 3.6).
func (d *Driver) weakRestart(p *Proc, local int, ptx PreparedTx) error {
	d.Metrics.WeakRestarts++
	d.Reg.Inc(metrics.WeakRestarts)
	d.trace(metrics.TWeakRestart, p, local, ptx.Service, "")
	if err := ptx.Sub.AbortPrepared(ptx.Tx); err != nil {
		return fmt.Errorf("scheduler: weak rollback %s/%s: %w", p.ID, ptx.Service, err)
	}
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
	d.Pol.AppendEvent(&policy.Event{Seq: d.Host.NextSeq(), Proc: p.ID, Typ: schedule.Terminate, Committed: committed})
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
			if finished && (len(p.Prepared) == 0 || !d.Pol.HasActiveConflictPred(d, p.ID)) {
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
}

// Dump renders the live processes, the conflict edges and the in-doubt
// transactions for stall diagnostics.
func (d *Driver) Dump() string {
	var s string
	for _, p := range d.procs {
		if p.Phase == policy.Done {
			continue
		}
		s += fmt.Sprintf("  %s phase=%d mode=%v done=%v running=%d recovery=%d busy=%v abortPending=%v prepared=%d frontier=%v\n",
			p.ID, p.Phase, p.Inst.Mode(), p.Inst.Done(), len(p.Running), len(p.Recovery), p.StepBusy, p.AbortPending, len(p.Prepared), p.Inst.Frontier())
		if len(p.Recovery) > 0 {
			s += fmt.Sprintf("    next step: %v\n", p.Recovery[0])
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
