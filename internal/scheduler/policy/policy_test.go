package policy_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"transproc/internal/conflict"
	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler/policy"
)

// The tests below drive the decision functions directly over hand-built
// histories of the paper's example processes (internal/paper): P1 and
// P2 conflict on (a11, a21), (a12, a24) and (a15, a25); P3 conflicts
// with P1 on (a11, a31). Figure 7 is "a21 after a11 while P1 can still
// abort", Figure 8 is what must not follow from it (P2 passing its pivot
// a23), Figure 9 is the quasi-commit: once P1 committed its pivot a12,
// nothing it may still do conflicts with a31.

// proc is one row of the fake process table.
type proc struct {
	id       process.ID
	phase    policy.Phase
	inst     *process.Instance
	steps    []process.Step
	inFlight []string
}

// world is a policy state with a hand-written view and history.
type world struct {
	t     *testing.T
	st    *policy.State
	procs []*proc
	ids   []process.ID // Procs(), which the State reads at every decision
	seq   int64
}

// newWorld builds the state the way every host does.
func newWorld(t *testing.T, mode policy.Mode, table *conflict.Table, defs ...*process.Process) *world {
	w := &world{t: t, st: policy.New(table, policy.Config{Mode: mode})}
	for _, d := range defs {
		w.procs = append(w.procs, &proc{id: d.ID, inst: process.NewInstance(d)})
		w.ids = append(w.ids, d.ID)
	}
	return w
}

func (w *world) find(id process.ID) (int, *proc) {
	for i, p := range w.procs {
		if p.id == id {
			return i, p
		}
	}
	return -1, nil
}

func (w *world) Procs() []process.ID { return w.ids }

func (w *world) Phase(id process.ID) policy.Phase {
	if _, p := w.find(id); p != nil {
		return p.phase
	}
	return policy.Done
}

func (w *world) Arrival(id process.ID) int { i, _ := w.find(id); return i }

func (w *world) Instance(id process.ID) *process.Instance {
	if _, p := w.find(id); p != nil {
		return p.inst
	}
	return nil
}

func (w *world) RecoverySteps(id process.ID) []process.Step { _, p := w.find(id); return p.steps }
func (w *world) InFlight(id process.ID) []string            { _, p := w.find(id); return p.inFlight }

// exec puts the committed execution of an activity into the history.
func (w *world) exec(id process.ID, local int) {
	w.t.Helper()
	_, p := w.find(id)
	a := p.inst.Process().Activity(local)
	if err := p.inst.MarkCommitted(local); err != nil {
		w.t.Fatal(err)
	}
	w.seq++
	w.st.AppendEvent(&policy.Event{Seq: w.seq, Proc: id, Local: local, Service: a.Service, Kind: a.Kind, Typ: schedule.Invoke})
}

// prepare puts a prepared (commit deferred) execution into the history.
func (w *world) prepare(id process.ID, local int) {
	w.t.Helper()
	_, p := w.find(id)
	a := p.inst.Process().Activity(local)
	if err := p.inst.MarkPrepared(local); err != nil {
		w.t.Fatal(err)
	}
	w.seq++
	w.st.AppendEvent(&policy.Event{Seq: w.seq, Proc: id, Local: local, Service: a.Service, Kind: a.Kind, Typ: schedule.Invoke, Tentative: true})
}

// set changes a process's phase and queued completion.
func (w *world) set(id process.ID, ph policy.Phase, steps ...process.Step) {
	_, p := w.find(id)
	p.phase, p.steps = ph, steps
	w.st.Bump(id)
}

func compensate(local int, base string) process.Step {
	return process.Step{Kind: process.StepCompensate, Local: local, Service: process.DefaultCompensationName(base)}
}

func invoke(local int, svc string) process.Step {
	return process.Step{Kind: process.StepInvoke, Local: local, Service: svc}
}

func with(pairs ...[2]string) *conflict.Table {
	t := paper.Conflicts()
	for _, p := range pairs {
		t.AddConflict(p[0], p[1])
	}
	return t
}

func TestMayDispatchAndBlockers(t *testing.T) {
	p1, p2, p3 := paper.P1(), paper.P2(), paper.P3()
	// deny asserts MayDispatch's answer: the rule and the blockers.
	deny := func(t *testing.T, w *world, id process.ID, a *process.Activity, rule policy.Rule, blockers ...process.ID) {
		t.Helper()
		if got, ids := w.st.MayDispatch(w, id, a); got != rule || !slices.Equal(ids, blockers) {
			t.Errorf("MayDispatch(%s, %s) = %q %v, want %q %v", id, a.Service, got, ids, rule, blockers)
		}
	}

	t.Run("figure 8: a21 behind backward-recoverable P1 is denied", func(t *testing.T) {
		w := newWorld(t, policy.PRED, paper.Conflicts(), p1, p2)
		w.exec("P1", 1)
		deny(t, w, "P2", p2.Activity(1), policy.RuleLemma1, "P1")
		// Once P1 terminated the dependency is on history, not on an
		// active process.
		w.set("P1", policy.Done)
		deny(t, w, "P2", p2.Activity(1), "")
	})

	t.Run("figure 9: a31 behind quasi-committed P1 is allowed", func(t *testing.T) {
		w := newWorld(t, policy.PRED, paper.Conflicts(), p1, p3)
		w.exec("P1", 1)
		w.exec("P1", 2) // pivot a12: P1 is forward-recoverable, a11 is locked in
		deny(t, w, "P3", p3.Activity(1), "")
	})

	t.Run("figure 7 under PRED: waits for a12", func(t *testing.T) {
		// Figure 7 runs the compensatable a21 right behind a11 and would
		// cascade-abort P2 if P1 unwound. PRED takes no such dependency
		// (DESIGN.md §6 note 4): a21 is held behind P1 by Lemma 1
		// until the pivot a12 locks a11 in.
		w := newWorld(t, policy.PRED, paper.Conflicts(), p1, p2)
		w.exec("P1", 1)
		deny(t, w, "P2", p2.Activity(1), policy.RuleLemma1, "P1")
		w.exec("P1", 2)
		deny(t, w, "P2", p2.Activity(1), "")
	})

	t.Run("blockers in admission order", func(t *testing.T) {
		// P3 and P1 both ran a service a21 conflicts with; P3 was
		// admitted first, so it leads the list whatever the ids say.
		table := with([2]string{"a31", "a21"})
		w := newWorld(t, policy.PRED, table, p3, p1, p2)
		w.exec("P1", 1)
		w.exec("P3", 1)
		deny(t, w, "P2", p2.Activity(1), policy.RuleLemma1, "P3", "P1")
	})

	t.Run("non-conflicting and admission-level modes", func(t *testing.T) {
		w := newWorld(t, policy.PRED, paper.Conflicts(), p1, p2)
		w.exec("P1", 1)
		deny(t, w, "P2", p2.Activity(2), "") // a22 conflicts with nothing
		for _, mode := range []policy.Mode{policy.Serial, policy.Conservative, policy.CCOnly} {
			w := newWorld(t, mode, paper.Conflicts(), p1, p2)
			w.exec("P1", 1)
			deny(t, w, "P2", p2.Activity(1), "")
		}
		// CC-only still refuses a conflict cycle: a11 a21 a25 then a15
		// would order P1 both before and after P2.
		cc := newWorld(t, policy.CCOnly, paper.Conflicts(), p1, p2)
		cc.exec("P1", 1)
		cc.exec("P2", 1)
		cc.exec("P2", 5)
		deny(t, cc, "P1", p1.Activity(5), policy.RuleCycle)
	})
}

// TestLemma1DenialAllocatesNothing holds the policy's answer to a
// Lemma-1 denial to data: the rule and the blockers, from a buffer the
// State reuses, with no text formatted for it.
func TestLemma1DenialAllocatesNothing(t *testing.T) {
	p1, p2 := paper.P1(), paper.P2()
	w := newWorld(t, policy.PRED, paper.Conflicts(), p1, p2)
	w.exec("P1", 1)
	if rule, _ := w.st.MayDispatch(w, "P2", p2.Activity(1)); rule != policy.RuleLemma1 {
		t.Fatalf("MayDispatch = %q, want a Lemma 1 denial", rule)
	}
	if n := testing.AllocsPerRun(100, func() { w.st.MayDispatch(w, "P2", p2.Activity(1)) }); n != 0 {
		t.Errorf("a Lemma-1 denial allocates %v times per call", n)
	}
}

func TestHasActiveConflictPred(t *testing.T) {
	w := newWorld(t, policy.PRED, paper.Conflicts(), paper.P1(), paper.P2())
	w.exec("P1", 1)
	w.exec("P2", 1)
	if !w.st.HasActiveConflictPred(w, "P2") {
		t.Error("P2 follows a11 of the running P1: its commit must be deferred")
	}
	if got := w.st.ActiveConflictPreds(w, "P2"); !reflect.DeepEqual(got, []process.ID{"P1"}) {
		t.Errorf("ActiveConflictPreds(P2) = %v, want [P1]", got)
	}
	if w.st.HasActiveConflictPred(w, "P1") {
		t.Error("P1 has no predecessor")
	}
	// The boolean form sits on the commit path of every host.
	if n := testing.AllocsPerRun(100, func() { w.st.HasActiveConflictPred(w, "P2") }); n != 0 {
		t.Errorf("HasActiveConflictPred allocates %v times per call", n)
	}
	w.set("P1", policy.Done)
	if w.st.HasActiveConflictPred(w, "P2") || len(w.st.ActiveConflictPreds(w, "P2")) != 0 {
		t.Error("a terminated predecessor defers nothing")
	}
}

func TestModeNamesRoundTrip(t *testing.T) {
	for _, m := range []policy.Mode{policy.PRED, policy.Serial, policy.Conservative, policy.CCOnly} {
		if got, err := policy.ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := policy.ParseMode(""); err != nil || got != policy.PRED {
		t.Errorf(`ParseMode("") = %v, %v, want pred`, got, err)
	}
	if _, err := policy.ParseMode("pred-cascade"); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf(`ParseMode("pred-cascade") error = %v, want unknown mode`, err)
	}
}

func TestLemma1ClearForward(t *testing.T) {
	p1, p2 := paper.P1(), paper.P2()
	a24 := invoke(4, paper.SvcA24)
	// Allow: P1 committed its pivot a12, which conflicts with a24, but it
	// is forward-recoverable and can no longer produce anything that
	// conflicts with a24.
	w := newWorld(t, policy.PRED, paper.Conflicts(), p1, p2)
	w.exec("P1", 1)
	w.exec("P1", 2)
	w.set("P2", policy.Aborting, a24)
	if got := w.st.Lemma1ForwardBlockers(w, "P2", a24); got != nil {
		t.Errorf("a24 behind forward-recoverable P1 must be clear, blockers %v", got)
	}
	// Deny: with (a11, a24) conflicting, P1 — still backward-recoverable
	// after a11 — may compensate a11 after our a24.
	w = newWorld(t, policy.PRED, with([2]string{paper.SvcA11, paper.SvcA24}), p1, p2)
	w.exec("P1", 1)
	w.set("P2", policy.Aborting, a24)
	if got := w.st.Lemma1ForwardBlockers(w, "P2", a24); !reflect.DeepEqual(got, []process.ID{"P1"}) {
		t.Errorf("a24 behind backward-recoverable P1 must wait on it, blockers %v", got)
	}
	// An aborting predecessor is waited for through its queued
	// compensations (Lemma 3), not here.
	w.set("P1", policy.Aborting, compensate(1, paper.SvcA11))
	if got := w.st.Lemma1ForwardBlockers(w, "P2", a24); got != nil {
		t.Errorf("an aborting predecessor must not block Lemma 1's forward gate, blockers %v", got)
	}
}

func TestLemma2Clear(t *testing.T) {
	// Figure 7's completion: a21 followed a11, so a21⁻¹ precedes a11⁻¹.
	w := newWorld(t, policy.PRED, paper.Conflicts(), paper.P1(), paper.P2())
	w.exec("P1", 1)
	w.exec("P2", 1)
	if got := w.st.Lemma2Blockers(w, "P1", compensate(1, paper.SvcA11)); !reflect.DeepEqual(got, []process.ID{"P2"}) {
		t.Errorf("a11⁻¹ must wait for the later conflicting a21 of the active P2, blockers %v", got)
	}
	if got := w.st.Lemma2Blockers(w, "P2", compensate(1, paper.SvcA21)); got != nil {
		t.Errorf("a21⁻¹ has nothing after it, blockers %v", got)
	}
	w.st.MarkCompensated("P2", 1)
	if got := w.st.Lemma2Blockers(w, "P1", compensate(1, paper.SvcA11)); got != nil {
		t.Errorf("a11⁻¹ is clear once a21 is compensated, blockers %v", got)
	}
}

func TestLemma3Clear(t *testing.T) {
	// With (a11, a33) conflicting, P3's retriable a33 must follow P1's
	// queued a11⁻¹.
	w := newWorld(t, policy.PRED, with([2]string{paper.SvcA11, paper.SvcA33}), paper.P1(), paper.P3())
	w.exec("P1", 1)
	a33 := invoke(3, paper.SvcA33)
	w.set("P1", policy.Aborting, compensate(1, paper.SvcA11))
	if got := w.st.Lemma3Blockers(w, "P3", a33); !reflect.DeepEqual(got, []process.ID{"P1"}) {
		t.Errorf("a33 must wait for P1's queued conflicting compensation a11⁻¹, blockers %v", got)
	}
	w.set("P1", policy.Aborting) // compensation done
	if got := w.st.Lemma3Blockers(w, "P3", a33); got != nil {
		t.Errorf("a33 is clear once no conflicting compensation is queued, blockers %v", got)
	}
	// A restart: every process enters aborting and no decision has named
	// a service yet. A mask that only knew the services interned so far
	// made a33 "conflict with nothing" and waved it through.
	w = newWorld(t, policy.PRED, with([2]string{paper.SvcA11, paper.SvcA33}), paper.P1(), paper.P3())
	w.set("P1", policy.Aborting, compensate(1, paper.SvcA11))
	w.set("P3", policy.Aborting, a33)
	if got := w.st.Lemma3Blockers(w, "P3", a33); !reflect.DeepEqual(got, []process.ID{"P1"}) {
		t.Errorf("fresh state: a33 must wait for the queued conflicting compensation a11⁻¹, blockers %v", got)
	}
}

func TestStepForcedClear(t *testing.T) {
	p1, p2 := paper.P1(), paper.P2()
	a24 := invoke(4, paper.SvcA24)
	// Allow: a12 before a24 orders P1 before P2 and nothing orders them
	// the other way.
	w := newWorld(t, policy.PRED, paper.Conflicts(), p1, p2)
	w.exec("P1", 1)
	w.exec("P1", 2)
	w.set("P2", policy.Aborting, a24)
	if !w.st.StepForcedClear(w, "P2", a24) {
		t.Error("a24 after a12 closes no cycle")
	}
	// Deny: a21 ran before a11, so P2 is already before P1; a24 after
	// a12 would also put P1 before P2.
	w = newWorld(t, policy.PRED, paper.Conflicts(), p1, p2)
	w.exec("P2", 1)
	w.exec("P1", 1)
	w.exec("P1", 2)
	w.set("P2", policy.Aborting, a24)
	if w.st.StepForcedClear(w, "P2", a24) {
		t.Error("a24 after a12 closes the cycle P2→P1→P2 while P1 is active")
	}
}

func TestDeferToAborting(t *testing.T) {
	p1, p2 := paper.P1(), paper.P2()
	a15, a25 := invoke(5, paper.SvcA15), invoke(5, paper.SvcA25)
	// Deny (defer): P1 is aborting with a15 queued, a25 conflicts with
	// it, and a11 before a21 forces P1 before P2.
	w := newWorld(t, policy.PRED, paper.Conflicts(), p1, p2)
	w.exec("P1", 1)
	w.exec("P2", 1)
	w.set("P1", policy.Aborting, a15)
	w.set("P2", policy.Aborting, a25)
	if to, deferred := w.st.DeferToAborting(w, "P2", a25); !deferred || to != "P1" {
		t.Errorf("DeferToAborting(P2, a25) = %q %v, want P1", to, deferred)
	}
	// The older P1 does not defer to the younger P2 in return.
	if to, deferred := w.st.DeferToAborting(w, "P1", a15); deferred {
		t.Errorf("P1 defers to %q", to)
	}
	// Allow: without the a11/a21 history nothing is forced between them.
	w = newWorld(t, policy.PRED, paper.Conflicts(), p1, p2)
	w.set("P1", policy.Aborting, a15)
	w.set("P2", policy.Aborting, a25)
	if to, deferred := w.st.DeferToAborting(w, "P2", a25); deferred {
		t.Errorf("unforced: P2 defers to %q", to)
	}
}

func TestTentativeEventLifecycle(t *testing.T) {
	w := newWorld(t, policy.PRED, paper.Conflicts(), paper.P1(), paper.P2())
	w.exec("P1", 1)
	w.prepare("P2", 1) // a21 prepared, commit deferred
	if !w.st.HasActiveConflictPred(w, "P2") {
		t.Fatal("a prepared a21 already follows a11")
	}
	// Rolled back: the event and its edge vanish, once.
	if !w.st.EraseTentative("P2", 1) {
		t.Fatal("EraseTentative found no live tentative event")
	}
	if w.st.EraseTentative("P2", 1) {
		t.Error("EraseTentative erased the same event twice")
	}
	if w.st.HasActiveConflictPred(w, "P2") || w.st.BaseSeq("P2", 1) != 0 {
		t.Error("an erased event still contributes")
	}

	// Prepared again, then committed at 2PC time: the event is no longer
	// tentative and joins the schedule at its commit point, after the a12
	// that ran in between. In the record it keeps its place.
	if err := w.Instance("P2").ResetPrepared(1); err != nil {
		t.Fatal(err)
	}
	w.prepare("P2", 1)
	w.exec("P1", 2)
	if !w.st.FinalizeTentative("P2", 1, 10) {
		t.Fatal("FinalizeTentative found no live tentative event")
	}
	events := w.st.Events()
	if ev := events[len(events)-2]; ev.Proc != "P2" || ev.Seq != 10 || ev.Tentative {
		t.Errorf("finalized event is %v, want P2/1 at seq 10", ev)
	}
	sched := w.st.BuildSchedule([]*process.Process{paper.P1(), paper.P2()}).Events()
	if last := sched[len(sched)-1]; last.Proc != "P2" || last.Local != 1 {
		t.Errorf("the schedule ends with %v, want the finalized P2/1", last)
	}
	if w.st.BaseSeq("P2", 1) != 10 {
		t.Errorf("BaseSeq = %d, want the commit point 10", w.st.BaseSeq("P2", 1))
	}
	if w.st.FinalizeTentative("P2", 1, 11) || w.st.EraseTentative("P2", 1) {
		t.Error("a finalized event is still treated as tentative")
	}
	if !w.st.HasActiveConflictPred(w, "P2") {
		t.Error("the committed a21 must keep its edge from a11")
	}

	// Compensated: the base stops contributing edges.
	w.st.MarkCompensated("P2", 1)
	if w.st.HasActiveConflictPred(w, "P2") || w.st.BaseSeq("P2", 1) != 0 {
		t.Error("a compensated base still contributes")
	}
}
