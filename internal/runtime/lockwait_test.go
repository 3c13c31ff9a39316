package runtime

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"transproc/internal/activity"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
)

// These tests drive the item-lock wait handling of step / driveLocked on
// a hand-built federation. They run CCOnly on purpose: under PRED the
// policy denies first. A held item lock belongs to an activity that is in
// flight or prepared, both of which keep its service in the holder's
// potential-recovery set, so the holder is never quasi-safe for a service
// the lock refuses and Lemma 1 names it as the blocker before the probe
// is asked. (The one PRED geometry left is a commutative family degraded
// to exclusive by a second family of the same process whose branch was
// abandoned afterwards.) CCOnly has no Lemma 1 and commits at completion,
// so a lock is held exactly while its invocation is in flight — and the
// scripted invoker below decides for how long.

// scripted is the invocation seam (Config.Resilience) with per-invocation
// scripts keyed "proc/service"; a script gets the real invocation to call
// when it wants the subsystem to see it.
type scripted struct {
	fed *subsystem.Federation
	on  map[string]func(invoke func() (*subsystem.Result, error)) (*subsystem.Result, error)
}

func (s *scripted) InvokeResilient(proc, service string, _ activity.Kind, mode subsystem.Mode, _ string) (*subsystem.Result, int64, error) {
	invoke := func() (*subsystem.Result, error) { return s.fed.Invoke(proc, service, mode) }
	if script := s.on[proc+"/"+service]; script != nil {
		res, err := script(invoke)
		return res, 0, err
	}
	res, err := invoke()
	return res, 0, err
}

// lockWorld is one subsystem: w, c and c⁻¹ write item a (so they
// conflict and share a lock), pre and d touch items of their own.
type lockWorld struct {
	t    *testing.T
	sub  *subsystem.Subsystem
	rt   *Runtime
	inv  *scripted
	ctx  context.Context
	done chan *Result
}

func newLockWorld(t *testing.T, mode scheduler.Mode) *lockWorld {
	t.Helper()
	sub := subsystem.New("rm", 1)
	sub.MustRegister(activity.Spec{Name: "w", Kind: activity.Pivot, Subsystem: "rm", WriteSet: []string{"a"}})
	sub.MustRegister(activity.Spec{Name: "c", Kind: activity.Compensatable, Compensation: "c⁻¹", Subsystem: "rm", WriteSet: []string{"a"}})
	sub.MustRegister(activity.Spec{Name: "pre", Kind: activity.Compensatable, Compensation: "pre⁻¹", Subsystem: "rm", WriteSet: []string{"b"}})
	sub.MustRegister(activity.Spec{Name: "d", Kind: activity.Pivot, Subsystem: "rm", WriteSet: []string{"e"}})
	fed := subsystem.NewFederation()
	fed.MustAdd(sub)
	inv := &scripted{fed: fed, on: make(map[string]func(func() (*subsystem.Result, error)) (*subsystem.Result, error))}
	rt, err := New(fed, Config{Mode: mode, Resilience: inv})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return &lockWorld{t: t, sub: sub, rt: rt, inv: inv, ctx: ctx, done: make(chan *Result, 1)}
}

// await blocks a script or the test on an event of the scenario; a
// scenario that does not unfold as scripted ends with the context.
func (w *lockWorld) await(ch <-chan struct{}) {
	select {
	case <-ch:
	case <-w.ctx.Done():
	}
}

func (w *lockWorld) start(defs ...*process.Process) {
	jobs := make([]scheduler.Job, len(defs))
	for i, def := range defs {
		jobs[i] = scheduler.Job{Proc: def}
	}
	go func() {
		res, err := w.rt.Run(w.ctx, jobs)
		if err != nil {
			w.t.Errorf("run: %v", err)
		}
		w.done <- res
	}()
}

// awaitSection polls the serial section until cond holds of it; the
// sleep only paces the poll.
func (w *lockWorld) awaitSection(what string, cond func() bool) {
	w.t.Helper()
	for w.ctx.Err() == nil {
		w.rt.mu.Lock()
		ok := cond()
		w.rt.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	w.t.Fatalf("never happened: %s", what)
}

// awaitParked waits until the process sits in cond.Wait with exactly the
// given wait-for disjunction, and returns the section's in-flight count
// at that moment.
func (w *lockWorld) awaitParked(id process.ID, alts [][]process.ID) (inFlight int) {
	w.t.Helper()
	w.awaitSection(fmt.Sprintf("%s parked on %v", id, alts), func() bool {
		m := w.rt.members[id]
		inFlight = w.rt.inFlight
		return m != nil && m.ID == id && m.parked && reflect.DeepEqual(m.waitAlts, alts)
	})
	return inFlight
}

func (w *lockWorld) finish() *Result {
	w.t.Helper()
	res := <-w.done
	if res == nil {
		w.t.Fatal("no result")
	}
	if n := len(w.rt.fed.InDoubt()); n != 0 {
		w.t.Fatalf("%d in-doubt transactions remain", n)
	}
	return res
}

func seq(id process.ID, steps ...string) *process.Process {
	kinds := map[string]activity.Kind{"w": activity.Pivot, "c": activity.Compensatable, "pre": activity.Compensatable, "d": activity.Pivot}
	b := process.NewBuilder(id)
	for i, svc := range steps {
		b.Add(i+1, svc, kinds[svc])
		if i > 0 {
			b.Seq(i, i+1)
		}
	}
	return b.MustBuild()
}

// A frontier activity whose item lock is held parks on the holder — no
// invocation is burnt on ErrLocked — and proceeds once the holder's
// transaction commits; the holder being in flight, nothing is stalled.
func TestLockWaitParksOnHolder(t *testing.T) {
	t.Parallel()
	w := newLockWorld(t, scheduler.CCOnly)
	held, release := make(chan struct{}), make(chan struct{})
	w.inv.on["P/w"] = func(invoke func() (*subsystem.Result, error)) (*subsystem.Result, error) {
		res, err := invoke()
		close(held)
		w.await(release)
		return res, err
	}
	w.inv.on["Q/pre"] = func(invoke func() (*subsystem.Result, error)) (*subsystem.Result, error) {
		w.await(held)
		return invoke()
	}
	w.start(seq("P", "w"), seq("Q", "pre", "w"))
	w.await(held)
	if inFlight := w.awaitParked("Q", [][]process.ID{{"P"}}); inFlight != 1 {
		t.Errorf("in flight while Q is parked: %d, want the holder's invocation", inFlight)
	}
	close(release)
	res := w.finish()
	if _, _, denials := w.sub.Stats(); denials != 0 || res.Metrics.LockWaits != 0 {
		t.Errorf("lock denials %d, lock waits %d: the probe must park Q before it invokes", denials, res.Metrics.LockWaits)
	}
	if res.Metrics.CommittedProcs != 2 || res.Metrics.VictimAborts != 0 || w.sub.Get("a") != 2 {
		t.Errorf("committed %d, victims %d, a = %d", res.Metrics.CommittedProcs, res.Metrics.VictimAborts, w.sub.Get("a"))
	}
}

// Two workers pass the probe before either acquires: the loser's Invoke
// comes back ErrLocked, its registration is undone and it re-evaluates.
func TestLockWaitLostProbeRace(t *testing.T) {
	t.Parallel()
	w := newLockWorld(t, scheduler.CCOnly)
	bEntered, aHolds, bDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	w.inv.on["A/w"] = func(invoke func() (*subsystem.Result, error)) (*subsystem.Result, error) {
		w.await(bEntered)
		res, err := invoke()
		close(aHolds)
		w.await(bDone)
		return res, err
	}
	first := true // B's re-invocation after the lost race is a plain one
	w.inv.on["B/w"] = func(invoke func() (*subsystem.Result, error)) (*subsystem.Result, error) {
		if !first {
			return invoke()
		}
		first = false
		close(bEntered)
		w.await(aHolds)
		defer close(bDone)
		return invoke()
	}
	w.start(seq("A", "w"), seq("B", "w"))
	res := w.finish()
	if _, _, denials := w.sub.Stats(); denials != 1 || res.Metrics.LockWaits != 1 {
		t.Errorf("lock denials %d, lock waits %d, want the one lost race", denials, res.Metrics.LockWaits)
	}
	if res.Metrics.CommittedProcs != 2 || w.sub.Get("a") != 2 {
		t.Errorf("committed %d, a = %d", res.Metrics.CommittedProcs, w.sub.Get("a"))
	}
}

// A recovery step whose item lock is held parks on the holder as its only
// alternative and runs once the holder commits.
func TestLockWaitRecoveryStep(t *testing.T) {
	t.Parallel()
	w := newLockWorld(t, scheduler.CCOnly)
	w.sub.FailService("Q", "d")
	cDone, held, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	w.inv.on["Q/d"] = func(invoke func() (*subsystem.Result, error)) (*subsystem.Result, error) {
		close(cDone)
		w.await(held)
		return invoke() // fails: Q aborts and must compensate c
	}
	w.inv.on["P/w"] = func(invoke func() (*subsystem.Result, error)) (*subsystem.Result, error) {
		w.await(cDone)
		res, err := invoke()
		close(held)
		w.await(release)
		return res, err
	}
	w.start(seq("Q", "c", "d"), seq("P", "w"))
	w.await(held)
	w.awaitParked("Q", [][]process.ID{{"P"}})
	close(release)
	res := w.finish()
	if !res.Outcomes["P"].Committed || !res.Outcomes["Q"].Aborted || res.Metrics.Compensations != 1 || w.sub.Get("a") != 1 {
		t.Errorf("P %+v, Q %+v, compensations %d, a = %d", res.Outcomes["P"], res.Outcomes["Q"], res.Metrics.Compensations, w.sub.Get("a"))
	}
}

// TestDisjointProcessesOverlapInOneSection: one serial section does not
// serialize processes, only decisions. While A's invocation is in flight
// — outside the section — B, whose footprint conflicts with nothing of
// A's, dispatches, completes and terminates, and C, which needs the item
// A writes, parks on A alone and proceeds at A's commit.
func TestDisjointProcessesOverlapInOneSection(t *testing.T) {
	t.Parallel()
	for _, mode := range []scheduler.Mode{scheduler.PRED, scheduler.CCOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			w := newLockWorld(t, mode)
			held, release := make(chan struct{}), make(chan struct{})
			w.inv.on["A/w"] = func(invoke func() (*subsystem.Result, error)) (*subsystem.Result, error) {
				res, err := invoke()
				close(held)
				w.await(release)
				return res, err
			}
			gate := func(invoke func() (*subsystem.Result, error)) (*subsystem.Result, error) {
				w.await(held)
				return invoke()
			}
			w.inv.on["B/d"], w.inv.on["C/pre"] = gate, gate
			w.start(seq("A", "w"), seq("B", "d"), seq("C", "pre", "w"))
			w.await(held)
			w.awaitSection("B committed while A is in flight", func() bool {
				b := w.rt.drv.Get("B")
				return b != nil && b.Outcome.Committed && w.rt.members["B"] == nil && w.rt.members["A"] != nil
			})
			if inFlight := w.awaitParked("C", [][]process.ID{{"A"}}); inFlight != 1 {
				t.Errorf("in flight while C is parked: %d, want A's invocation alone", inFlight)
			}
			if e := w.sub.Get("e"); e != 1 {
				t.Errorf("e = %d before A's commit: B's work must stand", e)
			}
			close(release)
			res := w.finish()
			if res.Metrics.CommittedProcs != 3 || res.Metrics.VictimAborts != 0 || w.sub.Get("a") != 2 {
				t.Errorf("committed %d, victims %d, a = %d", res.Metrics.CommittedProcs, res.Metrics.VictimAborts, w.sub.Get("a"))
			}
		})
	}
}

// TestDetectDeadlock pins the park-time wait-for analysis on hand-set
// park states. No run reaches a closed set through item locks (see the
// head of this file) or through Lemma-1 edges (the forced-order check
// refuses the dispatch that would close the cycle), so the detector is
// exercised directly: which sets are closed, that a member signaled but
// not rescheduled is not stuck, and who the victim is.
func TestDetectDeadlock(t *testing.T) {
	t.Parallel()
	type park struct {
		alts    [][]process.ID
		running bool // not parked: in flight or evaluating
		stale   bool // parked at an older progress generation
		phase   policy.Phase
	}
	cases := []struct {
		name      string
		maxStalls int
		p, q, r   park // arrivals 0, 1, 2; q is the one about to park
		want      process.ID
	}{
		{name: "two-cycle, third member in flight", p: park{alts: [][]process.ID{{"Q"}}}, q: park{alts: [][]process.ID{{"P"}}}, r: park{running: true}, want: "Q"},
		{name: "all of an alternative must act", p: park{alts: [][]process.ID{{"R", "Q"}}}, q: park{alts: [][]process.ID{{"P"}}}, r: park{running: true}, want: "Q"},
		{name: "three-cycle takes the youngest", p: park{alts: [][]process.ID{{"Q"}}}, q: park{alts: [][]process.ID{{"R"}}}, r: park{alts: [][]process.ID{{"P"}}}, want: "R"},
		{name: "escape alternative", p: park{alts: [][]process.ID{{"Q"}}}, q: park{alts: [][]process.ID{{"P"}, {"R"}}}, r: park{running: true}},
		{name: "escape propagates", p: park{alts: [][]process.ID{{"R"}}}, q: park{alts: [][]process.ID{{"P"}}}, r: park{running: true}},
		{name: "signaled but not rescheduled", p: park{alts: [][]process.ID{{"Q"}}, stale: true}, q: park{alts: [][]process.ID{{"P"}}}, r: park{running: true}},
		{name: "incomplete edges", p: park{}, q: park{alts: [][]process.ID{{"P"}}}, r: park{running: true}},
		{name: "aborting member is no victim", p: park{alts: [][]process.ID{{"Q"}}}, q: park{alts: [][]process.ID{{"P"}}, phase: policy.Aborting}, r: park{running: true}, want: "P"},
		{name: "budget exhausted", maxStalls: 1, p: park{alts: [][]process.ID{{"Q"}}}, q: park{alts: [][]process.ID{{"P"}}}, r: park{running: true}},
	}
	fed := subsystem.NewFederation()
	for _, c := range cases {
		rt, err := New(fed, Config{Mode: scheduler.PRED, MaxStalls: c.maxStalls})
		if err != nil {
			t.Fatal(err)
		}
		if c.maxStalls > 0 {
			rt.victims = c.maxStalls
		}
		rt.progress = 7
		for i, pk := range []park{c.p, c.q, c.r} {
			id := process.ID([]string{"P", "Q", "R"}[i])
			m := &member{Proc: scheduler.NewProc(seq(id, "w"), i, id, id, 0), lastEval: rt.progress, waitAlts: pk.alts}
			m.parked = !pk.running && id != "Q"
			m.Phase = pk.phase
			if pk.stale {
				m.lastEval--
			}
			rt.members[id] = m
		}
		before := rt.victims
		var got process.ID
		if v := rt.detectDeadlock(rt.members["Q"]); v != nil {
			got = v.ID
		}
		if got != c.want {
			t.Errorf("%s: victim %q, want %q", c.name, got, c.want)
		}
		if spent := rt.victims - before; (spent == 1) != (c.want != "") {
			t.Errorf("%s: %d victims spent", c.name, spent)
		}
	}
}
