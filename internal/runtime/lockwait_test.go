package runtime

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"transproc/internal/activity"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
)

// These tests drive the item-lock wait handling of step and invoke on a
// hand-built federation. They run CCOnly on purpose: under PRED the
// policy denies first. A held item lock belongs to an activity that is in
// flight or prepared, both of which keep its service in the holder's
// potential-recovery set, so the holder is never quasi-safe for a service
// the lock refuses and Lemma 1 names it as the blocker before the probe
// is asked. (The one PRED geometry left is a commutative family degraded
// to exclusive by a second family of the same process whose branch was
// abandoned afterwards.) CCOnly has no Lemma 1 and commits at completion,
// so a lock is held exactly while its invocation is in flight — and the
// scripted invoker below decides for how long, on a clock the test
// steps by hand.

// scripted is the invocation seam (Config.Resilience) with per-invocation
// extra service times, in ticks, keyed "proc/service": each invocation
// takes the next entry of its list (none left: no extra time).
type scripted struct {
	fed  *subsystem.Federation
	slow map[string][]int64
}

func (s *scripted) InvokeResilient(proc, service string, _ activity.Kind, mode subsystem.Mode, _ string) (*subsystem.Result, int64, error) {
	res, err := s.fed.Invoke(proc, service, mode)
	var extra int64
	if lat := s.slow[proc+"/"+service]; len(lat) > 0 {
		extra, s.slow[proc+"/"+service] = lat[0], lat[1:]
	}
	return res, extra, err
}

// lockWorld is one subsystem: w, c and c⁻¹ write item a (so they
// conflict and share a lock), pre and d touch items of their own. Its
// runtime runs on a stepped clock: every invocation takes one tick plus
// what the script adds, and the loop waits for the test whenever it has
// nothing to step.
type lockWorld struct {
	t     *testing.T
	sub   *subsystem.Subsystem
	rt    *Runtime
	inv   *scripted
	ctx   context.Context
	done  chan *Result
	next  time.Duration // the deadline the waiting loop is handed on resume
	holds bool          // the loop waits for the test
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
	inv := &scripted{fed: fed, slow: make(map[string][]int64)}
	rt, err := New(fed, Config{Mode: mode, Resilience: inv, Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rt.clock = &stepClock{idle: make(chan time.Duration), set: make(chan time.Duration)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return &lockWorld{t: t, sub: sub, rt: rt, inv: inv, ctx: ctx, done: make(chan *Result, 1)}
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

// idle resumes a waiting loop at the deadline it waits for and takes it
// back at its next wait; false when the run ended instead.
func (w *lockWorld) idle() (*Result, bool) {
	if w.holds {
		w.holds = false
		select {
		case w.rt.clock.set <- w.next:
		case <-w.ctx.Done():
			w.t.Fatal("the loop never took the clock back")
		}
	}
	select {
	case w.next = <-w.rt.clock.idle:
		w.holds = true
		return nil, false
	case res := <-w.done:
		return res, true
	case <-w.ctx.Done():
		w.t.Fatal("the loop never waited")
	}
	return nil, false
}

// awaitSection steps the clock from deadline to deadline until cond holds
// of the loop's state while it waits; the loop stays waiting, so the test
// may read and change its state until the next step.
func (w *lockWorld) awaitSection(what string, cond func() bool) {
	w.t.Helper()
	for !w.holds || !cond() {
		if _, ended := w.idle(); ended {
			w.t.Fatalf("the run ended first: %s", what)
		}
	}
}

// awaitParked waits until the process is parked with exactly the given
// wait-for disjunction, and returns how many invocations are in flight
// at that moment.
func (w *lockWorld) awaitParked(id process.ID, alts [][]process.ID) (inFlight int) {
	w.t.Helper()
	w.awaitSection(fmt.Sprintf("%s parked on %v", id, alts), func() bool {
		m := w.rt.members[id]
		inFlight = len(w.rt.due)
		return m != nil && m.ID == id && slices.Contains(w.rt.parked, m) && reflect.DeepEqual(m.waitAlts, alts)
	})
	return inFlight
}

// finish steps the clock until the run ends.
func (w *lockWorld) finish() *Result {
	w.t.Helper()
	for {
		res, ended := w.idle()
		if !ended {
			continue
		}
		if res == nil {
			w.t.Fatal("no result")
		}
		if n := len(w.rt.fed.InDoubt()); n != 0 {
			w.t.Fatalf("%d in-doubt transactions remain", n)
		}
		return res
	}
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
	w.inv.slow["P/w"] = []int64{9}
	w.start(seq("P", "w"), seq("Q", "pre", "w"))
	if inFlight := w.awaitParked("Q", [][]process.ID{{"P"}}); inFlight != 1 {
		t.Errorf("in flight while Q is parked: %d, want the holder's invocation", inFlight)
	}
	res := w.finish()
	if _, _, denials := w.sub.Stats(); denials != 0 || res.Metrics.LockWaits != 0 {
		t.Errorf("lock denials %d, lock waits %d: the probe must park Q before it invokes", denials, res.Metrics.LockWaits)
	}
	if res.Metrics.CommittedProcs != 2 || res.Metrics.VictimAborts != 0 || w.sub.Get("a") != 2 {
		t.Errorf("committed %d, victims %d, a = %d", res.Metrics.CommittedProcs, res.Metrics.VictimAborts, w.sub.Get("a"))
	}
}

// A recovery step whose item lock is held parks on the holder as its only
// alternative and runs once the holder commits.
func TestLockWaitRecoveryStep(t *testing.T) {
	t.Parallel()
	w := newLockWorld(t, scheduler.CCOnly)
	w.sub.FailService("Q", "d")
	// P's w parks on Q's c, takes a's lock once c committed, and holds
	// it while Q's d fails and Q must compensate c.
	w.inv.slow["P/w"] = []int64{9}
	w.start(seq("Q", "c", "d"), seq("P", "w"))
	w.awaitParked("Q", [][]process.ID{{"P"}})
	res := w.finish()
	if !res.Outcomes["P"].Committed || !res.Outcomes["Q"].Aborted || res.Metrics.Compensations != 1 || w.sub.Get("a") != 1 {
		t.Errorf("P %+v, Q %+v, compensations %d, a = %d", res.Outcomes["P"], res.Outcomes["Q"], res.Metrics.Compensations, w.sub.Get("a"))
	}
}

// TestDisjointProcessesOverlapInOneSection: one loop does not serialize
// processes, only decisions. While A's invocation is in flight — its
// service time — B, whose footprint conflicts with nothing of A's,
// dispatches, completes and terminates, and C, which needs the item A
// writes, parks on A alone and proceeds at A's commit.
func TestDisjointProcessesOverlapInOneSection(t *testing.T) {
	t.Parallel()
	for _, mode := range []scheduler.Mode{scheduler.PRED, scheduler.CCOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			w := newLockWorld(t, mode)
			w.inv.slow["A/w"] = []int64{9}
			w.start(seq("A", "w"), seq("B", "d"), seq("C", "pre", "w"))
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
			res := w.finish()
			if res.Metrics.CommittedProcs != 3 || res.Metrics.VictimAborts != 0 || w.sub.Get("a") != 2 {
				t.Errorf("committed %d, victims %d, a = %d", res.Metrics.CommittedProcs, res.Metrics.VictimAborts, w.sub.Get("a"))
			}
		})
	}
}

// TestDetectDeadlock pins the wait-for analysis on hand-set park
// states. No run reaches a closed set through item locks (see the head
// of this file) or through Lemma-1 edges (the forced-order check refuses
// the dispatch that would close the cycle), so the detector is exercised
// directly: which sets are closed, that a member woken but not stepped
// again is not stuck, and who the victim is.
func TestDetectDeadlock(t *testing.T) {
	t.Parallel()
	type park struct {
		alts    [][]process.ID
		running bool // not parked: in flight or runnable
		woken   bool // made runnable by a state change, its last wait still recorded
		phase   policy.Phase
	}
	cases := []struct {
		name      string
		maxStalls int
		p, q, r   park // arrivals 0, 1, 2
		want      process.ID
	}{
		{name: "two-cycle, third member in flight", p: park{alts: [][]process.ID{{"Q"}}}, q: park{alts: [][]process.ID{{"P"}}}, r: park{running: true}, want: "Q"},
		{name: "all of an alternative must act", p: park{alts: [][]process.ID{{"R", "Q"}}}, q: park{alts: [][]process.ID{{"P"}}}, r: park{running: true}, want: "Q"},
		{name: "three-cycle takes the youngest", p: park{alts: [][]process.ID{{"Q"}}}, q: park{alts: [][]process.ID{{"R"}}}, r: park{alts: [][]process.ID{{"P"}}}, want: "R"},
		{name: "escape alternative", p: park{alts: [][]process.ID{{"Q"}}}, q: park{alts: [][]process.ID{{"P"}, {"R"}}}, r: park{running: true}},
		{name: "escape propagates", p: park{alts: [][]process.ID{{"R"}}}, q: park{alts: [][]process.ID{{"P"}}}, r: park{running: true}},
		{name: "woken but not stepped again", p: park{alts: [][]process.ID{{"Q"}}, woken: true}, q: park{alts: [][]process.ID{{"P"}}}, r: park{running: true}},
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
		for i, pk := range []park{c.p, c.q, c.r} {
			id := process.ID([]string{"P", "Q", "R"}[i])
			m := &member{Proc: scheduler.NewProc(seq(id, "w"), i, id, id, 0), waitAlts: pk.alts}
			m.Phase = pk.phase
			rt.members[id] = m
			if !pk.running && !pk.woken {
				rt.parked = append(rt.parked, m)
			}
		}
		before := rt.victims
		var got process.ID
		if v := rt.detectDeadlock(); v != nil {
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
