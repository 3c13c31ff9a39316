package scheduler_test

import (
	"fmt"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/workload"
)

// TestWeakOrderRunsAllModesCorrectly sweeps workloads with weak order
// enabled and asserts the PRED invariant still holds.
func TestWeakOrderRunsCorrectly(t *testing.T) {
	for _, run := range sweepRuns() {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", run.name, seed), func(t *testing.T) {
				p := workload.DefaultProfile(seed)
				p.Processes = 10
				p.ConflictProb = 0.5
				p.PermFailureProb = 0.1
				w := workload.MustGenerate(p)
				eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: run.mode, WeakOrder: true})
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.RunJobs(w.Jobs)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Metrics.CommittedProcs + res.Metrics.AbortedProcs; got < p.Processes {
					t.Fatalf("only %d of %d processes terminated", got, p.Processes)
				}
				ok, at, _, err := res.Schedule.PRED()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("weak-order schedule not PRED (prefix %d):\n%s", at, res.Schedule)
				}
				if n := len(w.Fed.InDoubt()); n != 0 {
					t.Fatalf("%d in-doubt transactions remain", n)
				}
				for item, v := range w.Fed.Snapshot() {
					if v < 0 {
						t.Fatalf("item %s negative (%d)", item, v)
					}
				}
			})
		}
	}
}

// TestWeakOrderReducesLockWaits verifies the point of Section 3.6: under
// contention, overlapping conflicting local transactions removes
// subsystem lock waits (they become commit-order dependencies instead).
func TestWeakOrderReducesLockWaits(t *testing.T) {
	run := func(weakOrder bool) *scheduler.Result {
		p := workload.DefaultProfile(42)
		p.Processes = 24
		p.ConflictProb = 0.6
		w := workload.MustGenerate(p)
		eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED, WeakOrder: weakOrder})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunJobs(w.Jobs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	strong := run(false)
	weak := run(true)
	if strong.Metrics.LockWaits == 0 {
		t.Skip("no lock contention in this workload; nothing to compare")
	}
	if weak.Metrics.LockWaits >= strong.Metrics.LockWaits {
		t.Fatalf("weak order should remove lock waits: strong=%d weak=%d",
			strong.Metrics.LockWaits, weak.Metrics.LockWaits)
	}
	if weak.Metrics.WeakDeps == 0 {
		t.Fatal("weak order must have recorded commit-order dependencies")
	}
	if weak.Metrics.Makespan > strong.Metrics.Makespan {
		t.Fatalf("weak order should not be slower: strong=%d weak=%d",
			strong.Metrics.Makespan, weak.Metrics.Makespan)
	}
	t.Logf("makespan strong=%d weak=%d, lockWaits %d -> %d, weakDeps=%d waits=%d restarts=%d",
		strong.Metrics.Makespan, weak.Metrics.Makespan,
		strong.Metrics.LockWaits, weak.Metrics.LockWaits,
		weak.Metrics.WeakDeps, weak.Metrics.WeakOrderWaits, weak.Metrics.WeakRestarts)
}

// TestWeakOrderPaperProcesses runs the paper fixtures with weak order.
func TestWeakOrderPaperProcesses(t *testing.T) {
	fed := paper.Federation(7)
	eng, err := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED, WeakOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]*process.Process{paper.P1(), paper.P2(), paper.P3()})
	if err != nil {
		t.Fatal(err)
	}
	verifySchedule(t, res)
	if res.Metrics.CommittedProcs < 3 {
		t.Fatalf("all must commit: %+v", res.Metrics)
	}
}

// TestWeakOrderWithFailures exercises the §3.6 restart path end to end:
// retriable transient failures under weak order cascade re-invocations
// of weakly following transactions without failing their processes.
func TestWeakOrderWithFailures(t *testing.T) {
	p := workload.DefaultProfile(9)
	p.Processes = 12
	p.ConflictProb = 0.7
	p.TransientFailureProb = 0.35
	w := workload.MustGenerate(p)
	eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED, WeakOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunJobs(w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	ok, _, _, err := res.Schedule.PRED()
	if err != nil || !ok {
		t.Fatalf("PRED = %v, %v", ok, err)
	}
	if res.Metrics.CommittedProcs == 0 {
		t.Fatal("some processes must commit")
	}
}

// weakRM is one subsystem for the weak-order judges. Two invocations of
// incy commute (so the policy lets them overlap), but both write y, so
// the weak order makes the later one depend on the earlier. wx and cx
// conflict on x, py (a pivot) writes y; the pivot piv, the retriable tail
// and fail write items of their own.
func weakRM(costs map[string]int) (*subsystem.Federation, *subsystem.Subsystem) {
	fed := subsystem.NewFederation()
	rm := subsystem.New("rm", 1)
	for _, s := range []struct {
		name  string
		kind  activity.Kind
		items []string
	}{
		{"incy", activity.Compensatable, []string{"y"}},
		{"wx", activity.Compensatable, []string{"x"}},
		{"cx", activity.Compensatable, []string{"x"}},
		{"py", activity.Pivot, []string{"y"}},
		{"piv", activity.Pivot, []string{"p"}},
		{"tail", activity.Retriable, []string{"t"}},
		{"fail", activity.Compensatable, []string{"f"}},
	} {
		spec := activity.Spec{Name: s.name, Kind: s.kind, Subsystem: "rm", WriteSet: s.items, Cost: costs[s.name]}
		if s.kind == activity.Compensatable {
			spec.Compensation = process.DefaultCompensationName(s.name)
			spec.Commutative = s.name == "incy"
		}
		rm.MustRegister(spec)
	}
	fed.MustAdd(rm)
	return fed, rm
}

// runWeak runs the jobs under the weak order and checks what every
// weak-order judge needs: all terminated, the schedule PRED, nothing in
// doubt.
func runWeak(t *testing.T, fed *subsystem.Federation, cfg scheduler.Config, jobs ...scheduler.Job) *scheduler.Result {
	t.Helper()
	cfg.Mode, cfg.WeakOrder = scheduler.PRED, true
	eng, err := scheduler.New(fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	verifySchedule(t, res)
	if got := res.Metrics.CommittedProcs + res.Metrics.AbortedProcs; got != len(jobs) {
		t.Fatalf("%d of %d processes terminated: %+v", got, len(jobs), res.Metrics)
	}
	if in := fed.InDoubt(); len(in) != 0 {
		t.Fatalf("transactions left in doubt: %v", in)
	}
	return res
}

// invokedAt is the position of the proc's invocation of the service in
// the schedule, -1 when there is none.
func invokedAt(res *scheduler.Result, proc process.ID, service string) int {
	for i, e := range res.Schedule.Events() {
		if e.Type == schedule.Invoke && e.Proc == proc && e.Service == service {
			return i
		}
	}
	return -1
}

// slowCompensations is a resilience layer that adds extra service time
// to every compensation: under the weak order only recovery steps go
// through it.
type slowCompensations struct {
	fed   *subsystem.Federation
	extra int64
}

func (s slowCompensations) InvokeResilient(proc, service string, kind activity.Kind, mode subsystem.Mode, _ string) (*subsystem.Result, int64, error) {
	res, err := s.fed.Invoke(proc, service, mode)
	if kind != activity.Compensation {
		return res, 0, err
	}
	return res, s.extra, err
}

// TestWeakCommitWaitsForItsPredecessor: P1 fails and compensates its
// incy slowly; P2, arriving meanwhile, invokes incy (which commutes with
// the compensation, so the policy lets it run) and depends on the
// compensation in the commit order (Section 3.6). Finished first, P2's
// incy waits at its completion until the compensation committed, then
// commits behind it.
func TestWeakCommitWaitsForItsPredecessor(t *testing.T) {
	fed, rm := weakRM(map[string]int{"incy": 1, "fail": 1})
	rm.FailService("P1", "fail")
	p1 := process.NewBuilder("P1").
		Add(1, "incy", activity.Compensatable).
		Add(2, "fail", activity.Compensatable).
		Seq(1, 2).MustBuild()
	p2 := process.NewBuilder("P2").Add(1, "incy", activity.Compensatable).MustBuild()
	res := runWeak(t, fed, scheduler.Config{Resilience: slowCompensations{fed, 8}},
		scheduler.Job{Proc: p1}, scheduler.Job{Proc: p2, Arrival: 3})
	if !res.Outcomes["P1"].Aborted || !res.Outcomes["P2"].Committed {
		t.Fatalf("want P1 aborted and P2 committed: P1 %+v, P2 %+v", res.Outcomes["P1"], res.Outcomes["P2"])
	}
	if m := res.Metrics; m.WeakDeps == 0 || m.WeakOrderWaits == 0 || m.WeakRestarts != 0 {
		t.Fatalf("want commit-order waits and no restart: %+v", m)
	}
	if comp, inc := invokedAt(res, "P1", process.DefaultCompensationName("incy")), invokedAt(res, "P2", "incy"); comp < 0 || inc < comp {
		t.Fatalf("P2's incy committed at %d, ahead of the compensation it depends on at %d\n%s", inc, comp, res.Schedule)
	}
}

// TestWeakDependentRestartsAtCompletion: P1's incy is orphaned when its
// parallel sibling fails and P1 aborts, so it is rolled back. P2's incy,
// which depended on it and completes right after, is rolled back at its
// completion and re-invoked — not failed — and P2 commits.
func TestWeakDependentRestartsAtCompletion(t *testing.T) {
	fed, rm := weakRM(map[string]int{"incy": 5, "fail": 2})
	rm.FailService("P1", "fail")
	p1 := process.NewBuilder("P1").
		Add(1, "incy", activity.Compensatable).
		Add(2, "fail", activity.Compensatable).MustBuild()
	p2 := process.NewBuilder("P2").Add(1, "incy", activity.Compensatable).MustBuild()
	res := runWeak(t, fed, scheduler.Config{}, scheduler.Job{Proc: p1}, scheduler.Job{Proc: p2})
	if !res.Outcomes["P1"].Aborted || !res.Outcomes["P2"].Committed {
		t.Fatalf("want P1 aborted and P2 committed: P1 %+v, P2 %+v", res.Outcomes["P1"], res.Outcomes["P2"])
	}
	if m := res.Metrics; m.WeakDeps == 0 || m.WeakRestarts == 0 || m.Invocations < 4 {
		t.Fatalf("want P2's incy rolled back and re-invoked: %+v", m)
	}
}

// TestWeakDependentRestartsInCommitPreparedSet: P2's pivot py depends on
// a transaction an earlier run left in doubt on y — no process of the
// run can give a non-compensatable activity a dependency, since Lemma 1
// holds it behind any conflicting work in flight. py's commit is
// deferred behind P0 (P2's cx follows P0's wx, which P0's pivot made
// final), and meanwhile the leftover is rolled back. When P0 terminates, the 2PC preflight finds
// py's dependency aborted: py is rolled back and re-invoked, and P2
// commits.
func TestWeakDependentRestartsInCommitPreparedSet(t *testing.T) {
	fed, rm := weakRM(map[string]int{"wx": 1, "piv": 1, "tail": 20, "cx": 1, "py": 2})
	left, err := rm.Invoke("earlier", "incy", subsystem.Prepare)
	if err != nil {
		t.Fatal(err)
	}
	// Once py is prepared, the leftover is rolled back.
	inject := func(string) {
		for _, r := range rm.InDoubt() {
			if r.Proc == "P2" && r.Service == "py" {
				_ = rm.AbortPrepared(left.Tx) // a second call finds nothing to roll back
			}
		}
	}
	p0 := process.NewBuilder("P0").
		Add(1, "wx", activity.Compensatable).
		Add(2, "piv", activity.Pivot).
		Add(3, "tail", activity.Retriable).
		Seq(1, 2).Seq(2, 3).MustBuild()
	p2 := process.NewBuilder("P2").
		Add(1, "cx", activity.Compensatable).
		Add(2, "py", activity.Pivot).
		Seq(1, 2).MustBuild()
	res := runWeak(t, fed, scheduler.Config{Inject: inject}, scheduler.Job{Proc: p0}, scheduler.Job{Proc: p2})
	if !res.Outcomes["P0"].Committed || !res.Outcomes["P2"].Committed {
		t.Fatalf("want P0 and P2 committed: %+v %+v", res.Outcomes["P0"], res.Outcomes["P2"])
	}
	if m := res.Metrics; m.WeakDeps == 0 || m.Deferrals == 0 || m.WeakRestarts == 0 {
		t.Fatalf("want py deferred, then rolled back and re-invoked: %+v", m)
	}
}
