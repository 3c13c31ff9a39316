package scheduler_test

import (
	"errors"
	"path/filepath"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// TestSerialModeStrictOrder verifies the serial baseline really runs one
// process at a time, in arrival order.
func TestSerialModeStrictOrder(t *testing.T) {
	fed := paper.Federation(1)
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.Serial})
	res, err := eng.Run([]*process.Process{paper.P1(), paper.P2(), paper.P3()})
	if err != nil {
		t.Fatal(err)
	}
	// In the event stream, once a process's first event appears, no
	// other process's event may appear until its Terminate.
	var current process.ID
	for _, e := range res.Schedule.Events() {
		if e.Type == schedule.GroupAbort {
			continue
		}
		if current == "" {
			current = e.Proc
		}
		if e.Proc != current {
			t.Fatalf("serial violated: %s interleaved with %s\n%s", e.Proc, current, res.Schedule)
		}
		if e.Type == schedule.Terminate {
			current = ""
		}
	}
}

// TestConservativeAllowsDisjointParallelism verifies the conservative
// baseline admits non-conflicting processes concurrently.
func TestConservativeAllowsDisjointParallelism(t *testing.T) {
	// P2 and P3 share no conflicting services (P3 only conflicts P1 via
	// a11/a31).
	fed := paper.Federation(1)
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.Conservative})
	res, err := eng.Run([]*process.Process{paper.P2(), paper.P3()})
	if err != nil {
		t.Fatal(err)
	}
	serialEng, _ := scheduler.New(paper.Federation(1), scheduler.Config{Mode: scheduler.Serial})
	serialRes, err := serialEng.Run([]*process.Process{paper.P2(), paper.P3()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Makespan >= serialRes.Metrics.Makespan {
		t.Fatalf("conservative (%d) should overlap disjoint processes (serial %d)",
			res.Metrics.Makespan, serialRes.Metrics.Makespan)
	}
}

// TestArrivalTimesRespected verifies jobs are admitted no earlier than
// their arrival times.
func TestArrivalTimesRespected(t *testing.T) {
	fed := paper.Federation(1)
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	res, err := eng.RunJobs([]scheduler.Job{
		{Proc: paper.P2()},
		{Proc: paper.P3(), Arrival: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes["P3"].Start < 50 {
		t.Fatalf("P3 started at %d, before its arrival 50", res.Outcomes["P3"].Start)
	}
	if res.Metrics.Makespan < 50 {
		t.Fatalf("makespan %d cannot precede the last arrival", res.Metrics.Makespan)
	}
}

// TestFileWALEndToEnd runs the engine against a file-backed write-ahead
// log, crashes it, reopens the log and recovers.
func TestFileWALEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scheduler.wal")
	log, err := wal.OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	fed := paper.Federation(5)
	eng, _ := scheduler.New(fed, scheduler.Config{
		Mode: scheduler.PRED, Log: log, CrashAfterEvents: 5,
	})
	procs := []*process.Process{paper.P1(), paper.P2()}
	_, err = eng.Run(procs)
	if !errors.Is(err, scheduler.ErrCrashed) {
		t.Fatalf("expected crash, got %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// "Reboot": reopen the log and recover against the surviving
	// subsystems.
	log2, err := wal.OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	report, err := scheduler.Recover(fed, log2, procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.InDoubt()) != 0 {
		t.Fatal("in-doubt transactions remain")
	}
	if len(report.BackwardRecovered)+len(report.ForwardRecovered)+len(report.AlreadyTerminated) == 0 {
		t.Fatal("recovery processed nothing")
	}
}

// TestRecoveryIdempotent runs Recover twice; the second run must be a
// no-op (all processes already terminated in the log).
func TestRecoveryIdempotent(t *testing.T) {
	fed := paper.Federation(5)
	log := wal.NewMemLog()
	eng, _ := scheduler.New(fed, scheduler.Config{
		Mode: scheduler.PRED, Log: log, CrashAfterEvents: 4,
	})
	procs := []*process.Process{paper.P1(), paper.P2()}
	if _, err := eng.Run(procs); !errors.Is(err, scheduler.ErrCrashed) {
		t.Fatalf("expected crash, got %v", err)
	}
	snapshotAfterFirst := func() map[string]int64 { return fed.Snapshot() }
	if _, err := scheduler.Recover(fed, log, procs); err != nil {
		t.Fatal(err)
	}
	before := snapshotAfterFirst()
	report, err := scheduler.Recover(fed, log, procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.BackwardRecovered)+len(report.ForwardRecovered) != 0 {
		t.Fatalf("second recovery must find no active processes: %+v", report)
	}
	after := fed.Snapshot()
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("second recovery changed state: %s %d -> %d", k, v, after[k])
		}
	}
}

// TestMaxRestartsExhaustion forces a process to fail repeatedly until it
// gives up permanently.
func TestMaxRestartsExhaustion(t *testing.T) {
	fed := subsystem.NewFederation()
	sub := subsystem.New("rm", 1)
	sub.MustRegister(activity.Spec{
		Name: "c1", Kind: activity.Compensatable, Subsystem: "rm",
		Compensation: "c1⁻¹", WriteSet: []string{"x"},
	})
	sub.MustRegister(activity.Spec{
		Name: "p1", Kind: activity.Pivot, Subsystem: "rm", WriteSet: []string{"y"},
	})
	fed.MustAdd(sub)
	// The pivot always fails: backward recovery every time; the process
	// is not restartable on failure-aborts (it failed on its own), so a
	// single abort suffices.
	sub.ForceFail("p1", 100)
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED, MaxRestarts: 2})
	proc := process.NewBuilder("P").
		Add(1, "c1", activity.Compensatable).
		Add(2, "p1", activity.Pivot).
		Seq(1, 2).MustBuild()
	res, err := eng.Run([]*process.Process{proc})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcomes["P"].Aborted {
		t.Fatal("process must abort")
	}
	if sub.Get("x") != 0 || sub.Get("y") != 0 {
		t.Fatal("backward recovery must be effect-free")
	}
}

// TestDeferredCommitVisibleOnlyAfter2PC verifies a deferred pivot's
// effects are invisible until the predecessor terminates. P1 passes its
// pivot before P2 reads what P1 wrote, so P2 may run (Lemma 1 holds a
// compensatable only behind a backward-recoverable predecessor), and
// P2's pivot completes while P1's long retriable tail keeps P1 active.
func TestDeferredCommitVisibleOnlyAfter2PC(t *testing.T) {
	fed := subsystem.NewFederation()
	rm := subsystem.New("rm", 1)
	rm.MustRegister(activity.Spec{
		Name: "slowC", Kind: activity.Compensatable, Subsystem: "rm",
		Compensation: "slowC⁻¹", WriteSet: []string{"shared"}, Cost: 10,
	})
	rm.MustRegister(activity.Spec{
		Name: "readShared", Kind: activity.Compensatable, Subsystem: "rm",
		Compensation: "readShared⁻¹", ReadSet: []string{"shared"}, WriteSet: []string{"copy"}, Cost: 1,
	})
	rm.MustRegister(activity.Spec{
		Name: "piv", Kind: activity.Pivot, Subsystem: "rm", WriteSet: []string{"done"}, Cost: 1,
	})
	rm.MustRegister(activity.Spec{
		Name: "piv1", Kind: activity.Pivot, Subsystem: "rm", WriteSet: []string{"mark"}, Cost: 1,
	})
	rm.MustRegister(activity.Spec{
		Name: "slowR", Kind: activity.Retriable, Subsystem: "rm", WriteSet: []string{"tail"}, Cost: 30,
	})
	fed.MustAdd(rm)

	// P1: slowC (writes shared), its pivot, then a long retriable tail;
	// stays active.
	p1 := process.NewBuilder("P1").
		Add(1, "slowC", activity.Compensatable).
		Add(2, "piv1", activity.Pivot).
		Add(3, "slowR", activity.Retriable).
		Seq(1, 2).Seq(2, 3).MustBuild()
	// P2: readShared (conflicts slowC) then pivot; its pivot's commit
	// must be deferred until C_1.
	p2 := process.NewBuilder("P2").
		Add(1, "readShared", activity.Compensatable).
		Add(2, "piv", activity.Pivot).
		Seq(1, 2).MustBuild()

	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	res, err := eng.Run([]*process.Process{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	verifySchedule(t, res)
	if res.Metrics.CommittedProcs != 2 {
		t.Fatalf("both must commit: %+v", res.Metrics)
	}
	if res.Metrics.Deferrals == 0 || res.Metrics.TwoPCCommits == 0 {
		t.Fatalf("P2's pivot must be deferred behind P1 and committed via 2PC: %+v\n%s", res.Metrics, res.Schedule)
	}
	// The schedule must order C_1 before P2's pivot's commit position.
	evs := res.Schedule.Events()
	c1, pivAt := -1, -1
	for i, e := range evs {
		if e.Type == schedule.Terminate && e.Proc == "P1" {
			c1 = i
		}
		if e.Type == schedule.Invoke && e.Proc == "P2" && e.Service == "piv" {
			pivAt = i
		}
	}
	if c1 < 0 || pivAt < 0 || pivAt < c1 {
		t.Fatalf("deferred pivot must commit after C_1: C1@%d piv@%d\n%s", c1, pivAt, res.Schedule)
	}
}

// TestOutcomesBookkeeping sanity-checks the per-process outcome records.
func TestOutcomesBookkeeping(t *testing.T) {
	fed := paper.Federation(2)
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	res, err := eng.Run([]*process.Process{paper.P2()})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcomes["P2"]
	if out == nil || !out.Committed || out.Aborted {
		t.Fatalf("outcome = %+v", out)
	}
	if out.End < out.Start {
		t.Fatalf("end %d before start %d", out.End, out.Start)
	}
}

// TestWorkloadCCOnlyRunsToCompletion ensures the unsafe baseline at
// least terminates everything (it sacrifices correctness, not progress).
func TestWorkloadCCOnlyRunsToCompletion(t *testing.T) {
	p := workload.DefaultProfile(11)
	p.Processes = 10
	p.ConflictProb = 0.6
	p.PermFailureProb = 0.15
	w := workload.MustGenerate(p)
	eng, _ := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.CCOnly})
	res, err := eng.RunJobs(w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CommittedProcs+res.Metrics.AbortedProcs < p.Processes {
		t.Fatalf("not all processes terminated: %+v", res.Metrics)
	}
}

// TestNestedAlternativesUnderScheduler executes a deeply nested
// well-formed structure (three pivots, two nested alternatives) through
// failures of every pivot.
func TestNestedAlternativesUnderScheduler(t *testing.T) {
	// c1 ≪ p1 ≪ (c2 ≪ p2 ≪ (c3 ≪ p3 | r3) | r2) with retriable tails.
	build := func() *process.Process {
		return process.NewBuilder("NEST").
			Add(1, "c1", activity.Compensatable).
			Add(2, "p1", activity.Pivot).
			Add(3, "c2", activity.Compensatable).
			Add(4, "p2", activity.Pivot).
			Add(5, "c3", activity.Compensatable).
			Add(6, "p3", activity.Pivot).
			Add(7, "r3", activity.Retriable).
			Add(8, "r2", activity.Retriable).
			Seq(1, 2).
			Chain(2, 3, 8). // after p1: nested structure or retriable r2
			Seq(3, 4).
			Chain(4, 5, 7). // after p2: deeper structure or retriable r3
			Seq(5, 6).
			MustBuild()
	}
	mkFed := func() (*subsystem.Federation, *subsystem.Subsystem) {
		sub := subsystem.New("rm", 1)
		for _, svc := range []struct {
			name string
			kind activity.Kind
		}{
			{"c1", activity.Compensatable}, {"c2", activity.Compensatable}, {"c3", activity.Compensatable},
			{"p1", activity.Pivot}, {"p2", activity.Pivot}, {"p3", activity.Pivot},
			{"r2", activity.Retriable}, {"r3", activity.Retriable},
		} {
			spec := activity.Spec{
				Name: svc.name, Kind: svc.kind, Subsystem: "rm",
				WriteSet: []string{"item_" + svc.name},
			}
			if svc.kind == activity.Compensatable {
				spec.Compensation = svc.name + "⁻¹"
			}
			sub.MustRegister(spec)
		}
		fed := subsystem.NewFederation()
		fed.MustAdd(sub)
		return fed, sub
	}
	for _, failSvc := range []string{"", "p2", "p3", "c2", "c3"} {
		t.Run("fail="+failSvc, func(t *testing.T) {
			fed, sub := mkFed()
			if failSvc != "" {
				sub.ForceFail(failSvc, 1)
			}
			eng, err := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run([]*process.Process{build()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Outcomes["NEST"].Committed {
				t.Fatalf("nested process must commit via an alternative: %s", res.Schedule)
			}
			ok, _, _, err := res.Schedule.PRED()
			if err != nil || !ok {
				t.Fatalf("PRED = %v %v", ok, err)
			}
			// Compensation accounting: every committed compensatable on
			// an abandoned branch was undone.
			for item, v := range fed.Snapshot() {
				if v < 0 {
					t.Fatalf("%s negative", item)
				}
			}
		})
	}
}

// TestEngineAsksOnlyWhatMoved pins the wait index on the backlog of
// BenchmarkEngineBacklog's first iteration (200 processes, conflict 0.3,
// no failures, PRED): a process that waits is asked again only when a
// process its wait names moves, so the policy's denials stay a small
// multiple of the invocations. Asking every process on every pass costs
// about 76 denials per invocation here; the index about 8.
func TestEngineAsksOnlyWhatMoved(t *testing.T) {
	p := workload.DefaultProfile(7)
	p.Processes = 200
	p.ConflictProb = 0.3
	p.PermFailureProb = 0
	p.TransientFailureProb = 0
	w := workload.MustGenerate(p)
	e, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunJobs(w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.CommittedProcs != 200 {
		t.Fatalf("committed %d of 200", m.CommittedProcs)
	}
	if m.PolicyWaits > 16*m.Invocations {
		t.Errorf("%d policy waits for %d invocations (%.1f each), want at most 16 each",
			m.PolicyWaits, m.Invocations, float64(m.PolicyWaits)/float64(m.Invocations))
	}
	t.Logf("%d invocations, %d policy waits", m.Invocations, m.PolicyWaits)
}
