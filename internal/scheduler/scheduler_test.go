package scheduler_test

import (
	"errors"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
)

// verifySchedule replays the produced schedule for legality and checks
// PRED; it returns the schedule for further assertions.
func verifySchedule(t *testing.T, res *scheduler.Result) *schedule.Schedule {
	t.Helper()
	s := res.Schedule
	procs := make(map[process.ID]*process.Process)
	for _, p := range s.Processes() {
		procs[p.ID] = p
	}
	if _, err := schedule.Replay(procs, s.Events()); err != nil {
		t.Fatalf("produced schedule is illegal: %v\nschedule: %s", err, s)
	}
	ok, at, red, err := s.PRED()
	if err != nil {
		t.Fatalf("PRED check: %v\nschedule: %s", err, s)
	}
	if !ok {
		detail := ""
		if red != nil {
			detail = red.Describe()
		}
		t.Fatalf("schedule not PRED (prefix %d): %s\n%s", at, s, detail)
	}
	return s
}

func TestSingleProcessHappyPath(t *testing.T) {
	fed := paper.Federation(1)
	eng, err := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]*process.Process{paper.P1()})
	if err != nil {
		t.Fatal(err)
	}
	verifySchedule(t, res)
	if !res.Outcomes["P1"].Committed {
		t.Fatal("P1 must commit")
	}
	sub, _ := fed.Subsystem("subA")
	if sub.Get("i1") != 1 || sub.Get("i2") != 1 {
		t.Fatal("a11's effects missing")
	}
	subD, _ := fed.Subsystem("subD")
	if subD.Get("d13") != 1 || subD.Get("d14") != 1 {
		t.Fatal("preferred path effects missing")
	}
	if res.Metrics.CommittedProcs != 1 || res.Metrics.AbortedProcs != 0 {
		t.Fatalf("metrics = %+v", res.Metrics)
	}
	if res.Metrics.Makespan <= 0 {
		t.Fatal("makespan must advance")
	}
}

func TestAlternativeAfterFailure(t *testing.T) {
	fed := paper.Federation(1)
	subD, _ := fed.Subsystem("subD")
	subD.ForceFail(paper.SvcA13, 1) // a13 fails -> alternative a15 a16
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	res, err := eng.Run([]*process.Process{paper.P1()})
	if err != nil {
		t.Fatal(err)
	}
	s := verifySchedule(t, res)
	if !res.Outcomes["P1"].Committed {
		t.Fatal("P1 must still commit via the alternative")
	}
	if subD.Get("d13") != 0 || subD.Get("d14") != 0 {
		t.Fatal("failed branch must leave no effects")
	}
	subC, _ := fed.Subsystem("subC")
	if subC.Get("k") != 1 || subD.Get("d16") != 1 {
		t.Fatal("alternative path a15 a16 must have run")
	}
	found := false
	for _, e := range s.Events() {
		if e.Type == schedule.FailedInvoke && e.Service == paper.SvcA13 {
			found = true
		}
	}
	if !found {
		t.Fatal("failure event must be recorded")
	}
}

func TestCompensationAfterPivotFailure(t *testing.T) {
	fed := paper.Federation(1)
	subD, _ := fed.Subsystem("subD")
	subD.ForceFail(paper.SvcA14, 1) // a14 fails -> compensate a13 -> alternative
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	res, err := eng.Run([]*process.Process{paper.P1()})
	if err != nil {
		t.Fatal(err)
	}
	verifySchedule(t, res)
	if !res.Outcomes["P1"].Committed {
		t.Fatal("P1 must commit")
	}
	if subD.Get("d13") != 0 {
		t.Fatal("a13 must be compensated")
	}
	if res.Metrics.Compensations != 1 {
		t.Fatalf("compensations = %d, want 1", res.Metrics.Compensations)
	}
}

func TestBackwardRecoveryOnPivotFailure(t *testing.T) {
	fed := paper.Federation(1)
	subB, _ := fed.Subsystem("subB")
	subB.ForceFail(paper.SvcA12, 1) // the state-determining pivot fails
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	res, err := eng.Run([]*process.Process{paper.P1()})
	if err != nil {
		t.Fatal(err)
	}
	verifySchedule(t, res)
	if !res.Outcomes["P1"].Aborted {
		t.Fatal("P1 must abort")
	}
	// Guaranteed termination: backward recovery leaves no effects.
	subA, _ := fed.Subsystem("subA")
	if subA.Get("i1") != 0 || subA.Get("i2") != 0 {
		t.Fatal("backward recovery must be effect-free")
	}
}

func TestRetriableTransientFailuresRetry(t *testing.T) {
	fed := paper.Federation(1)
	subC, _ := fed.Subsystem("subC")
	subC.ForceFail(paper.SvcA25, 3) // transient failures of a retriable
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	res, err := eng.Run([]*process.Process{paper.P2()})
	if err != nil {
		t.Fatal(err)
	}
	verifySchedule(t, res)
	if !res.Outcomes["P2"].Committed {
		t.Fatal("P2 must commit after retries")
	}
	if res.Metrics.Retries != 3 {
		t.Fatalf("retries = %d, want 3", res.Metrics.Retries)
	}
	if subC.Get("k") != 1 {
		t.Fatal("a25 must eventually apply")
	}
}

func runConcurrent(t *testing.T, mode scheduler.Mode, seed int64) (*scheduler.Result, *subsystem.Federation) {
	t.Helper()
	fed := paper.Federation(seed)
	eng, err := scheduler.New(fed, scheduler.Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]*process.Process{paper.P1(), paper.P2(), paper.P3()})
	if err != nil {
		t.Fatal(err)
	}
	return res, fed
}

func TestConcurrentPREDModes(t *testing.T) {
	for _, mode := range []scheduler.Mode{scheduler.PRED, scheduler.Serial, scheduler.Conservative} {
		t.Run(mode.String(), func(t *testing.T) {
			res, _ := runConcurrent(t, mode, 7)
			s := verifySchedule(t, res)
			if res.Metrics.CommittedProcs < 3 {
				t.Fatalf("all three processes must commit, got %d (schedule %s)", res.Metrics.CommittedProcs, s)
			}
			if !s.Serializable() {
				t.Fatal("schedule must be serializable")
			}
			if ok, vs := s.ProcessRecoverable(); !ok {
				// Non-materialized violations are acceptable per the
				// strict form of Theorem 1.
				for _, v := range vs {
					if s.ViolationMaterialized(v) {
						t.Fatalf("materialized Proc-REC violation: %+v\nschedule: %s", v, s)
					}
				}
			}
		})
	}
}

func TestSerialSlowerThanPRED(t *testing.T) {
	resPred, _ := runConcurrent(t, scheduler.PRED, 7)
	resSerial, _ := runConcurrent(t, scheduler.Serial, 7)
	if resPred.Metrics.Makespan >= resSerial.Metrics.Makespan {
		t.Fatalf("PRED makespan %d should beat serial %d (the paper's parallelism motivation)",
			resPred.Metrics.Makespan, resSerial.Metrics.Makespan)
	}
}

func TestDeterminism(t *testing.T) {
	r1, _ := runConcurrent(t, scheduler.PRED, 7)
	r2, _ := runConcurrent(t, scheduler.PRED, 7)
	if r1.Metrics != r2.Metrics {
		t.Fatalf("same seed must reproduce metrics:\n%+v\n%+v", r1.Metrics, r2.Metrics)
	}
	if r1.Schedule.String() != r2.Schedule.String() {
		t.Fatal("same seed must reproduce the schedule")
	}
}

func TestLemma1DeferralObserved(t *testing.T) {
	// P1 and P2 conflict via (a11, a21). P2's a21 waits until P1's pivot
	// a12 made P1 forward-recoverable. P1's second pivot a14 fails, so P1
	// compensates a13 and runs its retriable alternative a15 ≪ a16 (Example
	// 2's F-REC completion) and is still active when P2's pivot a23
	// completes: a23's commit is deferred until C_1 (Lemma 1).
	fed := paper.Federation(3)
	subD, _ := fed.Subsystem("subD")
	subD.ForceFail(paper.SvcA14, 1)
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	res, err := eng.Run([]*process.Process{paper.P1(), paper.P2()})
	if err != nil {
		t.Fatal(err)
	}
	s := verifySchedule(t, res)
	if res.Metrics.Deferrals == 0 {
		t.Fatalf("P2's pivot a23 must be deferred behind P1: %s", s)
	}
	c1, a23 := -1, -1
	for i, e := range res.Schedule.Events() {
		switch {
		case e.Type == schedule.Terminate && e.Proc == "P1":
			c1 = i
		case e.Type == schedule.Invoke && e.Proc == "P2" && e.Service == paper.SvcA23:
			a23 = i
		}
	}
	if c1 < 0 || a23 < c1 {
		t.Fatalf("a23 must commit after C_1: C1@%d a23@%d\n%s", c1, a23, s)
	}
	if res.Metrics.TwoPCCommits == 0 {
		t.Fatal("deferred commits must be resolved via 2PC")
	}
}

func TestConflictingWorkSurvivesPredecessorAbort(t *testing.T) {
	// Force P1's pivot a12 to fail so P1 backward-recovers a11; P2's
	// conflicting a21 must survive that exactly once, however the two
	// were interleaved.
	fed := paper.Federation(3)
	subB, _ := fed.Subsystem("subB")
	subB.ForceFail(paper.SvcA12, 1)
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	res, err := eng.Run([]*process.Process{paper.P1(), paper.P2()})
	if err != nil {
		t.Fatal(err)
	}
	s := verifySchedule(t, res)
	if !res.Outcomes["P1"].Aborted {
		t.Fatalf("P1 must abort: %s", s)
	}
	// P2 must commit in the end — directly or via a restart.
	committed := false
	for id, out := range res.Outcomes {
		if out.Committed && (id == "P2" || id == "P2+r1" || id == "P2+r2" || id == "P2+r3") {
			committed = true
		}
	}
	if !committed {
		t.Fatalf("P2 (possibly restarted) must commit: %s", s)
	}
	// Subsystem state: P1 effect-free, P2 effective exactly once.
	subA, _ := fed.Subsystem("subA")
	if subA.Get("i2") != 0 {
		t.Fatal("P1's a11 must be compensated (writes i2 too)")
	}
	if subA.Get("i1") != 1 {
		t.Fatalf("exactly one effective a21 expected, i1 = %d", subA.Get("i1"))
	}
}

func TestAvoidanceModeNoCascades(t *testing.T) {
	fed := paper.Federation(3)
	subB, _ := fed.Subsystem("subB")
	subB.ForceFail(paper.SvcA12, 1)
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	res, err := eng.Run([]*process.Process{paper.P1(), paper.P2()})
	if err != nil {
		t.Fatal(err)
	}
	verifySchedule(t, res)
	if res.Metrics.Restarts != 0 {
		t.Fatal("PRED must never cascade: no process may be restarted by P1's abort")
	}
	if !res.Outcomes["P2"].Committed {
		t.Fatal("P2 must commit")
	}
}

// TestCIMScenario reproduces Section 2 / Figure 1 (experiment E8): under
// the PRED scheduler the production process is deferred until the
// construction process commits, so a failing test never invalidates
// consumed BOM data; under the CC-only scheduler the anomaly of
// Section 2.2 appears — parts are produced against a BOM that is later
// compensated away.
func TestCIMScenario(t *testing.T) {
	build := func(mode scheduler.Mode, failTest bool) (*scheduler.Result, *subsystem.Federation, error) {
		fed := paper.CIMFederation(11)
		if failTest {
			sub, _ := fed.Subsystem("testdb")
			sub.ForceFail(paper.SvcTest, 1)
		}
		eng, err := scheduler.New(fed, scheduler.Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		// Production starts once the BOM has been entered (design cost 8
		// + enterBOM cost 2) but before the test concludes — exactly the
		// interleaving of Figure 1.
		res, err := eng.RunJobs([]scheduler.Job{
			{Proc: paper.CIMConstruction("Pc")},
			{Proc: paper.CIMProduction("Pp"), Arrival: 11},
		})
		return res, fed, err
	}

	t.Run("pred-correct-under-failure", func(t *testing.T) {
		res, fed, err := build(scheduler.PRED, true)
		if err != nil {
			t.Fatal(err)
		}
		verifySchedule(t, res)
		pdm, _ := fed.Subsystem("pdm")
		floor, _ := fed.Subsystem("floor")
		if pdm.Get("bom") != 0 {
			t.Fatal("failed test must compensate the BOM entry")
		}
		// Production still ran, but only after construction terminated:
		// consistency is preserved (whatever it read is final state).
		if ok, _, _, _ := res.Schedule.PRED(); !ok {
			t.Fatal("PRED scheduler must produce a PRED schedule")
		}
		_ = floor
	})

	t.Run("cc-only-anomaly", func(t *testing.T) {
		res, fed, err := build(scheduler.CCOnly, true)
		if err != nil {
			t.Fatal(err)
		}
		pdm, _ := fed.Subsystem("pdm")
		floor, _ := fed.Subsystem("floor")
		// The anomaly: parts were produced although the BOM they were
		// built from was invalidated by compensation (Section 2.2:
		// "severe inconsistencies as no valid construction and BOM of
		// these parts exists").
		if !(pdm.Get("bom") == 0 && floor.Get("parts") == 1 && pdm.Get("bomCopy") == 1) {
			t.Skipf("interleaving did not materialize the anomaly: bom=%d parts=%d copy=%d",
				pdm.Get("bom"), floor.Get("parts"), pdm.Get("bomCopy"))
		}
		if ok, _, _, _ := res.Schedule.PRED(); ok {
			t.Fatalf("CC-only schedule with the anomaly must not be PRED: %s", res.Schedule)
		}
	})

	t.Run("both-commit-without-failure", func(t *testing.T) {
		res, fed, err := build(scheduler.PRED, false)
		if err != nil {
			t.Fatal(err)
		}
		verifySchedule(t, res)
		if res.Metrics.CommittedProcs != 2 {
			t.Fatalf("both processes must commit: %+v", res.Metrics)
		}
		pdm, _ := fed.Subsystem("pdm")
		floor, _ := fed.Subsystem("floor")
		if pdm.Get("bom") != 1 || floor.Get("parts") != 1 {
			t.Fatal("both processes' effects must be applied")
		}
	})
}

func TestCrashRecovery(t *testing.T) {
	fed := paper.Federation(5)
	eng, _ := scheduler.New(fed, scheduler.Config{
		Mode:             scheduler.PRED,
		CrashAfterEvents: 4,
	})
	procs := []*process.Process{paper.P1(), paper.P2()}
	res, err := eng.Run(procs)
	if !errors.Is(err, scheduler.ErrCrashed) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	if !res.Crashed {
		t.Fatal("result must flag the crash")
	}
	log := eng.Log()
	report, err := scheduler.Recover(fed, log, procs)
	if err != nil {
		t.Fatal(err)
	}
	// After recovery: no in-doubt transactions anywhere, and every
	// process is either effect-free (backward recovered) or forward
	// complete.
	if n := len(fed.InDoubt()); n != 0 {
		t.Fatalf("in-doubt transactions remain: %v", fed.InDoubt())
	}
	total := len(report.BackwardRecovered) + len(report.ForwardRecovered) + len(report.AlreadyTerminated)
	if total == 0 {
		t.Fatal("recovery must have processed the active processes")
	}
	// Backward-recovered processes are effect-free: verify via the
	// compensation invariant of subA (process P1 writes i1,i2; P2
	// writes i1): every item must be a non-negative count matching the
	// committed survivors.
	subA, _ := fed.Subsystem("subA")
	for _, item := range []string{"i1", "i2"} {
		if v := subA.Get(item); v < 0 {
			t.Fatalf("negative count %s=%d after recovery", item, v)
		}
	}
}

func TestCrashRecoveryAllPoints(t *testing.T) {
	// Crash after every possible completion count and verify recovery
	// always terminates every process and resolves all in-doubt state.
	for k := 1; k <= 20; k++ {
		fed := paper.Federation(int64(100 + k))
		eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED, CrashAfterEvents: k})
		procs := []*process.Process{paper.P1(), paper.P2(), paper.P3()}
		_, err := eng.Run(procs)
		if err == nil {
			// Run finished before the crash point: nothing to recover.
			continue
		}
		if !errors.Is(err, scheduler.ErrCrashed) {
			t.Fatalf("k=%d: %v", k, err)
		}
		if _, err := scheduler.Recover(fed, eng.Log(), procs); err != nil {
			t.Fatalf("k=%d: recovery failed: %v", k, err)
		}
		if n := len(fed.InDoubt()); n != 0 {
			t.Fatalf("k=%d: in-doubt transactions remain", k)
		}
	}
}

func TestValidationRejectsBadProcess(t *testing.T) {
	fed := paper.Federation(1)
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	// Process references an unknown service.
	badSvc := process.NewBuilder("B").
		Add(1, "ghost", activity.Retriable).
		MustBuild()
	if _, err := eng.Run([]*process.Process{badSvc}); err == nil {
		t.Fatal("unknown service must be rejected")
	}
}

func TestValidationRejectsKindMismatch(t *testing.T) {
	fed := paper.Federation(1)
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	// a12 is a pivot in the federation but declared retriable here.
	bad := process.NewBuilder("B").
		Add(1, paper.SvcA12, activity.Retriable).
		MustBuild()
	if _, err := eng.Run([]*process.Process{bad}); err == nil {
		t.Fatal("kind mismatch must be rejected")
	}
}

func TestBlockPivotsAblation(t *testing.T) {
	fed := paper.Federation(3)
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED, BlockPivots: true})
	res, err := eng.Run([]*process.Process{paper.P1(), paper.P2(), paper.P3()})
	if err != nil {
		t.Fatal(err)
	}
	verifySchedule(t, res)
	if res.Metrics.CommittedProcs < 3 {
		t.Fatalf("all processes must commit: %+v", res.Metrics)
	}
}
