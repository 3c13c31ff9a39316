package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/sim"
	"transproc/internal/workload"
)

// e1 reproduces Figure 2 and Figure 3: process P1's structure and its
// valid executions.
func e1() error {
	p1 := paper.P1()
	fmt.Println("  P1 =", p1)
	fmt.Println("  precedence: a11 ≪ a12 ≪ (a13 ≪ a14 | a15 ≪ a16), preference (a12≪a13) ◁ (a12≪a15)")
	sd, ok := p1.StateDetermining()
	if err := verdict(ok && sd == 2, "state-determining activity s_{1_0} = a12 (the first pivot)"); err != nil {
		return err
	}
	wf, why := process.IsWellFormedFlex(p1)
	if err := verdict(wf, "P1 has well-formed flex structure (%s)", why); err != nil {
		return err
	}
	if err := verdict(process.ValidateGuaranteedTermination(p1) == nil,
		"guaranteed termination verified by exhaustive failure exploration"); err != nil {
		return err
	}
	execs, err := process.Executions(p1)
	if err != nil {
		return err
	}
	fmt.Println("  terminal executions (Figure 3 shows the four that reach a12):")
	reachPivot := 0
	for _, e := range execs {
		fmt.Println("   ", e)
		if strings.Contains(e.String(), "a2") {
			reachPivot++
		}
	}
	return verdict(reachPivot == 4, "four valid executions reach the pivot (Figure 3)")
}

// e2 reproduces Example 2: the completion C(P1) in both recovery modes.
func e2() error {
	p1 := paper.P1()
	in := process.NewInstance(p1)
	in.MarkCommitted(1)
	steps, err := in.Completion()
	if err != nil {
		return err
	}
	fmt.Printf("  after a11: mode=%v, C(P1)=%v\n", in.Mode(), steps)
	if err := verdict(in.Mode() == process.BREC && len(steps) == 1 && steps[0].Service == "a11⁻¹",
		"B-REC completion is {a11⁻¹} (Example 2)"); err != nil {
		return err
	}
	in.MarkCommitted(2)
	in.MarkCommitted(3)
	steps, err = in.Completion()
	if err != nil {
		return err
	}
	fmt.Printf("  after a13: mode=%v, C(P1)=%v\n", in.Mode(), steps)
	want := len(steps) == 3 && steps[0].Service == "a13⁻¹" && steps[1].Service == "a15" && steps[2].Service == "a16"
	return verdict(in.Mode() == process.FREC && want,
		"F-REC completion is {a13⁻¹ ≪ a15 ≪ a16} (Example 2)")
}

func fig4a() *schedule.Schedule {
	s := schedule.MustNew(paper.Conflicts(), paper.P1(), paper.P2())
	return s.MustPlay(
		schedule.Ok("P1", 1), schedule.Ok("P2", 1), schedule.Ok("P2", 2),
		schedule.Ok("P2", 3), schedule.Ok("P1", 2), schedule.Ok("P1", 3),
		schedule.Ok("P2", 4),
	)
}

// e3 reproduces Examples 3 and 4 (Figure 4).
func e3() error {
	sb := schedule.MustNew(paper.Conflicts(), paper.P1(), paper.P2())
	sb.MustPlay(
		schedule.Ok("P1", 1), schedule.Ok("P2", 1), schedule.Ok("P2", 2),
		schedule.Ok("P2", 3), schedule.Ok("P2", 4), schedule.Ok("P1", 2),
		schedule.Ok("P1", 3),
	)
	fmt.Println("  S'_t2 (Fig 4b) =", sb)
	if err := verdict(!sb.Serializable(), "S'_t2 is NOT serializable (cycle P1→P2→P1, Example 3)"); err != nil {
		return err
	}
	sa := fig4a()
	fmt.Println("  S_t2  (Fig 4a) =", sa)
	return verdict(sa.Serializable(), "S_t2 is serializable (Example 4)")
}

// e4 reproduces Examples 5 and 6 (Figures 5-6).
func e4() error {
	s := fig4a()
	comp, err := s.Completed()
	if err != nil {
		return err
	}
	fmt.Println("  S̃_t2 =", comp)
	if err := verdict(comp.Serializable(), "completed schedule S̃_t2 is serializable (Example 5)"); err != nil {
		return err
	}
	red := comp.Reduce()
	fmt.Println("  reduction:", red.Describe())
	if err := verdict(red.RemovedPairs == 1, "exactly the pair (a13, a13⁻¹) is removed (Example 6)"); err != nil {
		return err
	}
	ok, _, err := s.RED()
	if err != nil {
		return err
	}
	return verdict(ok, "S_t2 is reducible: RED holds (Example 6)")
}

// e5 reproduces Examples 7 and 9 (Figure 7).
func e5() error {
	s := schedule.MustNew(paper.Conflicts(), paper.P1(), paper.P2())
	s.MustPlay(
		schedule.Ok("P1", 1), schedule.Ok("P2", 1), schedule.Ok("P2", 2),
		schedule.Ok("P1", 2), schedule.Ok("P1", 3), schedule.Ok("P1", 4),
		schedule.C("P1"),
		schedule.Ok("P2", 3), schedule.Ok("P2", 4), schedule.Ok("P2", 5),
		schedule.C("P2"),
	)
	fmt.Println("  S'' =", s)
	okRED, _, err := s.RED()
	if err != nil {
		return err
	}
	if err := verdict(okRED, "S'' is RED (Example 7)"); err != nil {
		return err
	}
	okPRED, _, _, err := s.PRED()
	if err != nil {
		return err
	}
	return verdict(okPRED, "every prefix of S'' is reducible: PRED holds (Example 9)")
}

// e6 reproduces Example 8 (Figure 8): the prefix S_t1 of S_t2 is not
// reducible.
func e6() error {
	s := fig4a()
	ok, at, red, err := s.PRED()
	if err != nil {
		return err
	}
	if err := verdict(!ok && at == 4, "S_t2 is NOT prefix-reducible; shortest bad prefix is S_t1 = first 4 events (Example 8)"); err != nil {
		return err
	}
	pre := s.Prefix(at)
	comp, err := pre.Completed()
	if err != nil {
		return err
	}
	fmt.Println("  S̃_t1 =", comp)
	fmt.Println("  reduction:", red.Describe())
	return verdict(!comp.Serializable(),
		"S̃_t1 keeps the cycle a11 ≪ a21 ≪ a11⁻¹ — compensation of a21 is not available (Figure 8)")
}

// e7 reproduces Example 10 (Figure 9): the quasi-commit of a12.
func e7() error {
	s := schedule.MustNew(paper.Conflicts(), paper.P1(), paper.P3())
	s.MustPlay(
		schedule.Ok("P1", 1), schedule.Ok("P1", 2),
		schedule.Ok("P3", 1), schedule.Ok("P3", 2),
		schedule.Ok("P1", 3), schedule.Ok("P1", 4), schedule.C("P1"),
		schedule.Ok("P3", 3), schedule.C("P3"),
	)
	fmt.Println("  S* =", s)
	ok, _, _, err := s.PRED()
	if err != nil {
		return err
	}
	if err := verdict(ok, "a31 may conflict a11 once P1 is F-REC: compensation of a11 can no longer appear (Example 10)"); err != nil {
		return err
	}
	// Contrast: the same conflict while P1 is still B-REC, with P3 then
	// passing its own pivot, violates PRED (Lemma 1).
	bad := schedule.MustNew(paper.Conflicts(), paper.P1(), paper.P3())
	bad.MustPlay(schedule.Ok("P1", 1), schedule.Ok("P3", 1), schedule.Ok("P3", 2))
	okBad, _, _, err := bad.PRED()
	if err != nil {
		return err
	}
	return verdict(!okBad, "contrast: P3's pivot before C_1 while P1 is B-REC violates PRED (Lemma 1.1)")
}

// e8 runs the CIM scenario (Figure 1) under CC-only and PRED.
func e8() error {
	run := func(mode scheduler.Mode) (*scheduler.Result, int64, int64, int64, error) {
		fed := paper.CIMFederation(11)
		testdb, _ := fed.Subsystem("testdb")
		testdb.ForceFail(paper.SvcTest, 1)
		eng, err := scheduler.New(fed, scheduler.Config{Mode: mode})
		if err != nil {
			return nil, 0, 0, 0, err
		}
		res, err := eng.RunJobs([]scheduler.Job{
			{Proc: paper.CIMConstruction("Pc")},
			{Proc: paper.CIMProduction("Pp"), Arrival: 11},
		})
		if err != nil {
			return nil, 0, 0, 0, err
		}
		pdm, _ := fed.Subsystem("pdm")
		floor, _ := fed.Subsystem("floor")
		return res, pdm.Get("bom"), pdm.Get("bomCopy"), floor.Get("parts"), nil
	}
	resCC, bom, copyv, parts, err := run(scheduler.CCOnly)
	if err != nil {
		return err
	}
	fmt.Println("  cc-only:", resCC.Schedule)
	okCC, _, _, err := resCC.Schedule.PRED()
	if err != nil {
		return err
	}
	if err := verdict(!okCC && bom == 0 && parts == 1 && copyv == 1,
		"CC-only: parts produced from an invalidated BOM; schedule not PRED (Section 2.2)"); err != nil {
		return err
	}
	resP, _, _, _, err := run(scheduler.PRED)
	if err != nil {
		return err
	}
	fmt.Println("  pred:   ", resP.Schedule)
	okP, _, _, err := resP.Schedule.PRED()
	if err != nil {
		return err
	}
	return verdict(okP, "PRED: the production activity is deferred; the schedule is PRED (Section 3.5)")
}

// e9 samples random schedules and verifies the strict form of
// Theorem 1 on the PRED ones.
func e9() error {
	services := []string{"s1", "s2", "s3", "s4", "s5", "s6"}
	nPRED, checked := 0, 0
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		tab := conflict.NewTable()
		for i := 0; i < len(services); i++ {
			for j := i; j < len(services); j++ {
				if rng.Float64() < 0.3 {
					tab.AddConflict(services[i], services[j])
				}
			}
		}
		procs := []*process.Process{
			workload.RandomWellFormed(rng, "P1", services),
			workload.RandomWellFormed(rng, "P2", services),
		}
		s := workload.RandomSchedule(rng, tab, procs, 30)
		checked++
		pred, _, _, err := s.PRED()
		if err != nil || !pred {
			continue
		}
		nPRED++
		if !s.EffectiveSerializable() {
			return fmt.Errorf("counterexample: PRED schedule not serializable: %s", s)
		}
		if ok, vs := s.ProcessRecoverable(); !ok {
			for _, v := range vs {
				if s.ViolationMaterialized(v) {
					return fmt.Errorf("counterexample: materialized Proc-REC violation in PRED schedule: %s", s)
				}
			}
		}
	}
	fmt.Printf("  %d random schedules, %d PRED\n", checked, nPRED)
	return verdict(nPRED >= 20,
		"every PRED schedule was serializable with no materialized Proc-REC violation (Theorem 1)")
}

// e10 verifies the lemma-level behaviour of the live scheduler.
func e10() error {
	fed := paper.Federation(3)
	eng, err := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	if err != nil {
		return err
	}
	res, err := eng.Run([]*process.Process{paper.P1(), paper.P2(), paper.P3()})
	if err != nil {
		return err
	}
	fmt.Println("  schedule:", res.Schedule)
	fmt.Printf("  deferrals=%d 2pc=%d compensations=%d\n",
		res.Metrics.Deferrals, res.Metrics.TwoPCCommits, res.Metrics.Compensations)
	ok, _, _, err := res.Schedule.PRED()
	if err != nil {
		return err
	}
	if err := verdict(ok, "the scheduler's output is PRED"); err != nil {
		return err
	}
	// Lemma 2: compensations in the schedule appear in reverse order of
	// their bases (vacuously true when no compensation ran).
	evs := res.Schedule.Events()
	basePos := map[string]int{}
	for i, e := range evs {
		if e.Type == schedule.Invoke && !e.Inverse {
			basePos[fmt.Sprintf("%s/%d", e.Proc, e.Local)] = i
		}
	}
	lemma2 := true
	var lastInvPos, lastBase = -1, 1 << 30
	for i, e := range evs {
		if e.Type == schedule.Invoke && e.Inverse {
			bp := basePos[fmt.Sprintf("%s/%d", e.Proc, e.Local)]
			if lastInvPos >= 0 && bp > lastBase {
				// Later compensation with a later base is fine only if
				// they do not conflict; conflicting ones must reverse.
				if res.Schedule.Table.Conflicts(e.Service, evs[lastInvPos].Service) {
					lemma2 = false
				}
			}
			lastInvPos, lastBase = i, bp
		}
	}
	return verdict(lemma2, "conflicting compensations appear in reverse order of their bases (Lemma 2)")
}

// e11 demonstrates Section 3.5's negative result: no SOT-like criterion
// (using only S, without the completed schedule) exists, because
// completions introduce conflicts that are invisible in S.
func e11() error {
	// Two schedules with IDENTICAL visible event sequences ⟨x y⟩ over
	// processes of identical shape, where even the conflicts among the
	// visible events are identical (x and y commute in both). They
	// differ only in whether the processes' *future* forward-recovery
	// activities conflict with the other process's executed pivot —
	// information that lives in the completions, not in S. The PRED
	// verdicts differ, so no SOT-like criterion relying only on S can
	// exist (Section 3.5).
	mk := func(crossConflicts bool) (*schedule.Schedule, error) {
		tab := conflict.NewTable()
		tab.AddConflict("x", "g") // P2's future tail g conflicts executed x
		if crossConflicts {
			tab.AddConflict("y", "f") // and P1's future tail f conflicts executed y
		}
		p1 := process.NewBuilder("P1").
			Add(1, "x", activity.Pivot).
			Add(2, "f", activity.Retriable).
			Seq(1, 2).MustBuild()
		p2 := process.NewBuilder("P2").
			Add(1, "y", activity.Pivot).
			Add(2, "g", activity.Retriable).
			Seq(1, 2).MustBuild()
		s, err := schedule.New(tab, p1, p2)
		if err != nil {
			return nil, err
		}
		if err := s.Invoke("P1", 1); err != nil {
			return nil, err
		}
		if err := s.Invoke("P2", 1); err != nil {
			return nil, err
		}
		return s, nil
	}
	sa, err := mk(false)
	if err != nil {
		return err
	}
	sb, err := mk(true)
	if err != nil {
		return err
	}
	fmt.Println("  S_a =", sa, " S_b =", sb, " (identical visible events; x and y commute in both)")
	okA, _, _, err := sa.PRED()
	if err != nil {
		return err
	}
	okB, _, _, err := sb.PRED()
	if err != nil {
		return err
	}
	fmt.Printf("  PRED(S_a)=%v PRED(S_b)=%v\n", okA, okB)
	return verdict(okA && !okB,
		"identical schedules, different verdicts: the completions introduce the deciding conflicts; S̃ must always be considered (Section 3.5)")
}

// e13 sweeps the outage rate of the fault-injecting transport and checks
// that guaranteed termination survives an unreliable network: at every
// rate each process must still reach commit or abort, with the driver's
// re-invocations and the recovered replies the sweep reports as its
// price.
func e13() error {
	p := workload.DefaultProfile(42)
	p.Processes = 16
	p.ConflictProb = 0.3
	p.PermFailureProb = 0
	t, err := sim.ResilienceSweep(p, []float64{0, 0.10, 0.25, 0.40, 0.55})
	if err != nil {
		return err
	}
	t.Render(os.Stdout)
	for _, r := range t.Rows {
		parts := strings.SplitN(r[5], "/", 2)
		if len(parts) != 2 || parts[0] != parts[1] {
			return fmt.Errorf("outage rate %s: only %s processes terminated", r[0], r[5])
		}
	}
	return verdict(true, "every process reaches a terminal state at every outage rate (guaranteed termination under unreliable subsystems)")
}

func b1() error {
	p := workload.DefaultProfile(42)
	p.Processes = 24
	p.ConflictProb = 0.4
	p.PermFailureProb = 0.08
	t, err := sim.CompareSchedulers(p, sim.AllModes())
	if err != nil {
		return err
	}
	t.Render(os.Stdout)
	t2, err := sim.ConflictSweep(p, []float64{0.0, 0.2, 0.4, 0.6, 0.8}, sim.AllModes())
	if err != nil {
		return err
	}
	fmt.Println()
	t2.Render(os.Stdout)
	t3, err := sim.FailureSweep(p, []float64{0.0, 0.1, 0.2, 0.3}, []scheduler.Mode{scheduler.PRED, scheduler.CCOnly})
	if err != nil {
		return err
	}
	fmt.Println()
	t3.Render(os.Stdout)
	return nil
}

func b2() error {
	p := workload.DefaultProfile(42)
	p.Processes = 24
	p.ConflictProb = 0.5
	t, err := sim.QuasiCommitAblation(p)
	if err != nil {
		return err
	}
	t.Render(os.Stdout)
	return nil
}

func b5() error {
	p := workload.DefaultProfile(42)
	p.Processes = 12
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.Subsystems = 2
	p.ServicesPerSubsystem = 3
	t, err := sim.FaultMatrix(p, scheduler.PRED)
	if err != nil {
		return err
	}
	t.Render(os.Stdout)
	for _, r := range t.Rows {
		if r[5] != "true" || r[6] != "true" {
			return fmt.Errorf("fault on %s violated an invariant", r[0])
		}
	}
	return verdict(true, "every single-service fault keeps PRED and subsystem consistency")
}

func b4() error {
	p := workload.DefaultProfile(42)
	p.Processes = 12
	p.ConflictProb = 0.4
	p.PermFailureProb = 0.05
	t, err := sim.CrashRecoverySweep(p, []int{5, 15, 30, 60})
	if err != nil {
		return err
	}
	t.Render(os.Stdout)
	return nil
}
