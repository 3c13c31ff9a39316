package transproc_test

import (
	"testing"

	"transproc"
)

// TestQuickstartFlow exercises the public façade end to end: define
// subsystems and a process, run it under the PRED scheduler, check the
// schedule and the subsystem state.
func TestQuickstartFlow(t *testing.T) {
	shop := transproc.NewSubsystem("shop", 1)
	shop.MustRegister(transproc.ServiceSpec{
		Name: "reserve", Kind: transproc.Compensatable, Subsystem: "shop",
		Compensation: "reserve⁻¹", WriteSet: []string{"stock"},
	})
	shop.MustRegister(transproc.ServiceSpec{
		Name: "pay", Kind: transproc.Pivot, Subsystem: "shop", WriteSet: []string{"ledger"},
	})
	shop.MustRegister(transproc.ServiceSpec{
		Name: "notify", Kind: transproc.Retriable, Subsystem: "shop", WriteSet: []string{"outbox"},
	})
	fed := transproc.NewFederation()
	fed.MustAdd(shop)

	order := transproc.NewProcess("Order").
		Add(1, "reserve", transproc.Compensatable).
		Add(2, "pay", transproc.Pivot).
		Add(3, "notify", transproc.Retriable).
		Seq(1, 2).Seq(2, 3).
		MustBuild()

	if err := transproc.ValidateGuaranteedTermination(order); err != nil {
		t.Fatal(err)
	}
	if ok, why := transproc.IsWellFormedFlex(order); !ok {
		t.Fatalf("order is well formed: %s", why)
	}
	execs, err := transproc.Executions(order)
	if err != nil {
		t.Fatal(err)
	}
	if len(execs) == 0 {
		t.Fatal("expected enumerable executions")
	}

	eng, err := transproc.NewEngine(fed, transproc.Config{Mode: transproc.PRED})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]*transproc.Process{order})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcomes["Order"].Committed {
		t.Fatal("order must commit")
	}
	ok, _, _, err := res.Schedule.PRED()
	if err != nil || !ok {
		t.Fatalf("PRED = %v, %v", ok, err)
	}
	if shop.Get("stock") != 1 || shop.Get("ledger") != 1 || shop.Get("outbox") != 1 {
		t.Fatal("effects missing")
	}
}

// TestFacadeScheduleTheory exercises the schedule-theory API via the
// façade.
func TestFacadeScheduleTheory(t *testing.T) {
	tab := transproc.NewConflictTable()
	tab.AddConflict("x", "y")
	p1 := transproc.NewProcess("P1").Add(1, "x", transproc.Compensatable).MustBuild()
	p2 := transproc.NewProcess("P2").Add(1, "y", transproc.Compensatable).MustBuild()
	s, err := transproc.NewSchedule(tab, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke("P1", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke("P2", 1); err != nil {
		t.Fatal(err)
	}
	if !s.Serializable() {
		t.Fatal("two events cannot form a cycle")
	}
	ok, _, _, err := s.PRED()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("both-compensatable prefix must be PRED")
	}
}

// TestFacadeWorkloadAndRecovery runs a generated workload through crash
// and recovery using only the façade (plus a WAL).
func TestFacadeWorkloadAndRecovery(t *testing.T) {
	w, err := transproc.GenerateWorkload(transproc.DefaultWorkloadProfile(3))
	if err != nil {
		t.Fatal(err)
	}
	log := transproc.NewMemWAL()
	eng, err := transproc.NewEngine(w.Fed, transproc.Config{
		Mode: transproc.PRED, Log: log, CrashAfterEvents: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defs := make([]*transproc.Process, 0, len(w.Jobs))
	for _, j := range w.Jobs {
		defs = append(defs, j.Proc)
	}
	if _, err := eng.RunJobs(w.Jobs); err == nil {
		t.Skip("run finished before the crash point")
	}
	report, err := transproc.Recover(w.Fed, log, defs)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Fed.InDoubt()) != 0 {
		t.Fatal("in-doubt transactions remain after recovery")
	}
	_ = report
}

// TestFacadeSpecAndCompose exercises the declarative definitions and
// subprocess composition through the façade.
func TestFacadeSpecAndCompose(t *testing.T) {
	doc := []byte(`{
	  "subsystems": [
	    {"name": "s", "seed": 1, "services": [
	      {"name": "c1", "kind": "compensatable", "writes": ["a"]},
	      {"name": "p1", "kind": "pivot", "writes": ["b"]},
	      {"name": "r1", "kind": "retriable", "writes": ["c"]}
	    ]}
	  ],
	  "processes": [
	    {"id": "P",
	     "activities": [{"local": 1, "service": "c1"},
	                    {"local": 2, "service": "p1"},
	                    {"local": 3, "service": "r1"}],
	     "seq": [[1, 2], [2, 3]]}
	  ]
	}`)
	fed, jobs, err := transproc.LoadSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := transproc.NewEngine(fed, transproc.Config{Mode: transproc.PRED})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcomes["P"].Committed {
		t.Fatal("P must commit")
	}

	// Composition: all-compensatable stage before the loaded process's
	// definition shape.
	stage1 := transproc.NewProcess("S1").Add(1, "c1", transproc.Compensatable).MustBuild()
	stage2 := transproc.NewProcess("S2").
		Add(1, "p1", transproc.Pivot).
		Add(2, "r1", transproc.Retriable).
		Seq(1, 2).MustBuild()
	if transproc.EffectiveKind(stage1) != "c" || transproc.EffectiveKind(stage2) != "p" {
		t.Fatal("effective kinds wrong")
	}
	combined, err := transproc.Compose("Pipeline", stage1, stage2)
	if err != nil {
		t.Fatal(err)
	}
	fed2, _, err := transproc.LoadSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	eng2, _ := transproc.NewEngine(fed2, transproc.Config{Mode: transproc.PRED})
	res2, err := eng2.Run([]*transproc.Process{combined})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Outcomes["Pipeline"].Committed {
		t.Fatal("pipeline must commit")
	}
}
