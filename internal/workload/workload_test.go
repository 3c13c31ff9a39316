package workload

import (
	"testing"

	"transproc/internal/process"
	"transproc/internal/scheduler"
)

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultProfile(42)
	w1 := MustGenerate(p)
	w2 := MustGenerate(p)
	if len(w1.Jobs) != len(w2.Jobs) {
		t.Fatal("same profile must generate the same job count")
	}
	for i := range w1.Jobs {
		if w1.Jobs[i].Proc.String() != w2.Jobs[i].Proc.String() {
			t.Fatalf("job %d differs between generations", i)
		}
	}
}

func TestGeneratedProcessesHaveGuaranteedTermination(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := DefaultProfile(seed)
		p.Processes = 8
		w := MustGenerate(p)
		for _, j := range w.Jobs {
			if err := process.ValidateGuaranteedTermination(j.Proc); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := DefaultProfile(1)
	bad.Processes = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("zero processes must be rejected")
	}
	bad = DefaultProfile(1)
	bad.MinActivities = 1
	if _, err := Generate(bad); err == nil {
		t.Fatal("too-short processes must be rejected")
	}
	bad = DefaultProfile(1)
	bad.MaxActivities = bad.MinActivities - 1
	if _, err := Generate(bad); err == nil {
		t.Fatal("inverted bounds must be rejected")
	}
}

func TestArrivalSpacing(t *testing.T) {
	p := DefaultProfile(1)
	p.Processes = 4
	p.ArrivalSpacing = 10
	w := MustGenerate(p)
	for i, j := range w.Jobs {
		if j.Arrival != int64(i)*10 {
			t.Fatalf("job %d arrival = %d", i, j.Arrival)
		}
	}
}

func TestGeneratedWorkloadRunsUnderAllModes(t *testing.T) {
	for _, mode := range []scheduler.Mode{scheduler.PRED, scheduler.Serial, scheduler.Conservative, scheduler.CCOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			p := DefaultProfile(7)
			p.Processes = 8
			w := MustGenerate(p)
			eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunJobs(w.Jobs)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.CommittedProcs+res.Metrics.AbortedProcs < p.Processes {
				t.Fatalf("not all processes terminated: %+v", res.Metrics)
			}
			if res.Metrics.Makespan <= 0 {
				t.Fatal("makespan must advance")
			}
		})
	}
}

func TestPREDWorkloadSchedulesArePRED(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := DefaultProfile(seed)
		p.Processes = 6
		p.ConflictProb = 0.5
		p.PermFailureProb = 0.1
		w := MustGenerate(p)
		eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunJobs(w.Jobs)
		if err != nil {
			t.Fatal(err)
		}
		ok, at, _, err := res.Schedule.PRED()
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, res.Schedule)
		}
		if !ok {
			t.Fatalf("seed %d: scheduler produced a non-PRED schedule (prefix %d):\n%s", seed, at, res.Schedule)
		}
	}
}

func TestHighConflictWorkload(t *testing.T) {
	p := DefaultProfile(3)
	p.Processes = 10
	p.ConflictProb = 0.9
	p.PermFailureProb = 0.15
	w := MustGenerate(p)
	eng, _ := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED})
	res, err := eng.RunJobs(w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CommittedProcs == 0 {
		t.Fatal("even under high conflict some processes must commit")
	}
}

func TestParallelBranchGeneration(t *testing.T) {
	p := DefaultProfile(5)
	p.Processes = 30
	p.ParallelProb = 1.0
	p.MinActivities = 7
	p.MaxActivities = 9
	w := MustGenerate(p)
	parallel := 0
	for _, j := range w.Jobs {
		if err := process.ValidateGuaranteedTermination(j.Proc); err != nil {
			t.Fatalf("%s: %v", j.Proc.ID, err)
		}
		// Parallel structure: some activity has two or more direct
		// successors via separate chains.
		for _, a := range j.Proc.Activities() {
			if len(j.Proc.Chains(a.Local)) >= 2 {
				parallel++
				break
			}
		}
	}
	if parallel == 0 {
		t.Fatal("no parallel processes generated at ParallelProb=1")
	}
	// And they run correctly.
	eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunJobs(w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	ok, at, _, err := res.Schedule.PRED()
	if err != nil || !ok {
		t.Fatalf("PRED=%v at=%d err=%v", ok, at, err)
	}
}

// BenchmarkGenerate generates a workload the size of the rt-long
// benchmark's: 200 processes on the default profile, the federation
// and every process definition.
func BenchmarkGenerate(b *testing.B) {
	p := DefaultProfile(7)
	p.Processes = 200
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}
