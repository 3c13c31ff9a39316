package scheduler_test

import (
	"fmt"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/workload"
)

// validateEachJob is the reference for ValidateJobs: every job explored
// on its own, then its services checked.
func validateEachJob(fed *subsystem.Federation, jobs []scheduler.Job) error {
	for _, j := range jobs {
		p := j.Proc
		if err := process.ValidateGuaranteedTermination(p); err != nil {
			return fmt.Errorf("scheduler: process %s lacks guaranteed termination: %w", p.ID, err)
		}
		for _, a := range p.Activities() {
			spec, ok := fed.Spec(a.Service)
			if !ok {
				return fmt.Errorf("scheduler: process %s uses unknown service %q", p.ID, a.Service)
			}
			if spec.Kind != a.Kind {
				return fmt.Errorf("scheduler: process %s activity %d declares %v for service %q of kind %v",
					p.ID, a.Local, a.Kind, a.Service, spec.Kind)
			}
			if a.Kind == activity.Compensatable && spec.Compensation != a.Compensation {
				return fmt.Errorf("scheduler: process %s activity %d compensation %q, subsystem provides %q",
					p.ID, a.Local, a.Compensation, spec.Compensation)
			}
		}
	}
	return nil
}

// renamed rebuilds p under id with the service of activity local
// replaced and its compensation set to comp ("" is the default name).
func renamed(p *process.Process, id process.ID, local int, service, comp string) *process.Process {
	b := process.NewBuilder(id)
	for _, a := range p.Activities() {
		svc, c := a.Service, a.Compensation
		if a.Local == local {
			svc, c = service, comp
		}
		b.AddComp(a.Local, svc, a.Kind, c)
	}
	for _, a := range p.Activities() {
		for _, chain := range p.Chains(a.Local) {
			b.Chain(a.Local, chain...)
		}
	}
	return b.MustBuild()
}

// TestValidateJobsMatchesPerJobLoop: exploring each shape once changes
// no verdict and no error text, for a bad job after good jobs of other
// shapes, a repeated bad shape, and service errors on a job whose shape
// an earlier job proved.
func TestValidateJobsMatchesPerJobLoop(t *testing.T) {
	fed := paper.Federation(1)
	pivots := func(id process.ID) *process.Process {
		return process.NewBuilder(id).
			Add(1, paper.SvcA12, activity.Pivot).
			Add(2, paper.SvcA14, activity.Pivot).
			Seq(1, 2).
			MustBuild()
	}
	p1, p2, p3 := paper.P1(), paper.P2(), paper.P3()
	cases := map[string][]*process.Process{
		"good":                 {p1, p2, p3, p1.WithID("P1b"), p3.WithID("P3b")},
		"bad after good":       {p1, p2, p3, pivots("B")},
		"repeated bad shape":   {p3, pivots("B1"), pivots("B2")},
		"bad after same good":  {p3, p3.WithID("P3b"), pivots("B"), pivots("B3")},
		"unknown service":      {p3, renamed(p3, "P3b", 2, "nowhere", "")},
		"kind mismatch":        {p2, renamed(p2, "P2b", 4, paper.SvcA12, "")},
		"compensation differs": {p1, renamed(p1, "P1b", 1, paper.SvcA11, "undo")},
	}
	for name, procs := range cases {
		jobs := make([]scheduler.Job, len(procs))
		for i, p := range procs {
			jobs[i] = scheduler.Job{Proc: p}
		}
		got, want := scheduler.ValidateJobs(fed, jobs), validateEachJob(fed, jobs)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: ValidateJobs = %v, per-job loop = %v", name, got, want)
		}
		if (want == nil) != (name == "good") {
			t.Errorf("%s: the reference answered %v", name, want)
		}
	}
}

// BenchmarkValidateJobs validates the 200 processes of one rep of the
// rt-long profile of bench/ (conflict 0.3, no failures): cold with the
// set of proven shapes emptied before each op, so every shape is
// explored once, and warm, where every shape is answered from the set.
func BenchmarkValidateJobs(b *testing.B) {
	p := workload.DefaultProfile(12)
	p.Processes = 200
	p.ConflictProb = 0.3
	p.PermFailureProb = 0
	p.TransientFailureProb = 0
	w := workload.MustGenerate(p)
	for _, cold := range []bool{true, false} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			if err := scheduler.ValidateJobs(w.Fed, w.Jobs); err != nil { // warm starts with every shape proven
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if cold {
					process.ResetProvenShapes()
				}
				if err := scheduler.ValidateJobs(w.Fed, w.Jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
