package scheduler_test

import (
	"errors"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/workload"
)

// TestWeakOrderCrashRecovery crashes the scheduler at many points while
// the weak order is active and verifies recovery always resolves all
// in-doubt transactions (including weakly invoked ones) and leaves
// consistent state.
func TestWeakOrderCrashRecovery(t *testing.T) {
	for k := 1; k <= 25; k += 2 {
		p := workload.DefaultProfile(int64(200 + k))
		p.Processes = 8
		p.ConflictProb = 0.5
		p.PermFailureProb = 0.1
		w := workload.MustGenerate(p)
		eng, err := scheduler.New(w.Fed, scheduler.Config{
			Mode: scheduler.PRED, WeakOrder: true, CrashAfterEvents: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		defs := make([]*process.Process, 0, len(w.Jobs))
		for _, j := range w.Jobs {
			defs = append(defs, j.Proc)
		}
		_, err = eng.RunJobs(w.Jobs)
		if err == nil {
			continue // finished before the crash point
		}
		if !errors.Is(err, scheduler.ErrCrashed) {
			t.Fatalf("k=%d: %v", k, err)
		}
		if _, err := scheduler.Recover(w.Fed, eng.Log(), defs); err != nil {
			t.Fatalf("k=%d: recovery: %v", k, err)
		}
		if n := len(w.Fed.InDoubt()); n != 0 {
			t.Fatalf("k=%d: %d in-doubt transactions remain", k, n)
		}
		for item, v := range w.Fed.Snapshot() {
			if v < 0 {
				t.Fatalf("k=%d: %s negative (%d)", k, item, v)
			}
		}
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
