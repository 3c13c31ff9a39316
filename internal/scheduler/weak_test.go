package scheduler_test

import (
	"fmt"
	"testing"

	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/scheduler"
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
