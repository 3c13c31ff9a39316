package runtime_test

import (
	"context"
	"testing"
	"time"

	"transproc/internal/fault"
	"transproc/internal/process"
	"transproc/internal/runtime"
	"transproc/internal/scheduler"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// TestRuntimeCCOnlyVictimResolution drives the concurrent runtime's
// stall detection and victim-abort machinery, which the PRED modes make
// unreachable (semantic item locks plus potential-edge avoidance leave
// no wedge to break — see TestRuntimeHighContentionNoVictims). The
// CCOnly baseline has no avoidance: conflicting executions interleave
// until an executed serialization edge would close a cycle, the denial
// wedges the processes, and the deadlock detector (or the quiescence
// backstop) must pick victims so the run still terminates.
func TestRuntimeCCOnlyVictimResolution(t *testing.T) {
	t.Parallel()
	victims := int64(0)
	for seed := int64(1); seed <= 3; seed++ {
		// Zero failure probabilities and a real tick: every abort below
		// is a victim abort, and activity durations overlap enough for
		// crossed serialization edges to actually form (with Tick 0,
		// invocations are instantaneous and wedges rarely build).
		p := workload.DefaultProfile(seed)
		p.Processes = 16
		p.ConflictProb = 0.9
		p.ParallelProb = 0.5
		p.PermFailureProb = 0
		p.TransientFailureProb = 0
		w := workload.MustGenerate(p)
		log := wal.NewMemLog()
		rt, err := runtime.New(w.Fed, runtime.Config{
			Mode: scheduler.CCOnly, Workers: 16, MaxRestarts: 64,
			Tick: 100 * time.Microsecond, Log: log,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(context.Background(), w.Jobs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Every origin terminal, none run twice: a victim aborted before
		// its pivot restarts until an incarnation commits; one aborted
		// past it completes forward and is not restarted.
		stands := map[process.ID]bool{}
		for id, o := range res.Outcomes {
			if o.Stands {
				stands[id.Origin()] = true
			}
		}
		for _, j := range w.Jobs {
			if !stands[j.Proc.ID.Origin()] {
				t.Fatalf("seed %d: no incarnation of %s committed or completed forward", seed, j.Proc.ID)
			}
		}
		recs, err := log.Records()
		if err != nil {
			t.Fatal(err)
		}
		if err := fault.OncePerOrigin(recs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		victims += res.Metrics.VictimAborts
		for item, v := range w.Fed.Snapshot() {
			if v < 0 {
				t.Fatalf("seed %d: %s negative (%d)", seed, item, v)
			}
		}
		if n := len(w.Fed.InDoubt()); n != 0 {
			t.Fatalf("seed %d: %d in-doubt transactions remain", seed, n)
		}
	}
	if victims == 0 {
		t.Fatal("CCOnly contention must wedge at least one process across the seeds (seed drift?)")
	}
}

// TestRuntimeHighContentionNoVictims pins the concurrent-runtime side
// of the zero-victim invariant (the sequential-engine side lives in the
// scheduler package): under PRED, Definition-6 semantic item locks and
// the forced-order graph's potential edges prevent every wedge, so even
// extreme contention terminates with no victim aborts. The deferred
// mid-process 2PC commits this workload provokes must all drain —
// prepared sets held back by Lemma 1 commit once their conflict
// predecessors terminate.
func TestRuntimeHighContentionNoVictims(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 3; seed++ {
		p := workload.DefaultProfile(seed)
		p.Processes = 16
		p.ConflictProb = 0.9
		p.ParallelProb = 0.5
		p.PermFailureProb = 0
		p.TransientFailureProb = 0
		w := workload.MustGenerate(p)
		rt, err := runtime.New(w.Fed, runtime.Config{
			Mode: scheduler.PRED, Workers: 16, Tick: 100 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(context.Background(), w.Jobs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Metrics.VictimAborts != 0 {
			t.Fatalf("seed %d: %d victim aborts; semantic locking + avoidance should prevent all wedges",
				seed, res.Metrics.VictimAborts)
		}
		if res.Metrics.CommittedProcs < p.Processes {
			t.Fatalf("seed %d: %d of %d processes committed", seed, res.Metrics.CommittedProcs, p.Processes)
		}
		ok, at, _, err := res.Schedule.PRED()
		if err != nil {
			t.Fatalf("seed %d: PRED check: %v", seed, err)
		}
		if !ok {
			t.Fatalf("seed %d: non-PRED schedule (prefix %d):\n%s", seed, at, res.Schedule)
		}
		if n := len(w.Fed.InDoubt()); n != 0 {
			t.Fatalf("seed %d: %d in-doubt transactions remain", seed, n)
		}
	}
}

// TestRuntimeDeferredCommitDrain mixes contention, parallel branches
// and permanent failures under a real tick so completions overlap:
// Lemma-1 defers 2PC commits mid-process (a prepared activity whose
// successors wait off-frontier), and those prepared sets must drain —
// committing once the conflict predecessors terminate — rather than
// wedge the process. Backward recoveries run concurrently with the
// deferrals, and the result must stay PRED and effect-consistent.
func TestRuntimeDeferredCommitDrain(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 8; seed++ {
		p := workload.DefaultProfile(seed)
		p.Processes = 24
		p.ConflictProb = 0.5
		p.ParallelProb = 0.5
		p.PermFailureProb = 0.15
		w := workload.MustGenerate(p)
		rt, err := runtime.New(w.Fed, runtime.Config{
			Mode: scheduler.PRED, Workers: 16, Tick: 200 * time.Microsecond,
			CheckpointEvery: 6, CompactOnCheckpoint: seed%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(context.Background(), w.Jobs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := res.Metrics.CommittedProcs + res.Metrics.AbortedProcs; got < p.Processes {
			t.Fatalf("seed %d: only %d of %d processes terminated", seed, got, p.Processes)
		}
		ok, at, _, err := res.Schedule.PRED()
		if err != nil {
			t.Fatalf("seed %d: PRED check: %v", seed, err)
		}
		if !ok {
			t.Fatalf("seed %d: non-PRED schedule (prefix %d):\n%s", seed, at, res.Schedule)
		}
		for item, v := range w.Fed.Snapshot() {
			if v < 0 {
				t.Fatalf("seed %d: %s negative (%d)", seed, item, v)
			}
		}
		if n := len(w.Fed.InDoubt()); n != 0 {
			t.Fatalf("seed %d: %d in-doubt transactions remain", seed, n)
		}
	}
}
