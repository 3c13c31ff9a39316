package scheduler_test

import (
	"fmt"
	"testing"

	"transproc/internal/scheduler"
	"transproc/internal/workload"
)

// TestProtocolSoak sweeps generated workloads across modes, conflict
// rates and failure rates, asserting the central protocol invariant:
// every schedule produced by a PRED-family scheduler is
// prefix-reducible, and every run terminates every process. With
// -short the sweep shrinks.
func TestProtocolSoak(t *testing.T) {
	seeds := int64(24)
	if testing.Short() {
		seeds = 4
	}
	for _, mode := range []scheduler.Mode{scheduler.PRED, scheduler.Serial, scheduler.Conservative, scheduler.CCOnly} {
		for _, conflictProb := range []float64{0.2, 0.5, 0.8} {
			for _, failProb := range []float64{0.0, 0.1, 0.25} {
				name := fmt.Sprintf("%s/c%.1f/f%.2f", mode, conflictProb, failProb)
				t.Run(name, func(t *testing.T) {
					for seed := int64(1); seed <= seeds; seed++ {
						p := workload.DefaultProfile(seed)
						p.Processes = 8
						p.ConflictProb = conflictProb
						p.PermFailureProb = failProb
						w := workload.MustGenerate(p)
						eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: mode})
						if err != nil {
							t.Fatal(err)
						}
						res, err := eng.RunJobs(w.Jobs)
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						if got := res.Metrics.CommittedProcs + res.Metrics.AbortedProcs; got < p.Processes {
							t.Fatalf("seed %d: only %d of %d processes terminated", seed, got, p.Processes)
						}
						if mode == scheduler.CCOnly {
							continue // no PRED guarantee by design
						}
						ok, at, _, err := res.Schedule.PRED()
						if err != nil {
							t.Fatalf("seed %d: PRED check: %v", seed, err)
						}
						if !ok {
							t.Fatalf("seed %d: non-PRED schedule (prefix %d):\n%s", seed, at, res.Schedule)
						}
					}
				})
			}
		}
	}
}

// TestSoakEffectConsistency verifies guaranteed termination end to end:
// after every run, each process either committed (its effects present)
// or aborted effect-free/forward-complete — concretely, no data item may
// ever go negative, and the number of in-doubt transactions must be
// zero. With -short the sweep shrinks.
func TestSoakEffectConsistency(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= seeds; seed++ {
		p := workload.DefaultProfile(seed)
		p.Processes = 10
		p.ConflictProb = 0.5
		p.PermFailureProb = 0.15
		w := workload.MustGenerate(p)
		eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunJobs(w.Jobs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n := len(w.Fed.InDoubt()); n != 0 {
			t.Fatalf("seed %d: %d in-doubt transactions after completion", seed, n)
		}
		for item, v := range w.Fed.Snapshot() {
			if v < 0 {
				t.Fatalf("seed %d: item %s went negative (%d): compensation applied without its base", seed, item, v)
			}
		}
	}
}
