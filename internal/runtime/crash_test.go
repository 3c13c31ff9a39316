package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"transproc/internal/fault"
	"transproc/internal/process"
	"transproc/internal/runtime"
	"transproc/internal/scheduler"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// TestRuntimeKillRecover sweeps kill points through the concurrent
// runtime: the run is crashed, the surviving WAL and subsystem state are
// handed to the sequential scheduler.Recover, and the result must satisfy
// every recovery guarantee of the paper (prefix-reducible combined
// schedule, all processes terminal, Lemma-2 compensation order,
// exactly-once effects, idempotent recovery) — the differential-style
// check across the engine boundary: a concurrent execution, recovered
// sequentially.
//
// The mem leg kills at the K-th dispatch over an in-memory log. The file
// leg kills at dispatches and at WAL budgets over a file log that loses
// what the kill finds in its write buffer (fault.KillLog): the runtime
// syncs only ahead of a subsystem commit, so most kills lose an unsynced
// tail, and recovery must not need it. A clean finish loses nothing.
func TestRuntimeKillRecover(t *testing.T) {
	t.Parallel()
	t.Run("mem", func(t *testing.T) {
		kills := []int{1, 2, 3, 5, 8, 13, 21}
		if testing.Short() {
			kills = []int{1, 3, 8}
		}
		for seed := int64(1); seed <= 4; seed++ {
			for _, k := range kills {
				log := wal.NewMemLog()
				killAndRecover(t, seed, fault.Plan{KillAtDispatch: k}, log, func() wal.Log { return log })
			}
		}
	})
	t.Run("file", func(t *testing.T) {
		plans := []fault.Plan{
			{KillAtDispatch: 2}, {KillAtDispatch: 8}, {KillAtDispatch: 21},
			{CrashAfterWALRecords: 12}, {CrashAfterWALRecords: 40}, {CrashAfterWALRecords: 90},
		}
		seeds := int64(12)
		if testing.Short() {
			seeds = 4
		}
		dir := t.TempDir()
		runs, tails := 0, 0
		for seed := int64(1); seed <= seeds; seed++ {
			for i, plan := range plans {
				path := filepath.Join(dir, fmt.Sprintf("wal-%d-%d.log", seed, i))
				kl, err := fault.OpenKillLog(path)
				if err != nil {
					t.Fatal(err)
				}
				var lost int64
				var reopened wal.Log
				crashed := killAndRecover(t, seed, plan, fault.WrapWAL(kl, plan.CrashAfterWALRecords), func() wal.Log {
					var err error
					if lost, err = kl.Kill(); err != nil {
						t.Fatal(err)
					}
					if reopened, err = wal.OpenFile(path, false); err != nil {
						t.Fatal(err)
					}
					return reopened
				})
				reopened.Close()
				if lost > 0 && !crashed {
					t.Fatalf("seed %d plan %+v: a clean finish lost %d unsynced bytes", seed, plan, lost)
				}
				if lost > 0 {
					tails++
				}
				runs++
			}
		}
		t.Logf("%d of %d kills lost an unsynced tail", tails, runs)
	})
}

// killAndRecover runs the seed's workload on the runtime over log with
// the plan armed, kills it, and recovers and judges the log that
// restart returns. It reports whether the run crashed.
func killAndRecover(t *testing.T, seed int64, plan fault.Plan, log wal.Log, restart func() wal.Log) bool {
	t.Helper()
	p := workload.DefaultProfile(seed)
	p.Processes = 8
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.1
	w := workload.MustGenerate(p)
	defs := make([]*process.Process, 0, len(w.Jobs))
	for _, j := range w.Jobs {
		defs = append(defs, j.Proc)
	}
	inj := fault.NewInjector(plan)
	rt, err := runtime.New(w.Fed, runtime.Config{
		Mode: scheduler.PRED, Log: log, MaxRestarts: 64, Inject: inj.Point,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run(context.Background(), w.Jobs)
	if err != nil && !errors.Is(err, scheduler.ErrCrashed) {
		t.Fatalf("seed %d plan %+v: run: %v", seed, plan, err)
	}
	crashed := err != nil
	survivor := restart()
	recs, err := survivor.Records()
	if err != nil {
		t.Fatal(err)
	}
	pre := len(recs)
	if _, err := scheduler.Recover(w.Fed, survivor, defs); err != nil {
		t.Fatalf("seed %d plan %+v: recover: %v", seed, plan, err)
	}
	if err := fault.CheckRecovered(fault.CheckInput{
		Fed: w.Fed, Log: survivor, Defs: defs, PreCrashRecords: pre,
	}); err != nil {
		t.Fatalf("seed %d plan %+v (crashed=%v): %v", seed, plan, crashed, err)
	}
	return crashed
}
