package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"transproc/internal/fault"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/runtime"
	"transproc/internal/scheduler"
	"transproc/internal/store"
	"transproc/internal/subsystem"
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
// leg kills at dispatches, at WAL budgets and at the two 2PC crash points
// over a file log that loses what the kill finds in its write buffer
// (fault.KillLog): the runtime syncs only ahead of a subsystem commit
// that is durable on its own, so most kills lose an unsynced tail, and
// recovery must not need it. A clean finish loses nothing.
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
			{CrashAtPoint: fault.PointAfterDecision, CrashAtCount: 1}, {CrashAtPoint: fault.PointMidResolve, CrashAtCount: 1},
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
	// The durable leg keeps every subsystem's state in a heap file whose
	// pages follow the log's sync (store.Options.Barrier), so no commit
	// waits for a sync: everything since the last page write-back is an
	// unsynced tail. On odd seeds every store mutation writes its page
	// back at once (store.Options.FlushEach), so a page ahead of the log
	// would be on the device at every kill. The kill drops the pool and
	// the log's write buffer, and recovery starts from a fresh federation
	// over what the files kept.
	t.Run("durable", func(t *testing.T) {
		plans := []fault.Plan{
			{KillAtDispatch: 2}, {KillAtDispatch: 8}, {KillAtDispatch: 21},
			{CrashAfterWALRecords: 12}, {CrashAfterWALRecords: 40}, {CrashAfterWALRecords: 90},
			{CrashAtPoint: fault.PointAfterDecision, CrashAtCount: 1}, {CrashAtPoint: fault.PointMidResolve, CrashAtCount: 1},
		}
		seeds := int64(12)
		if testing.Short() {
			seeds = 4
		}
		runs, tails := 0, 0
		for seed := int64(1); seed <= seeds; seed++ {
			for _, plan := range plans {
				if killDurableAndRecover(t, seed, plan, t.TempDir()) {
					tails++
				}
				runs++
			}
		}
		t.Logf("%d of %d kills lost an unsynced tail", tails, runs)
	})
}

// killTick is the service time of one cost unit in the kill sweeps:
// long enough that processes overlap, so commits are deferred and the
// 2PC crash points are reached.
const killTick = 20 * time.Microsecond

// killWorkload generates the seed's workload of the kill sweeps: a fresh
// federation over the same definitions on every call.
func killWorkload(seed int64) (*workload.Workload, []*process.Process) {
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
	return w, defs
}

// attachKillStores opens (or reopens) a heap file per subsystem under
// dir, with barrier as its write-ahead barrier.
func attachKillStores(t *testing.T, fed *subsystem.Federation, dir string, barrier func() error, flushEach bool) {
	t.Helper()
	for _, sub := range fed.Subsystems() {
		st, err := store.OpenFile(filepath.Join(dir, sub.Name()+".pages"), store.Options{Barrier: barrier, FlushEach: flushEach})
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.AttachStore(st); err != nil {
			t.Fatal(err)
		}
	}
}

// killDurableAndRecover runs the seed's workload on the runtime over a
// kill log and heap files, kills it with the plan, and recovers and
// judges what the files kept. It reports whether the kill lost an
// unsynced tail of the log.
func killDurableAndRecover(t *testing.T, seed int64, plan fault.Plan, dir string) bool {
	t.Helper()
	path := filepath.Join(dir, "wal.log")
	kl, err := fault.OpenKillLog(path)
	if err != nil {
		t.Fatal(err)
	}
	w, defs := killWorkload(seed)
	attachKillStores(t, w.Fed, dir, kl.Sync, seed%2 == 1)
	inj := fault.NewInjector(plan)
	rt, err := runtime.New(w.Fed, runtime.Config{
		Mode: scheduler.PRED, Log: fault.WrapWAL(kl, plan.CrashAfterWALRecords), MaxRestarts: 64, Inject: inj.Point, Tick: killTick,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background(), w.Jobs); err != nil && !errors.Is(err, scheduler.ErrCrashed) {
		t.Fatalf("seed %d plan %+v: run: %v", seed, plan, err)
	}
	for _, sub := range w.Fed.Subsystems() {
		sub.DurableStore().Abandon()
	}
	lost, err := kl.Kill()
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := wal.OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()
	fresh, _ := killWorkload(seed)
	attachKillStores(t, fresh.Fed, dir, survivor.Sync, false)
	recs, err := survivor.Records()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scheduler.RecoverDurable(fresh.Fed, survivor, defs, nil); err != nil {
		t.Fatalf("seed %d plan %+v: recover: %v", seed, plan, err)
	}
	if err := fault.CheckRecovered(fault.CheckInput{
		Fed: fresh.Fed, Log: survivor, Defs: defs, PreCrashRecords: len(recs),
	}); err != nil {
		t.Fatalf("seed %d plan %+v: %v", seed, plan, err)
	}
	if err := fault.CheckDurableStores(fresh.Fed); err != nil {
		t.Fatalf("seed %d plan %+v: %v", seed, plan, err)
	}
	for _, sub := range fresh.Fed.Subsystems() {
		sub.DurableStore().Close()
	}
	return lost > 0
}

// killAndRecover runs the seed's workload on the runtime over log with
// the plan armed, kills it, and recovers and judges the log that
// restart returns. It reports whether the run crashed.
func killAndRecover(t *testing.T, seed int64, plan fault.Plan, log wal.Log, restart func() wal.Log) bool {
	t.Helper()
	w, defs := killWorkload(seed)
	inj := fault.NewInjector(plan)
	rt, err := runtime.New(w.Fed, runtime.Config{
		Mode: scheduler.PRED, Log: log, MaxRestarts: 64, Inject: inj.Point, Tick: killTick,
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

// TestWriteAheadWaitsOnlyForCommitsOnTheirOwn runs the kill sweeps'
// workloads to the end over a file log, once with in-memory subsystems,
// whose commits are durable on their own, and once with every subsystem
// store-backed behind the log's sync. The first waits for shared syncs
// during the run; the second syncs the log once, before Run returns,
// through 2PC decisions included.
func TestWriteAheadWaitsOnlyForCommitsOnTheirOwn(t *testing.T) {
	t.Parallel()
	for _, stores := range []bool{false, true} {
		var syncs, decisions int64
		for seed := int64(1); seed <= 12; seed++ {
			dir := t.TempDir()
			log, err := wal.OpenFile(filepath.Join(dir, "wal.log"), false)
			if err != nil {
				t.Fatal(err)
			}
			w, _ := killWorkload(seed)
			if stores {
				attachKillStores(t, w.Fed, dir, log.Sync, false)
			}
			reg := metrics.New()
			rt, err := runtime.New(w.Fed, runtime.Config{Mode: scheduler.PRED, Log: log, MaxRestarts: 64, Tick: killTick, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Run(context.Background(), w.Jobs); err != nil {
				t.Fatalf("stores=%v seed %d: %v", stores, seed, err)
			}
			if n := reg.Counter(metrics.WALGroupBatches); stores && n != 1 {
				t.Fatalf("seed %d: store-backed run synced the log %d times, want once at the end", seed, n)
			}
			syncs += reg.Counter(metrics.WALGroupBatches)
			decisions += reg.Counter(metrics.TwoPCDecisions)
			if stores {
				for _, sub := range w.Fed.Subsystems() {
					if err := sub.DurableStore().Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
			log.Close()
		}
		t.Logf("stores=%v: %d syncs, %d 2PC decisions over 12 runs", stores, syncs, decisions)
		if !stores && syncs <= 12 {
			t.Fatalf("in-memory subsystems: %d syncs over 12 runs, want waits during the runs", syncs)
		}
		if decisions == 0 {
			t.Fatalf("stores=%v: no 2PC decision over 12 runs", stores)
		}
	}
}
