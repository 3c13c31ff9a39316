package scheduler_test

import (
	"errors"
	"maps"
	"path/filepath"
	"testing"

	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/spec"
	"transproc/internal/store"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// countingLog counts full reads of the log it wraps.
type countingLog struct {
	wal.Log
	reads int
}

func (c *countingLog) Records() ([]wal.Record, error) {
	c.reads++
	return c.Log.Records()
}

// attachFileStores opens one heap file per subsystem under dir and
// attaches it, mirroring what a durable deployment does at boot.
func attachFileStores(t *testing.T, fed *subsystem.Federation, dir string) {
	t.Helper()
	for _, sub := range fed.Subsystems() {
		st, err := store.OpenFile(filepath.Join(dir, sub.Name()+".pages"), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.AttachStore(st); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverDurableAfterCrash crashes a durable run at a sweep of
// points and recovers page state and scheduler state together: the
// reopened stores may be stale (dirty pages dropped at the crash),
// and RecoverDurable must reconcile them against the log before the
// composed recovery runs. After recovery: no in-doubt transactions,
// no negative data items (a compensation never applies without its
// base), and the stores flush and verify cleanly. Recovery is the one
// reader of the log (before phase 1 and after it), and its verdict on
// each incarnation is final: a second recovery over the log it left
// reports the same fates, also for the processes it completed forward,
// whose terminate records read as aborted.
func TestRecoverDurableAfterCrash(t *testing.T) {
	forward := 0
	for k := 2; k <= 22; k += 2 {
		dir := t.TempDir()
		p := workload.DefaultProfile(int64(300 + k))
		p.Processes = 6
		p.ConflictProb = 0.5
		p.PermFailureProb = 0.2
		w := workload.MustGenerate(p)
		attachFileStores(t, w.Fed, dir)
		eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED, CrashAfterEvents: k})
		if err != nil {
			t.Fatal(err)
		}
		if _, err = eng.RunJobs(w.Jobs); err == nil {
			continue // run finished before the crash point
		} else if !errors.Is(err, scheduler.ErrCrashed) {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Crash: dirty pool pages are dropped; only flushed pages survive.
		for _, sub := range w.Fed.Subsystems() {
			sub.DurableStore().Abandon()
		}

		// Restart: a fresh federation (same generator) reopens the files.
		w2 := workload.MustGenerate(p)
		attachFileStores(t, w2.Fed, dir)
		defs := make([]*process.Process, 0, len(w2.Jobs))
		for _, j := range w2.Jobs {
			defs = append(defs, j.Proc)
		}
		log := &countingLog{Log: eng.Log()}
		rep, err := scheduler.RecoverDurable(w2.Fed, log, defs, nil)
		if err != nil {
			t.Fatalf("k=%d: RecoverDurable: %v", k, err)
		}
		if rep.RecoveryReport == nil {
			t.Fatalf("k=%d: missing composed recovery report", k)
		}
		if log.reads > 2 {
			t.Fatalf("k=%d: durable recovery read the log %d times, want at most 2", k, log.reads)
		}
		for _, id := range rep.ForwardRecovered {
			forward++
			if !rep.Fates[id] {
				t.Fatalf("k=%d: %s completed forward, fate says its work does not stand", k, id)
			}
		}
		for _, id := range rep.BackwardRecovered {
			if rep.Fates[id] {
				t.Fatalf("k=%d: %s compensated backward, fate says its work stands", k, id)
			}
		}
		if n := len(w2.Fed.InDoubt()); n != 0 {
			t.Fatalf("k=%d: %d in-doubt transactions after durable recovery", k, n)
		}
		for item, v := range w2.Fed.Snapshot() {
			if v < 0 {
				t.Fatalf("k=%d: item %s negative after durable recovery (%d)", k, item, v)
			}
		}
		for _, sub := range w2.Fed.Subsystems() {
			if _, err := sub.FlushStore(); err != nil {
				t.Fatalf("k=%d: flush %s: %v", k, sub.Name(), err)
			}
			st := sub.DurableStore()
			if _, err := st.VerifyDisk(); err != nil {
				t.Fatalf("k=%d: %s pages fail verification: %v", k, sub.Name(), err)
			}
			if err := st.CheckConsistency(); err != nil {
				t.Fatalf("k=%d: %s inconsistent: %v", k, sub.Name(), err)
			}
		}
		log.reads = 0
		again, err := scheduler.Recover(w2.Fed, log, defs)
		if err != nil {
			t.Fatalf("k=%d: second recovery: %v", k, err)
		}
		if log.reads > 2 || !maps.Equal(again.Fates, rep.Fates) {
			t.Fatalf("k=%d: second recovery: %d reads, fates %v; first said %v", k, log.reads, again.Fates, rep.Fates)
		}
	}
	if forward == 0 {
		t.Fatal("no crash point left a process to complete forward")
	}
}

// TestRecoverDurableWithoutStores is the delegation path: with no store
// attached anywhere, RecoverDurable is exactly the composed recovery.
func TestRecoverDurableWithoutStores(t *testing.T) {
	fed := paper.Federation(41)
	eng, _ := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED, CrashAfterEvents: 5})
	procs := []*process.Process{paper.P1(), paper.P2()}
	if _, err := eng.Run(procs); !errors.Is(err, scheduler.ErrCrashed) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	rep, err := scheduler.RecoverDurable(fed, eng.Log(), procs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RestoredInDoubt != 0 || rep.RedoItems != 0 || rep.UndoItems != 0 || rep.FlushedPages != 0 {
		t.Fatalf("page-level phase must be a no-op without stores: %+v", rep)
	}
	if rep.RecoveryReport == nil {
		t.Fatal("composed recovery must still run")
	}
}

// TestRecoverDurableCleanRun recovers a durable log with nothing to do:
// every process terminated before the "crash". The page image must
// already match the log and survive reconciliation untouched.
func TestRecoverDurableCleanRun(t *testing.T) {
	dir := t.TempDir()
	p := workload.DefaultProfile(55)
	p.Processes = 4
	p.ConflictProb = 0.3
	w := workload.MustGenerate(p)
	attachFileStores(t, w.Fed, dir)
	eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunJobs(w.Jobs); err != nil {
		t.Fatal(err)
	}
	for _, sub := range w.Fed.Subsystems() {
		if _, err := sub.FlushStore(); err != nil {
			t.Fatal(err)
		}
		sub.DurableStore().Abandon()
	}
	w2 := workload.MustGenerate(p)
	attachFileStores(t, w2.Fed, dir)
	defs := make([]*process.Process, 0, len(w2.Jobs))
	for _, j := range w2.Jobs {
		defs = append(defs, j.Proc)
	}
	rep, err := scheduler.RecoverDurable(w2.Fed, eng.Log(), defs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoItems != 0 || rep.UndoItems != 0 {
		t.Fatalf("flushed clean image must not need redo/undo: %+v", rep)
	}
	if got, want := w2.Fed.Snapshot(), w.Fed.Snapshot(); len(got) != len(want) {
		t.Fatalf("snapshot size diverged: %d vs %d", len(got), len(want))
	} else {
		for item, v := range want {
			if got[item] != v {
				t.Fatalf("item %s: recovered %d, want %d", item, got[item], v)
			}
		}
	}
}

// TestOriginStripsRestartSuffixes pins the subsystem-identity rule:
// every restart incarnation maps back to the admitted origin id.
func TestOriginStripsRestartSuffixes(t *testing.T) {
	for in, want := range map[process.ID]process.ID{
		"P1":          "P1",
		"P1+r2":       "P1",
		"P1+r2+r1":    "P1",
		"t0/W3+r1":    "t0/W3",
		"t0/W3+r1+r4": "t0/W3",
	} {
		if got := in.Origin(); got != want {
			t.Fatalf("Origin(%q) = %q, want %q", in, got, want)
		}
	}
}

// cascadeWorld builds the deterministic scenario in which a scheduler
// that took dependencies on backward-recoverable processes would have to
// cascade: P1 writes x compensatably and then fails its pivot; P2 wants
// to read x after P1 while P1 is still running its pivot.
func cascadeWorld(t *testing.T) (*subsystem.Federation, []scheduler.Job) {
	t.Helper()
	f := &spec.File{
		Subsystems: []spec.SubsystemSpec{
			{Name: "s1", Seed: 1, Services: []spec.ServiceSpec{
				{Name: "writeX", Kind: "compensatable", Writes: []string{"x"}, Cost: 1},
				{Name: "readX", Kind: "compensatable", Writes: []string{"x"}, Cost: 1},
			}},
			{Name: "s2", Seed: 2, Services: []spec.ServiceSpec{
				{Name: "gate", Kind: "pivot", Writes: []string{"p"}, Cost: 6},
			}},
			{Name: "s3", Seed: 3, Services: []spec.ServiceSpec{
				{Name: "slow", Kind: "compensatable", Writes: []string{"z"}, Cost: 30},
			}},
		},
		Processes: []spec.ProcessSpec{
			{ID: "P1", Activities: []spec.ActivitySpec{
				{Local: 1, Service: "writeX"},
				{Local: 2, Service: "gate"},
			}, Seq: [][2]int{{1, 2}}},
			// P2 arrives once writeX has executed but while P1 is still
			// running its pivot.
			{ID: "P2", Arrival: 1, Activities: []spec.ActivitySpec{
				{Local: 1, Service: "readX"},
				{Local: 2, Service: "slow"},
			}, Seq: [][2]int{{1, 2}}},
		},
	}
	fed, jobs, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	return fed, jobs
}

// TestLemma1DefersFigure7Dependency pins how PRED handles the
// Figure-7 geometry: P2's readX conflicts with P1's executed writeX while
// P1 can still compensate it, so Lemma 1 holds readX back. P2 waits out
// P1's abort instead of risking a cascade: P1 aborts alone, P2 commits
// untouched and is never restarted.
func TestLemma1DefersFigure7Dependency(t *testing.T) {
	fed, jobs := cascadeWorld(t)
	s2, _ := fed.Subsystem("s2")
	s2.ForceFail("gate", 1)
	eng, err := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Restarts != 0 {
		t.Fatalf("Lemma 1 should have deferred readX, metrics = %+v", res.Metrics)
	}
	if res.Metrics.PolicyWaits == 0 {
		t.Fatal("readX must have been policy-deferred at least once")
	}
	if !res.Outcomes["P1"].Aborted {
		t.Fatal("P1 must abort on its pivot failure")
	}
	if !res.Outcomes["P2"].Committed {
		t.Fatal("P2 must commit after waiting out P1's abort")
	}
	// P1's writeX compensated, P2's readX survived: x = +1 exactly.
	s1, _ := fed.Subsystem("s1")
	if v := s1.Get("x"); v != 1 {
		t.Fatalf("x = %d, want exactly P2's surviving write", v)
	}
	ok, at, _, err := res.Schedule.PRED()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("schedule not PRED (prefix %d):\n%s", at, res.Schedule)
	}
}

// TestEngineTable pins the conflict-table accessor: writeX and readX
// share item x and must conflict; slow touches only z and must not.
func TestEngineTable(t *testing.T) {
	fed, _ := cascadeWorld(t)
	eng, err := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED})
	if err != nil {
		t.Fatal(err)
	}
	table := eng.Table()
	if table == nil {
		t.Fatal("nil conflict table")
	}
	if !table.Conflicts("writeX", "readX") {
		t.Fatal("writeX and readX share x and must conflict")
	}
	if table.Conflicts("writeX", "slow") {
		t.Fatal("writeX and slow are disjoint")
	}
}
