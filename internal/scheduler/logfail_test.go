package scheduler_test

import (
	"errors"
	"testing"

	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

var errDiskFull = errors.New("disk full")

// failNth is a log whose n-th append fails; the others reach the log.
type failNth struct {
	wal.Log
	n, count int
}

func (l *failNth) Append(rec wal.Record) (int64, error) {
	l.count++
	if l.count == l.n {
		return 0, errDiskFull
	}
	return l.Log.Append(rec)
}

func logFailWorld() (*workload.Workload, []*process.Process) {
	p := workload.DefaultProfile(77)
	p.Processes = 5
	p.ConflictProb = 0.5
	p.PermFailureProb = 0.25
	w := workload.MustGenerate(p)
	defs := make([]*process.Process, len(w.Jobs))
	for i, j := range w.Jobs {
		defs[i] = j.Proc
	}
	return w, defs
}

// checkNoUnloggedCommit fails when a subsystem applied a transaction
// that no log record names: recovery could never learn it happened.
func checkNoUnloggedCommit(t *testing.T, n int, fed *subsystem.Federation, log wal.Log) {
	t.Helper()
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		sub string
		tx  int64
	}
	logged := make(map[key]bool)
	for _, r := range recs {
		logged[key{r.Subsystem, r.Tx}] = true
	}
	for _, sub := range fed.Subsystems() {
		for _, m := range sub.Journal() {
			if !logged[key{sub.Name(), int64(m.Tx)}] {
				t.Fatalf("append %d failed: %s committed tx %d (%s of %s) with no record in the log",
					n, sub.Name(), m.Tx, m.Service, m.Proc)
			}
		}
	}
}

// TestEngineForceLogFailureEndsRun fails each append of a small run in
// turn: the run ends with the log's error and nothing was committed
// unlogged — the engine used to throw Append's answer away.
func TestEngineForceLogFailureEndsRun(t *testing.T) {
	w, _ := logFailWorld()
	clean := &failNth{Log: wal.NewMemLog()}
	eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED, Log: clean})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunJobs(w.Jobs); err != nil {
		t.Fatal(err)
	}
	if clean.count < 20 {
		t.Fatalf("run too small to mean anything: %d appends", clean.count)
	}
	for n := 1; n <= clean.count; n++ {
		w, _ := logFailWorld()
		log := &failNth{Log: wal.NewMemLog(), n: n}
		eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED, Log: log})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunJobs(w.Jobs)
		if !errors.Is(err, errDiskFull) || res != nil {
			t.Fatalf("append %d failed: RunJobs = %v, %v; want the log's error", n, res, err)
		}
		checkNoUnloggedCommit(t, n, w.Fed, log.Log)
	}
}

// TestRecoverForceLogFailure fails each append of a recovery in turn:
// Recover returns the error before it commits the step the record
// announces, so a second Recover over the same log finishes the job
// without repeating a step.
func TestRecoverForceLogFailure(t *testing.T) {
	crashed := func() (*workload.Workload, []*process.Process, wal.Log) {
		w, defs := logFailWorld()
		eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED, CrashAfterEvents: 9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunJobs(w.Jobs); !errors.Is(err, scheduler.ErrCrashed) {
			t.Fatalf("run did not crash: %v", err)
		}
		return w, defs, eng.Log()
	}
	w, defs, log := crashed()
	clean := &failNth{Log: log}
	rep, err := scheduler.Recover(w.Fed, clean, defs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compensations+rep.ForwardInvocations == 0 {
		t.Fatal("recovery executed no step: the crash point tests nothing")
	}
	for n := 1; n <= clean.count; n++ {
		w, defs, log := crashed()
		if _, err := scheduler.Recover(w.Fed, &failNth{Log: log, n: n}, defs); !errors.Is(err, errDiskFull) {
			t.Fatalf("append %d failed: Recover = %v; want the log's error", n, err)
		}
		checkNoUnloggedCommit(t, n, w.Fed, log)
		if _, err := scheduler.Recover(w.Fed, log, defs); err != nil {
			t.Fatalf("append %d failed: second Recover: %v", n, err)
		}
		if left := len(w.Fed.InDoubt()); left != 0 {
			t.Fatalf("append %d failed: %d subsystems still hold in-doubt transactions", n, left)
		}
		for item, v := range w.Fed.Snapshot() {
			if v < 0 {
				t.Fatalf("append %d failed: %s = %d after the second Recover (a step ran twice)", n, item, v)
			}
		}
	}
}
