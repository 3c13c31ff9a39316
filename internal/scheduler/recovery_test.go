package scheduler

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// historyRecords clones a clean run of the paper's P1, P2 and P3 under
// renamed process ids and disjoint transaction ids until the result
// holds at least procs terminated processes.
func historyRecords(t testing.TB, procs int) []wal.Record {
	t.Helper()
	tlog := wal.NewMemLog()
	eng, err := New(paper.Federation(1), Config{Mode: PRED, Log: tlog})
	if err != nil {
		t.Fatal(err)
	}
	defs := []*process.Process{paper.P1(), paper.P2(), paper.P3()}
	if _, err := eng.Run(defs); err != nil {
		t.Fatal(err)
	}
	tmpl, err := tlog.Records()
	if err != nil {
		t.Fatal(err)
	}
	var out []wal.Record
	for k := 0; k*len(defs) < procs; k++ {
		for _, r := range tmpl {
			r.Proc = fmt.Sprintf("%s~%d", r.Proc, k)
			if r.Tx != 0 {
				r.Tx += int64(k+1) * 1_000_000
			}
			out = append(out, r)
		}
	}
	return out
}

// crashedTail writes, after the history already in log, the records of
// three interleaved processes the crash interrupted, and leaves in fed
// the subsystem state that goes with them:
//
//   - P1 committed a11 and prepared its pivot a12; the 2PC decision is
//     logged, the commit never reached subB.
//   - P3 committed a31 and its pivot a32: the log has the outcome, the
//     crash hit before subD applied it (a redo-commit). a33 was
//     dispatched and prepared at subD, its outcome never logged (an
//     orphaned in-doubt transaction).
//   - P2 committed a21 and a22 and prepared its pivot a23 without a
//     decision: presumed abort resets it.
func crashedTail(t testing.TB, fed *subsystem.Federation, log wal.Log) {
	t.Helper()
	invoke := func(proc string, local int, service string, mode subsystem.Mode, outcome string) {
		invokeLogged(t, fed, log, proc, local, service, mode, outcome)
	}
	appendAll(t, log, wal.Record{Type: wal.RecStart, Proc: "P1"}, wal.Record{Type: wal.RecStart, Proc: "P3"})
	invoke("P1", 1, paper.SvcA11, subsystem.AutoCommit, "committed")
	invoke("P3", 1, paper.SvcA31, subsystem.AutoCommit, "committed")
	appendAll(t, log, wal.Record{Type: wal.RecStart, Proc: "P2"})
	invoke("P2", 1, paper.SvcA21, subsystem.AutoCommit, "committed")
	invoke("P1", 2, paper.SvcA12, subsystem.Prepare, "prepared")
	invoke("P3", 2, paper.SvcA32, subsystem.Prepare, "committed")
	invoke("P2", 2, paper.SvcA22, subsystem.AutoCommit, "committed")
	appendAll(t, log, wal.Record{Type: wal.RecDecision, Proc: "P1"})
	invoke("P3", 3, paper.SvcA33, subsystem.Prepare, "")
	invoke("P2", 3, paper.SvcA23, subsystem.Prepare, "prepared")
}

// invokeLogged invokes service for proc at its subsystem and logs the
// dispatch and, unless outcome is empty, the outcome.
func invokeLogged(t testing.TB, fed *subsystem.Federation, log wal.Log, proc string, local int, service string, mode subsystem.Mode, outcome string) {
	t.Helper()
	sub, ok := fed.Owner(service)
	if !ok {
		t.Fatalf("no subsystem offers %s", service)
	}
	res, err := sub.Invoke(proc, service, mode)
	if err != nil {
		t.Fatalf("%s %s: %v", proc, service, err)
	}
	appendAll(t, log, wal.Record{Type: wal.RecDispatch, Proc: proc, Local: local, Service: service, Subsystem: sub.Name()})
	if outcome != "" {
		appendAll(t, log, wal.Record{Type: wal.RecOutcome, Proc: proc, Local: local, Service: service,
			Subsystem: sub.Name(), Tx: int64(res.Tx), Outcome: outcome})
	}
}

func appendAll(t testing.TB, log wal.Log, recs ...wal.Record) {
	t.Helper()
	for _, r := range recs {
		if _, err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryRebuildPinned pins what restart recovery rebuilds from a
// crashed tail behind more than a thousand terminated processes of
// history: each interrupted instance's statuses and arrival, and the
// report of the group abort that completes them.
func TestRecoveryRebuildPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	flog, err := wal.OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	history := historyRecords(t, 1000)
	appendAll(t, flog, history...)
	fed := paper.Federation(7)
	crashedTail(t, fed, flog)
	if err := flog.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := wal.OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	r, err := restart(fed, log, []*process.Process{paper.P1(), paper.P2(), paper.P3()}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range r.e.drv.All() {
		got = append(got, fmt.Sprintf("%s arrival=%d %v %v", p.ID, p.Arrival, p.Inst.Mode(), p.Inst.Snapshot()))
	}
	at := len(history) // the tail's first record
	want := []string{
		fmt.Sprintf("P1 arrival=%d F-REC map[1:committed 2:committed 3:pending 4:pending 5:pending 6:pending]", at),
		fmt.Sprintf("P2 arrival=%d B-REC map[1:committed 2:committed 3:pending 4:pending 5:pending]", at+6),
		fmt.Sprintf("P3 arrival=%d F-REC map[1:committed 2:committed 3:pending]", at+1),
	}
	if !slices.Equal(got, want) {
		t.Errorf("rebuilt instances:\n got %q\nwant %q", got, want)
	}

	rep, err := r.groupAbort()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.AlreadyTerminated); n != 1002 {
		t.Errorf("%d processes already terminated, want the 1002 of the history", n)
	}
	if n := len(rep.Fates); n != 1005 {
		t.Errorf("%d fates, want one for each of the 1005 processes in the log", n)
	}
	for id, fate := range rep.Fates {
		if live := id == "P1" || id == "P2" || id == "P3"; !live && !fate {
			t.Errorf("history process %s: its committed work must stand", id)
		}
	}
	got = []string{fmt.Sprint(rep.Fates["P1"], rep.Fates["P2"], rep.Fates["P3"]),
		fmt.Sprint(rep.ForwardRecovered, rep.BackwardRecovered),
		fmt.Sprint(rep.Resolved2PCCommitted, rep.Resolved2PCAborted, rep.Compensations, rep.ForwardInvocations)}
	// Phase 1 commits P1's decided a12 and rolls back P2's undecided a23;
	// phase 1b redoes P3's a32 and rolls back its orphaned a33. The group
	// abort compensates a22 and a21 and runs a15, a16 and a33 forward.
	want = []string{"true false true", "[P1 P3] [P2]", "2 2 2 3"}
	if !slices.Equal(got, want) {
		t.Errorf("report:\n got %q\nwant %q", got, want)
	}
	if doubt := fed.InDoubt(); len(doubt) != 0 {
		t.Errorf("in doubt after recovery: %v", doubt)
	}
}

// TestRecoveryAllocatesPerProcess pins what restart recovery allocates
// for the history behind a crash: a constant per process of terminated
// history, not a constant per record. Each size recovers cloned P1/P2/P3
// history (14 records a process) and one interrupted P2 that prepared
// a23 without a decision, so that recovery runs backward only (forward
// recovery seeds the whole history into the policy state, ROADMAP item
// 21). Measured: about 1 allocation a process plus 550; a full decode of
// the log costs about 3.5 a record, 50 a process.
func TestRecoveryAllocatesPerProcess(t *testing.T) {
	const perProc, fixed = 1.5, 1000
	for _, procs := range []int{300, 1200} {
		path := filepath.Join(t.TempDir(), "wal.log")
		flog, err := wal.OpenFile(path, false)
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, flog, historyRecords(t, procs)...)
		fed := paper.Federation(7)
		appendAll(t, flog, wal.Record{Type: wal.RecStart, Proc: "P2"})
		invokeLogged(t, fed, flog, "P2", 1, paper.SvcA21, subsystem.AutoCommit, "committed")
		invokeLogged(t, fed, flog, "P2", 2, paper.SvcA22, subsystem.AutoCommit, "committed")
		invokeLogged(t, fed, flog, "P2", 3, paper.SvcA23, subsystem.Prepare, "prepared")
		if err := flog.Close(); err != nil {
			t.Fatal(err)
		}

		log, err := wal.OpenFile(path, false)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Recover(fed, log, []*process.Process{paper.P1(), paper.P2(), paper.P3()})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rep.BackwardRecovered, []process.ID{"P2"}) || len(rep.ForwardRecovered) != 0 {
			t.Fatalf("recovered backward %v, forward %v; want P2 backward only", rep.BackwardRecovered, rep.ForwardRecovered)
		}
		if allocs, bound := after.Mallocs-before.Mallocs, uint64(perProc*float64(procs)+fixed); allocs > bound {
			t.Errorf("%d processes of history: recovery allocated %d times, over %d (%.1f a process + %d)",
				procs, allocs, bound, perProc, fixed)
		}
	}
}
