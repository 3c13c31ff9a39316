package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// termProc appends the records of a process that commits svc once and
// terminates regularly.
func termProc(t *testing.T, l Log, proc, svc string) {
	t.Helper()
	for _, r := range []Record{
		{Type: RecStart, Proc: proc},
		{Type: RecDispatch, Proc: proc, Local: 0, Service: svc},
		{Type: RecOutcome, Proc: proc, Local: 0, Service: svc, Outcome: "committed"},
		{Type: RecTerminate, Proc: proc, Committed: true},
	} {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

// liveProc appends the records of a process that committed svc but has
// not terminated.
func liveProc(t *testing.T, l Log, proc, svc string) {
	t.Helper()
	for _, r := range []Record{
		{Type: RecStart, Proc: proc},
		{Type: RecDispatch, Proc: proc, Local: 0, Service: svc},
		{Type: RecOutcome, Proc: proc, Local: 0, Service: svc, Outcome: "committed"},
	} {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

func TestCheckpointBuildAndExpand(t *testing.T) {
	l := NewMemLog()
	termProc(t, l, "T1", "a")
	liveProc(t, l, "L1", "b")

	cp, err := TakeCheckpoint(l, nil, nil, nil)
	if err != nil {
		t.Fatalf("TakeCheckpoint: %v", err)
	}
	if cp.Horizon != 7 {
		t.Fatalf("horizon = %d, want 7", cp.Horizon)
	}
	if len(cp.Live) != 3 || cp.Procs != 1 {
		t.Fatalf("live = %d records / %d procs, want 3 / 1", len(cp.Live), cp.Procs)
	}
	if cp.AppliedSvc["a"] != 1 || len(cp.AppliedSvc) != 1 {
		t.Fatalf("applied = %v, want map[a:1]", cp.AppliedSvc)
	}
	if cp.Dropped != 4 {
		t.Fatalf("dropped = %d, want 4", cp.Dropped)
	}

	// A post-checkpoint tail record must appear in the expanded view;
	// T1's records must not.
	if _, err := l.Append(Record{Type: RecTerminate, Proc: "L1", Committed: true}); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	exp := Expand(recs)
	if exp.Checkpoint == nil || exp.Fallback {
		t.Fatalf("expansion did not adopt the checkpoint: %+v", exp)
	}
	if len(exp.Records) != 4 {
		t.Fatalf("expanded = %d records, want 4 (3 live + 1 tail)", len(exp.Records))
	}
	for _, r := range exp.Records {
		if r.Proc == "T1" {
			t.Fatalf("summarized process leaked into the expansion: %+v", r)
		}
	}
	img, err := Analyze(exp.Records)
	if err != nil {
		t.Fatalf("analyzing expansion: %v", err)
	}
	if img["L1"] == nil || !img["L1"].Terminated {
		t.Fatalf("L1 image wrong after expansion: %+v", img["L1"])
	}
}

// TestCheckpointFolding takes a second checkpoint over a log that
// already has one and checks the summary accumulates instead of losing
// the first checkpoint's counts.
func TestCheckpointFolding(t *testing.T) {
	l := NewMemLog()
	termProc(t, l, "T1", "a")
	if _, err := TakeCheckpoint(l, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	termProc(t, l, "T2", "a")
	termProc(t, l, "T3", "b")
	cp2, err := TakeCheckpoint(l, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.AppliedSvc["a"] != 2 || cp2.AppliedSvc["b"] != 1 {
		t.Fatalf("folded applied = %v, want map[a:2 b:1]", cp2.AppliedSvc)
	}
	if cp2.Dropped != 12 {
		t.Fatalf("cumulative dropped = %d, want 12", cp2.Dropped)
	}
	recs, _ := l.Records()
	exp := Expand(recs)
	if len(exp.Records) != 0 {
		t.Fatalf("everything terminated, expanded = %d records, want 0", len(exp.Records))
	}
}

// TestCheckpointEdgesAndShadow checks the serialization summary: a
// terminated process conflicting with two live ones must leave both the
// transitive live×live edge and its committed service in their shadows.
func TestCheckpointEdgesAndShadow(t *testing.T) {
	l := NewMemLog()
	liveProc(t, l, "P", "x")
	termProc(t, l, "M", "x") // conflicts with both P (before) and Q (after)
	liveProc(t, l, "Q", "x")

	conflicts := func(a, b string) bool { return a == "x" && b == "x" }
	cp, err := TakeCheckpoint(l, conflicts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantEdge := [2]string{"P", "Q"}
	found := false
	for _, e := range cp.Edges {
		if e == wantEdge {
			found = true
		}
	}
	if !found {
		t.Fatalf("edges = %v, want transitive P→Q through summarized M", cp.Edges)
	}
	if !reflect.DeepEqual(cp.Shadow["P"], []string{"x"}) {
		t.Fatalf("shadow[P] = %v, want [x]", cp.Shadow["P"])
	}
}

// TestFileCompactPersists compacts a file log and checks the rewritten
// file holds exactly checkpoint + tail, survives reopening, and that
// appends after compaction continue the LSN sequence.
func TestFileCompactPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	termProc(t, l, "T1", "a")
	liveProc(t, l, "L1", "b")
	if _, err := TakeCheckpoint(l, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Type: RecTerminate, Proc: "L1", Committed: true}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(nil); err != nil {
		t.Fatalf("compact: %v", err)
	}
	// Post-compaction append must keep monotone LSNs.
	lsn, err := l.Append(Record{Type: RecStart, Proc: "N1"})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 10 {
		t.Fatalf("post-compaction LSN = %d, want 10 (counter preserved)", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path, false)
	if err != nil {
		t.Fatalf("reopening compacted log: %v", err)
	}
	defer re.Close()
	recs, err := re.Records()
	if err != nil {
		t.Fatal(err)
	}
	// [checkpoint, L1 terminate, N1 start] — T1's history truncated.
	if len(recs) != 3 || recs[0].Type != RecCheckpoint {
		t.Fatalf("compacted file holds %d records (first %v), want 3 starting with the checkpoint", len(recs), recs[0].Type)
	}
	exp := Expand(recs)
	if len(exp.Records) != 5 {
		t.Fatalf("expanded = %d records, want 5 (3 live + tail of 2)", len(exp.Records))
	}
	img, err := Analyze(exp.Records)
	if err != nil {
		t.Fatal(err)
	}
	if img["L1"] == nil || !img["L1"].Terminated || img["N1"] == nil {
		t.Fatalf("images wrong after compaction + reopen: %+v", img)
	}
	if tmp := path + ".compact"; fileExists(tmp) {
		t.Fatalf("temp file %s left behind", tmp)
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// TestExpandCorruptCheckpointFallsBack checks that an invalid
// checkpoint payload never poisons the replay: Expand flags the
// fallback and returns the full history.
func TestExpandCorruptCheckpointFallsBack(t *testing.T) {
	l := NewMemLog()
	termProc(t, l, "T1", "a")
	liveProc(t, l, "L1", "b")
	// Structurally invalid: a live record past the horizon.
	bad := &Checkpoint{Horizon: 2, Live: []Record{{LSN: 99, Type: RecStart, Proc: "X"}}}
	if bad.valid() {
		t.Fatal("fixture checkpoint unexpectedly valid")
	}
	if _, err := l.Append(Record{Type: RecCheckpoint, Checkpoint: bad}); err != nil {
		t.Fatal(err)
	}
	recs, _ := l.Records()
	exp := Expand(recs)
	if !exp.Fallback || exp.Checkpoint != nil {
		t.Fatalf("corrupt checkpoint not rejected: %+v", exp)
	}
	if len(exp.Records) != 7 {
		t.Fatalf("fallback expanded = %d records, want all 7 non-checkpoint records", len(exp.Records))
	}

	// An earlier valid checkpoint behind the corrupt one is still used.
	l2 := NewMemLog()
	termProc(t, l2, "T1", "a")
	if _, err := TakeCheckpoint(l2, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	liveProc(t, l2, "L1", "b")
	if _, err := l2.Append(Record{Type: RecCheckpoint, Checkpoint: bad}); err != nil {
		t.Fatal(err)
	}
	recs2, _ := l2.Records()
	exp2 := Expand(recs2)
	if !exp2.Fallback || exp2.Checkpoint == nil {
		t.Fatalf("fallback to earlier checkpoint failed: %+v", exp2)
	}
	if len(exp2.Records) != 3 {
		t.Fatalf("expanded = %d records, want L1's 3 tail records", len(exp2.Records))
	}
}

// TestMemCompact mirrors the file test on the in-memory log.
func TestMemCompact(t *testing.T) {
	l := NewMemLog()
	termProc(t, l, "T1", "a")
	liveProc(t, l, "L1", "b")
	if _, err := TakeCheckpoint(l, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(nil); err != nil {
		t.Fatal(err)
	}
	recs, _ := l.Records()
	if len(recs) != 1 || recs[0].Type != RecCheckpoint {
		t.Fatalf("compacted memlog holds %d records, want just the checkpoint", len(recs))
	}
	// Compacting a log with no checkpoint is a no-op.
	l2 := NewMemLog()
	termProc(t, l2, "T1", "a")
	if err := l2.Compact(nil); err != nil {
		t.Fatal(err)
	}
	recs2, _ := l2.Records()
	if len(recs2) != 4 {
		t.Fatalf("no-checkpoint compaction changed the log: %d records", len(recs2))
	}
}

// TestCheckpointRecordRoundTrips checks that a checkpoint with every
// field set survives the file: append, reopen, read.
func TestCheckpointRecordRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	cp := fullCheckpoint()
	if _, err := l.Append(Record{Type: RecCheckpoint, Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs, err := re.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !reflect.DeepEqual(recs[0].Checkpoint, cp) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", recs, cp)
	}
}

// TestMemCompactAcrossChunks checkpoints and compacts an in-memory log
// that spans several chunks, then keeps appending: the compacted log is
// the checkpoint plus the post-horizon tail, and later records follow it
// with rising LSNs.
func TestMemCompactAcrossChunks(t *testing.T) {
	l := NewMemLog()
	for i := 0; i < 200; i++ { // 800 records: more than three chunks
		termProc(t, l, fmt.Sprintf("T%d", i), "a")
	}
	liveProc(t, l, "L1", "b")
	cp, err := TakeCheckpoint(l, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	termProc(t, l, "T-late", "c")
	if err := l.Compact(nil); err != nil {
		t.Fatal(err)
	}
	recs, _ := l.Records()
	if len(recs) != 5 || recs[0].Type != RecCheckpoint || recs[0].LSN != cp.Horizon+1 {
		t.Fatalf("compacted log: %d records, first %v", len(recs), recs[0].Type)
	}
	for i := 0; i < 100; i++ {
		liveProc(t, l, fmt.Sprintf("N%d", i), "d")
	}
	recs, _ = l.Records()
	if len(recs) != 5+300 {
		t.Fatalf("%d records after compaction and appends, want %d", len(recs), 5+300)
	}
	for i := 2; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatalf("record %d: lsn %d after %d", i, recs[i].LSN, recs[i-1].LSN)
		}
	}
	exp := Expand(recs)
	if exp.Checkpoint == nil || exp.Checkpoint.Horizon != cp.Horizon || len(exp.Records) != 3+4+300 {
		t.Fatalf("expansion: checkpoint %v, %d records; want horizon %d, L1's 3 + 304 tail records", exp.Checkpoint, len(exp.Records), cp.Horizon)
	}
}

// TestExpandSharesCheckpointFreeLogs pins the contract of
// Expansion.Records: a log without a checkpoint record is its own replay
// view, shared and not copied; a log whose only checkpoint is invalid
// still loses that record and falls back; a valid checkpoint's view is
// unchanged.
func TestExpandSharesCheckpointFreeLogs(t *testing.T) {
	plain := []Record{
		{LSN: 1, Type: RecStart, Proc: "P1"},
		{LSN: 2, Type: RecStart, Proc: "P2"},
		{LSN: 3, Type: RecTerminate, Proc: "P2", Committed: true},
		{LSN: 4, Type: RecOutcome, Proc: "P1", Local: 1, Service: "s", Outcome: "committed"},
	}
	t.Run("no checkpoint", func(t *testing.T) {
		var exp Expansion
		if allocs := testing.AllocsPerRun(10, func() { exp = Expand(plain) }); allocs != 0 {
			t.Errorf("Expand allocated %.0f times", allocs)
		}
		if &exp.Records[0] != &plain[0] || len(exp.Records) != len(plain) {
			t.Error("the view of a checkpoint-free log is not the log itself")
		}
		if exp.Checkpoint != nil || exp.Fallback || exp.Skipped != 0 {
			t.Errorf("expansion = %+v", exp)
		}
	})
	t.Run("invalid checkpoint only", func(t *testing.T) {
		recs := append(slices.Clone(plain[:3]), Record{LSN: 4, Type: RecCheckpoint, Checkpoint: &Checkpoint{Horizon: -1}}, plain[3])
		exp := Expand(recs)
		if !exp.Fallback || exp.Checkpoint != nil {
			t.Errorf("Fallback %v, Checkpoint %v; want a fallback to full replay", exp.Fallback, exp.Checkpoint)
		}
		if !reflect.DeepEqual(exp.Records, plain) {
			t.Errorf("records = %+v, want the log without its checkpoint record", exp.Records)
		}
	})
	t.Run("valid checkpoint", func(t *testing.T) {
		cp := &Checkpoint{Horizon: 3, Live: plain[:1], Procs: 1, Dropped: 2}
		recs := append(slices.Clone(plain[:3]), Record{LSN: 5, Type: RecCheckpoint, Checkpoint: cp}, plain[3])
		exp := Expand(recs)
		if exp.Checkpoint != cp || exp.Fallback || exp.Skipped != 2 {
			t.Errorf("expansion = %+v", exp)
		}
		if want := []Record{plain[0], plain[3]}; !reflect.DeepEqual(exp.Records, want) {
			t.Errorf("records = %+v, want %+v", exp.Records, want)
		}
	})
}
