package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// historyRecords is a log of procs processes with a restart's shape:
// every process but the last few terminated, each one's records in a
// run of its own, and the 2PC of every fourth one prepared, decided and
// resolved.
func historyRecords(procs int) []Record {
	var recs []Record
	add := func(r Record) {
		r.LSN = int64(len(recs) + 1)
		recs = append(recs, r)
	}
	for i := range procs {
		proc := fmt.Sprintf("P%d~%d", i%12+1, i/12)
		add(Record{Type: RecStart, Proc: proc})
		for local := 1; local <= 8; local++ {
			tx := int64(i*16 + local)
			svc := fmt.Sprintf("svc%d", local)
			add(Record{Type: RecDispatch, Proc: proc, Local: local, Service: svc, Subsystem: "s1"})
			if i%4 == 0 && local == 8 {
				add(Record{Type: RecOutcome, Proc: proc, Local: local, Service: svc, Subsystem: "s1", Tx: tx, Outcome: "prepared"})
				add(Record{Type: RecDecision, Proc: proc})
				add(Record{Type: RecResolved, Proc: proc, Local: local, Service: svc, Subsystem: "s1", Tx: tx, Commit: true})
				continue
			}
			add(Record{Type: RecOutcome, Proc: proc, Local: local, Service: svc, Subsystem: "s1", Tx: tx, Outcome: "committed"})
		}
		if i < procs-3 {
			add(Record{Type: RecTerminate, Proc: proc, Committed: true})
		}
	}
	return recs
}

// memLogOf is a MemLog holding recs with their own LSNs.
func memLogOf(recs []Record) *MemLog {
	ml := NewMemLog()
	for _, r := range recs {
		ml.recs.Append(r)
		ml.next = max(ml.next, r.LSN)
	}
	return ml
}

// sameReplay fails unless ReadReplay on l, and l.Records after it, equal
// what the slice source (viewOf, behind a MemLog) makes of want.
func sameReplay(t *testing.T, name string, l Log, want []Record) {
	t.Helper()
	rp, err := ReadReplay(l, keepOdd)
	if err != nil {
		t.Fatalf("%s: replay: %v", name, err)
	}
	ref, err := ReadReplay(memLogOf(want), keepOdd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rp.Records()
	if err != nil {
		t.Fatalf("%s: view records: %v", name, err)
	}
	wantView, _ := ref.Records()
	if rp.Len() != ref.Len() || rp.Skipped != ref.Skipped || rp.Fallback != ref.Fallback ||
		!reflect.DeepEqual(rp.Checkpoint, ref.Checkpoint) || !reflect.DeepEqual(got, wantView) {
		t.Fatalf("%s: a view of %d records (skipped %d, fallback %v); the slice source's has %d (%d, %v)",
			name, rp.Len(), rp.Skipped, rp.Fallback, ref.Len(), ref.Skipped, ref.Fallback)
	}
	if !reflect.DeepEqual(rp.Live, ref.Live) || !reflect.DeepEqual(rp.Pos, ref.Pos) || !reflect.DeepEqual(rp.Images, ref.Images) {
		t.Fatalf("%s: the fold differs from the slice source's", name)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatalf("%s: records: %v", name, err)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("%s: %d records read back, want %d", name, len(recs), len(want))
	}
}

// TestFileViewMatchesSliceSource holds the file log's view to the slice
// source's on the image its open kept, on a file read anew after an
// append or a compaction, and on an image whose torn tail the open cut.
func TestFileViewMatchesSliceSource(t *testing.T) {
	recs := historyRecords(60)
	image := logImage(t, recs)
	open := func(t *testing.T, image []byte) *FileLog {
		t.Helper()
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenFile(path, false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}

	t.Run("open", func(t *testing.T) {
		l := open(t, image)
		if l.image == nil {
			t.Fatal("the open kept no image")
		}
		sameReplay(t, "replay first", l, recs)
		if l.image != nil {
			t.Fatal("the first read left the image on the log")
		}
		l = open(t, image)
		got, err := l.Records()
		if err != nil || !reflect.DeepEqual(got, recs) || l.image != nil {
			t.Fatalf("records first: %d records, %v; image dropped: %v", len(got), err, l.image == nil)
		}
	})
	t.Run("append", func(t *testing.T) {
		l := open(t, image)
		r := Record{Type: RecStart, Proc: "W1"}
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if l.image != nil {
			t.Fatal("an append left the image on the log")
		}
		r.LSN = lsn
		sameReplay(t, "after an append", l, append(recs[:len(recs):len(recs)], r))
	})
	t.Run("compact", func(t *testing.T) {
		l, ml := open(t, image), memLogOf(recs)
		for _, lg := range []interface {
			Log
			Compactor
		}{l, ml} {
			if _, err := TakeCheckpoint(lg, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := lg.Compact(nil); err != nil {
				t.Fatal(err)
			}
		}
		want, _ := ml.Records()
		if want[0].Type != RecCheckpoint {
			t.Fatalf("compaction left %v first", want[0].Type)
		}
		sameReplay(t, "after compaction", l, want)
	})
	t.Run("torn", func(t *testing.T) {
		torn := append(image[:len(image):len(image)], logImage(t, recs[:1])[len(fileMagic):]...)
		torn = torn[:len(torn)-2]
		sameReplay(t, "torn tail", open(t, torn), recs)
	})
}

// TestReplayReadsTheFileOnce bounds what opening a 50,000-record log and
// folding its replay view allocate: the file image once, and a few bytes
// a record besides (an offset, a slot, a share of a process's summary).
// Reading the file a second time, a slice over every frame or regrowing
// the per-record state goes past it.
func TestReplayReadsTheFileOnce(t *testing.T) {
	const procs, perRecord = 2800, 40
	recs := historyRecords(procs)
	path := filepath.Join(t.TempDir(), "wal.log")
	image := logImage(t, recs)
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is in doubt: recovery keeps no redo-commit entry.
	rp, err := ReadReplay(l, func(PreparedTx) bool { return false })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if rp.Len() != len(recs) || len(rp.Images) != procs {
		t.Fatalf("a view of %d records over %d processes, want %d over %d", rp.Len(), len(rp.Images), len(recs), procs)
	}
	got, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(image)+perRecord*len(recs))
	t.Logf("%d records, %d bytes: open + replay allocated %d bytes", len(recs), len(image), got)
	if got > bound {
		t.Errorf("open + replay of %d records (%d bytes) allocated %d bytes, over %d (the file + %d a record)",
			len(recs), len(image), got, bound, perRecord)
	}
}
