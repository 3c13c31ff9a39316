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
// what the slice source (viewOf, behind a MemLog) makes of want. It
// returns the replay.
func sameReplay(t *testing.T, name string, l Log, want []Record) *Replay {
	t.Helper()
	keep := keepOdd(want)
	rp, err := ReadReplay(l, keep)
	if err != nil {
		t.Fatalf("%s: replay: %v", name, err)
	}
	ref, err := ReadReplay(memLogOf(want), keep)
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
	return rp
}

// logWith returns recs numbered in log order with a checkpoint record
// put before each index in at: the k-th is ckpt(k, the log before it).
func logWith(recs []Record, at []int, ckpt func(k int, before []Record) *Checkpoint) []Record {
	var out []Record
	add := func(r Record) {
		r.LSN = int64(len(out) + 1)
		out = append(out, r)
	}
	next := 0
	for k, i := range at {
		for ; next < i; next++ {
			add(recs[next])
		}
		add(Record{Type: RecCheckpoint, Checkpoint: ckpt(k, out)})
	}
	for ; next < len(recs); next++ {
		add(recs[next])
	}
	return out
}

// fuzzy is a valid checkpoint over all but the last lag records before
// it: those lie past its horizon though its frame follows them, in the
// window a fuzzy checkpoint's build leaves.
func fuzzy(lag int) func(int, []Record) *Checkpoint {
	return func(_ int, before []Record) *Checkpoint { return BuildCheckpoint(before[:len(before)-lag], nil) }
}

// TestFileViewMatchesSliceSource holds the file log's view to the slice
// source's: on the walk its open made, for a plain log, a compacted one,
// a checkpoint past the first frame with a fuzzy window before it, a
// valid checkpoint then an invalid one and the reverse, two valid ones
// and a torn tail;
// and on a file read anew, after Records, an append or a compaction. The
// log keeps nothing of its open after its first read, an append or a
// close.
func TestFileViewMatchesSliceSource(t *testing.T) {
	recs := historyRecords(60)
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
	mid := []int{len(recs) / 3}
	// lag is how many records of the view before its checkpoint's frame
	// lie past its horizon; -1 for a view without a checkpoint.
	cases := []struct {
		name     string
		log      []Record
		lag      int
		fallback bool
	}{
		{"plain", recs, -1, false},
		{"compacted", compacted(logWith(recs, mid, fuzzy(5))), 0, false},
		{"fuzzy window", logWith(recs, mid, fuzzy(5)), 5, false},
		{"valid then invalid", logWith(recs, []int{len(recs) / 3, 2 * len(recs) / 3}, func(k int, before []Record) *Checkpoint {
			if k == 1 {
				return &Checkpoint{Horizon: -1}
			}
			return fuzzy(3)(k, before)
		}), 3, true},
		{"invalid then valid", logWith(recs, []int{len(recs) / 3, 2 * len(recs) / 3}, func(k int, before []Record) *Checkpoint {
			if k == 0 {
				return &Checkpoint{Horizon: -1}
			}
			return fuzzy(3)(k, before)
		}), 3, false},
		{"two valid", logWith(recs, []int{len(recs) / 3, 2 * len(recs) / 3}, fuzzy(4)), 4, false},
	}
	t.Run("open", func(t *testing.T) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				image := logImage(t, tc.log)
				l := open(t, image)
				if l.opened == nil {
					t.Fatal("the open kept no walk")
				}
				rp := sameReplay(t, "replay first", l, tc.log)
				lag := -1
				if cp := rp.Checkpoint; cp != nil {
					lag = 0
					for _, r := range tc.log {
						if r.Type == RecCheckpoint && reflect.DeepEqual(r.Checkpoint, cp) {
							break
						}
						if r.Type != RecCheckpoint && r.LSN > cp.Horizon {
							lag++
						}
					}
				}
				if lag != tc.lag || rp.Fallback != tc.fallback {
					t.Fatalf("a view with %d records past its horizon before its checkpoint, fallback %v; want %d, %v", lag, rp.Fallback, tc.lag, tc.fallback)
				}
				if l.opened != nil {
					t.Fatal("the first read left the open's walk on the log")
				}
				l = open(t, image)
				got, err := l.Records()
				if err != nil || !reflect.DeepEqual(got, tc.log) || l.opened != nil {
					t.Fatalf("records first: %d records, %v; walk dropped: %v", len(got), err, l.opened == nil)
				}
				sameReplay(t, "replay after records", l, tc.log)
			})
		}
	})
	image := logImage(t, recs)
	t.Run("append", func(t *testing.T) {
		l := open(t, image)
		r := Record{Type: RecStart, Proc: "W1"}
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if l.opened != nil {
			t.Fatal("an append left the open's walk on the log")
		}
		r.LSN = lsn
		sameReplay(t, "after an append", l, append(recs[:len(recs):len(recs)], r))
	})
	t.Run("close", func(t *testing.T) {
		l := open(t, image)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if l.opened != nil {
			t.Fatal("a close left the open's walk on the log")
		}
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
	rp, err := ReadReplay(l, nil)
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

// BenchmarkReplay times what a restart reads of its log, in the WAL
// alone: OpenFile and ReadReplay over historyRecords(2800), about 51,800
// records with nothing in doubt, reported per record as well as per op.
func BenchmarkReplay(b *testing.B) {
	recs := historyRecords(2800)
	path := filepath.Join(b.TempDir(), "wal.log")
	if err := os.WriteFile(path, logImage(b, recs), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		l, err := OpenFile(path, false)
		if err != nil {
			b.Fatal(err)
		}
		rp, err := ReadReplay(l, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rp.Len() != len(recs) {
			b.Fatalf("a view of %d records, want %d", rp.Len(), len(recs))
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}
