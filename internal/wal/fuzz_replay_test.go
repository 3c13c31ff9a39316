package wal

import (
	"bufio"
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// FuzzReplayView checks the streaming replay view against its slice
// source. Each input becomes a record list — a log image from
// FuzzCheckpointDecode's corpus is read as the records it holds and
// written as it is, torn tail included; any other input drives a
// generator whose records are framed with their own LSNs — held both by
// a FileLog and by a MemLog. On both logs, straight after the open (the
// file log's view is the walk its open made), again after a
// checkpoint is taken and after compaction, ReadReplay must equal Expand
// + Analyze over the log's Records: the same view (length, records,
// checkpoint, Skipped, Fallback), the live records at their positions,
// and per process the same verdict and the same unresolved 2PC state.
func FuzzReplayView(f *testing.F) {
	ckpt := func(cp *Checkpoint) string { return string(enc(Record{LSN: 5, Type: RecCheckpoint, Checkpoint: cp})) }
	valid := ckpt(&Checkpoint{Horizon: 4, Live: []Record{{LSN: 3, Type: RecStart, Proc: "L1"}}, AppliedSvc: map[string]int64{"a": 1}, Procs: 1, Dropped: 4})
	tail := string(enc(Record{LSN: 6, Type: RecStart, Proc: "W9"}))
	f.Add(frameImage(valid, tail))
	// A torn tail: the open cuts it off the file and the image it keeps.
	f.Add(append(frameImage(valid, tail), frameImage(tail)[len(fileMagic):len(fileMagic)+frameHeader+3]...))
	f.Add(frameImage(valid[:12], tail))
	f.Add(frameImage(ckpt(&Checkpoint{Horizon: -3}), tail))
	f.Add(frameImage(ckpt(&Checkpoint{Horizon: 1, Live: []Record{{LSN: 9, Type: RecStart, Proc: "X"}}}), tail))
	f.Add(frameImage(ckpt(&Checkpoint{Horizon: 2, AppliedSvc: map[string]int64{"a": -7}})))
	// The live process count is a capacity hint read from the file: a
	// negative or huge one must neither panic nor allocate by it.
	f.Add(frameImage(ckpt(&Checkpoint{Horizon: 4, Live: []Record{{LSN: 3, Type: RecStart, Proc: "L1"}}, Procs: -1000}), tail))
	f.Add(frameImage(ckpt(&Checkpoint{Horizon: 4, Procs: 1 << 40}), tail))
	f.Add(frameImage(string(nestedCheckpoint()), tail))
	// Checkpoints past the first frame, which leave the fold to the walk's
	// end: one whose fuzzy window (LSNs 3 and 4, past its horizon) lies
	// before its frame; a valid one, then an invalid one (Fallback); and
	// two valid ones, the second adopted.
	rec := func(r Record) string { return string(enc(r)) }
	l1 := Record{LSN: 1, Type: RecStart, Proc: "L1"}
	w3 := Record{LSN: 3, Type: RecStart, Proc: "W3"}
	w4 := Record{LSN: 4, Type: RecOutcome, Proc: "W3", Local: 1, Service: "svc1", Subsystem: "s1", Tx: 6, Outcome: "committed"}
	at := func(lsn int64, cp *Checkpoint) string {
		return string(enc(Record{LSN: lsn, Type: RecCheckpoint, Checkpoint: cp}))
	}
	f.Add(frameImage(rec(l1), rec(Record{LSN: 2, Type: RecStart, Proc: "P2"}), rec(w3), rec(w4),
		at(5, &Checkpoint{Horizon: 2, Live: []Record{l1}, Procs: 1, Dropped: 1}), tail))
	f.Add(frameImage(rec(l1), at(2, &Checkpoint{Horizon: 1, Live: []Record{l1}, Procs: 1}), rec(w3), rec(w4),
		at(5, &Checkpoint{Horizon: 4, AppliedSvc: map[string]int64{"a": -1}}), tail))
	f.Add(frameImage(rec(l1), at(2, &Checkpoint{Horizon: 1, Live: []Record{l1}, Procs: 1}), rec(w3), rec(w4),
		at(5, &Checkpoint{Horizon: 3, Live: []Record{l1, w3}, Procs: 2, Dropped: 1}), tail))
	f.Add(frameImage(string(enc(Record{LSN: 5, Type: RecCheckpoint}))))
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x04\x05\x08\x09\x0c\x0d\x10\x11\x14\x15\x18\x19\x1c\x1d\x20\x21\x24\x26\x27\x28\x29"))
	f.Add([]byte("\x04\x01\x02\x05\x21\x08\x46\x02\x09\x07\x13\x24\x33\x01\x02\x03\x20\x16\x01\x00\x24\x33\x02\x01\x00\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, image := replayInput(t, data)
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		fl, err := OpenFile(path, false)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer fl.Close()
		ml := NewMemLog()
		for _, r := range recs {
			ml.recs.Append(r)
			ml.next = max(ml.next, r.LSN)
		}
		keep := keepOdd(recs)
		for _, l := range []interface {
			Log
			Compactor
		}{fl, ml} {
			name := fmt.Sprintf("%T", l)
			checkReplay(t, name, l, keep)
			if _, err := TakeCheckpoint(l, nil, nil, nil); err != nil {
				t.Fatalf("%s: checkpoint: %v", name, err)
			}
			checkReplay(t, name+" checkpointed", l, keep)
			if _, err := l.Append(Record{Type: RecStart, Proc: "P9"}); err != nil {
				t.Fatal(err)
			}
			if err := l.Compact(nil); err != nil {
				t.Fatalf("%s: compact: %v", name, err)
			}
			checkReplay(t, name+" compacted", l, keep)
		}
	})
}

// replayInput returns the records of a log image and the image, or else
// the records data generates and their image.
func replayInput(t *testing.T, data []byte) ([]Record, []byte) {
	if bytes.HasPrefix(data, []byte(fileMagic)) {
		var recs []Record
		if _, err := walkFrames(data, func(p []byte) error {
			r, err := decodeRecord(p)
			recs = append(recs, r)
			return err
		}); err == nil {
			return recs, data
		}
	}
	recs := genRecords(data)
	return recs, logImage(t, recs)
}

// genRecords turns bytes into a record list over four processes: every
// record type, local ids in and out of the fold's bit sets, 2PC with and
// without transactions, and checkpoints valid and invalid whose horizon
// can leave the records just before them in the fuzzy window.
func genRecords(data []byte) []Record {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	locals := []int{1, 2, 3, 0, 64, 70, -1}
	var recs []Record
	var lsn int64
	for len(data) > 0 {
		op := next()
		lsn += 1 + int64(op>>7) // an occasional gap
		r := Record{LSN: lsn, Type: RecType(op >> 2 % 10), Proc: fmt.Sprintf("P%d", op%4)}
		arg := next()
		r.Local = locals[arg%len(locals)]
		if arg&8 != 0 {
			r.Tx = int64(arg>>4) + 1
			r.Subsystem = fmt.Sprintf("s%d", arg>>4%2)
			r.Service = fmt.Sprintf("svc%d", r.Local)
		}
		switch r.Type {
		case RecOutcome:
			r.Outcome = []string{"committed", "prepared", "aborted"}[arg>>6%3]
		case RecResolved:
			r.Commit = arg&1 != 0
		case RecTerminate:
			r.Committed = arg&1 != 0
		case RecCheckpoint:
			cp := &Checkpoint{Horizon: lsn - 1 - int64(arg%4), Dropped: arg % 7}
			for _, q := range recs {
				if q.Type != RecCheckpoint && q.LSN <= cp.Horizon && arg>>(q.Proc[1]-'0')&1 != 0 {
					cp.Live = append(cp.Live, q)
				}
			}
			switch arg >> 5 % 4 {
			case 0:
				cp.Horizon = -1
			case 1:
				if len(cp.Live) > 0 {
					cp.Live[0].LSN = cp.Horizon + 1
				}
			}
			r = Record{LSN: lsn, Type: RecCheckpoint, Checkpoint: cp}
		}
		recs = append(recs, r)
	}
	return recs
}

// logImage is recs as a file log holds them, LSNs included.
func logImage(t testing.TB, recs []Record) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	w.WriteString(fileMagic)
	for i := range recs {
		p, err := encodeRecord(&recs[i])
		if err != nil {
			t.Fatalf("encoding %+v: %v", recs[i], err)
		}
		if err := writeFrame(w, p); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	return buf.Bytes()
}

// keepOdd is the set of transactions the checks fold with: every
// transaction recs (and their checkpoints) name whose id is odd. Each id
// recs name is also put in the set first at a subsystem no record names,
// so an id in the set does not decide alone and a kept transaction is
// never the first of its id.
func keepOdd(recs []Record) TxSet {
	keep := make(TxSet)
	var add func(recs []Record)
	add = func(recs []Record) {
		for _, r := range recs {
			keep.Add(r.Subsystem+" elsewhere", r.Tx)
			if r.Tx%2 != 0 {
				keep.Add(r.Subsystem, r.Tx)
			}
			if r.Checkpoint != nil {
				add(r.Checkpoint.Live)
			}
		}
	}
	add(recs)
	return keep
}

// checkReplay compares ReadReplay on l, folding with keep, with Expand +
// Analyze over l.Records, read after it.
func checkReplay(t *testing.T, name string, l Log, keep TxSet) {
	t.Helper()
	rp, err := ReadReplay(l, keep)
	if err != nil {
		t.Fatalf("%s: replay: %v", name, err)
	}
	raw, err := l.Records()
	if err != nil {
		t.Fatalf("%s: records: %v", name, err)
	}
	exp := Expand(raw)
	want, err := Analyze(exp.Records)
	if err != nil && err != ErrNoLog {
		t.Fatalf("%s: analyze: %v", name, err)
	}
	if rp.Len() != len(exp.Records) || rp.Skipped != exp.Skipped || rp.Fallback != exp.Fallback ||
		!reflect.DeepEqual(rp.Checkpoint, exp.Checkpoint) {
		t.Fatalf("%s: view of %d records, skipped %d, fallback %v, checkpoint %+v; want %d, %d, %v, %+v",
			name, rp.Len(), rp.Skipped, rp.Fallback, rp.Checkpoint, len(exp.Records), exp.Skipped, exp.Fallback, exp.Checkpoint)
	}
	view, err := rp.Records()
	if err != nil {
		t.Fatalf("%s: view records: %v", name, err)
	}
	var each []Record
	if err := rp.Each(func(r *Record) {
		e := *r
		e.Checkpoint = nil // a scan leaves it out
		each = append(each, e)
	}); err != nil {
		t.Fatalf("%s: each: %v", name, err)
	}
	for i := range exp.Records {
		w := exp.Records[i]
		if !reflect.DeepEqual(view[i], w) {
			t.Fatalf("%s: view record %d = %+v, want %+v", name, i, view[i], w)
		}
		if w.Checkpoint = nil; each[i] != w {
			t.Fatalf("%s: walked record %d = %+v, want %+v", name, i, each[i], w)
		}
	}
	var live []Record
	var pos []int
	for i, r := range exp.Records {
		if im := want[r.Proc]; im != nil && !im.Terminated {
			live, pos = append(live, r), append(pos, i)
		}
	}
	if !reflect.DeepEqual(rp.Live, live) || !slices.Equal(rp.Pos, pos) {
		t.Fatalf("%s: live records %+v at %v, want %+v at %v", name, rp.Live, rp.Pos, live, pos)
	}
	if got, wantIDs := slices.Sorted(maps.Keys(rp.Images)), slices.Sorted(maps.Keys(want)); !slices.Equal(got, wantIDs) {
		t.Fatalf("%s: images of %v, want %v", name, got, wantIDs)
	}
	for id, w := range want {
		g := rp.Images[id]
		stands := w.TerminatedCommitted || slices.ContainsFunc(w.Committed,
			func(local int) bool { return !slices.Contains(w.Compensated, local) })
		if w.Stands != stands || g.Stands != stands {
			t.Fatalf("%s: %s stands %v in the image, %v in the summary; its lists say %v", name, id, w.Stands, g.Stands, stands)
		}
		resolved := make(map[int]bool)
		for local := range w.Prepared {
			if w.Resolved[local] {
				resolved[local] = true
			}
		}
		var redo []PreparedTx
		for _, ptx := range w.RedoCommit {
			if ptx.Tx%2 != 0 { // what keepOdd put in keep of the records' transactions
				redo = append(redo, ptx)
			}
		}
		if g.Proc != w.Proc || g.Decided != w.Decided || g.Aborting != w.Aborting ||
			g.Terminated != w.Terminated || g.TerminatedCommitted != w.TerminatedCommitted ||
			len(g.Committed)+len(g.Compensated)+len(g.Failed) != 0 ||
			!maps.Equal(g.Prepared, w.Prepared) || !maps.Equal(g.Resolved, resolved) || !slices.Equal(g.RedoCommit, redo) {
			t.Fatalf("%s: summary of %s\n got %+v\nwant %+v (resolved %v, redo %v)", name, id, g, w, resolved, redo)
		}
	}
}
