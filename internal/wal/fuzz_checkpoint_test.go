package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint
// expansion path: whatever checkpoint payload is on disk, OpenFile must
// come up or refuse with ErrCorrupt and leave the file untouched; when it
// comes up, Expand must not
// panic, a structurally invalid checkpoint must only widen the replay
// window (fall back toward full replay, never drop post-horizon records
// or return an error), and Analyze over the expansion must not panic.
func FuzzCheckpointDecode(f *testing.F) {
	ckpt := func(cp *Checkpoint) string { return string(enc(Record{LSN: 5, Type: RecCheckpoint, Checkpoint: cp})) }
	valid := ckpt(&Checkpoint{Horizon: 4, Live: []Record{{LSN: 3, Type: RecStart, Proc: "L1"}}, AppliedSvc: map[string]int64{"a": 1}, Procs: 1, Dropped: 4})
	tail := string(enc(Record{LSN: 6, Type: RecStart, Proc: "W9"}))
	f.Add(frameImage(valid, tail))
	f.Add(frameImage(valid[:12], tail))
	f.Add(frameImage(ckpt(&Checkpoint{Horizon: -3}), tail))
	f.Add(frameImage(ckpt(&Checkpoint{Horizon: 1, Live: []Record{{LSN: 9, Type: RecStart, Proc: "X"}}}), tail))
	f.Add(frameImage(ckpt(&Checkpoint{Horizon: 2, AppliedSvc: map[string]int64{"a": -7}})))
	f.Add(frameImage(string(nestedCheckpoint()), tail))
	f.Add(frameImage(string(enc(Record{LSN: 5, Type: RecCheckpoint}))))
	// The retired formats, JSON lines and JSON payloads in frames:
	// refused, file untouched.
	jsonValid := `{"lsn":5,"type":9,"proc":"","ckpt":{"horizon":4,"live":[{"lsn":3,"type":0,"proc":"L1"}],"applied":{"a":1},"procs":1,"dropped":4}}`
	jsonTail := `{"lsn":6,"type":0,"proc":"W9"}`
	f.Add([]byte(jsonValid + "\n" + jsonTail + "\n"))
	f.Add(frameImage(jsonValid, jsonTail))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenFile(path, false)
		if errors.Is(err, ErrCorrupt) {
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatalf("a corrupt log was modified")
			}
			return
		}
		if err != nil {
			t.Fatalf("OpenFile on arbitrary bytes: %v, want success or ErrCorrupt", err)
		}
		defer l.Close()
		recs, err := l.Records()
		if err != nil {
			t.Fatalf("Records after open: %v", err)
		}
		exp := Expand(recs)

		// The adopted checkpoint, if any, must be structurally valid.
		if exp.Checkpoint != nil && !exp.Checkpoint.valid() {
			t.Fatalf("Expand adopted an invalid checkpoint: %+v", exp.Checkpoint)
		}
		// No expansion result ever contains a checkpoint record.
		for _, r := range exp.Records {
			if r.Type == RecCheckpoint {
				t.Fatalf("checkpoint record leaked into the expansion: %+v", r)
			}
		}
		// Post-horizon records are sacred: every non-checkpoint record
		// past the adopted horizon (or every one, without a checkpoint)
		// must appear in the expansion, keyed by identical JSON.
		horizon := int64(-1 << 62)
		if exp.Checkpoint != nil {
			horizon = exp.Checkpoint.Horizon
		}
		have := make(map[string]int)
		for _, r := range exp.Records {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("marshaling expanded record: %v", err)
			}
			have[string(b)]++
		}
		for _, r := range recs {
			if r.Type == RecCheckpoint || r.LSN <= horizon {
				continue
			}
			b, _ := json.Marshal(r)
			if have[string(b)] <= 0 {
				t.Fatalf("post-horizon record dropped by expansion: %s", b)
			}
			have[string(b)]--
		}
		// Without a usable checkpoint the expansion IS the full replay,
		// order included.
		if exp.Checkpoint == nil {
			i := 0
			for _, r := range recs {
				if r.Type == RecCheckpoint {
					continue
				}
				if i >= len(exp.Records) {
					t.Fatalf("fallback expansion shorter than the non-checkpoint history")
				}
				a, _ := json.Marshal(exp.Records[i])
				b, _ := json.Marshal(r)
				if string(a) != string(b) {
					t.Fatalf("fallback expansion diverges at %d: %s != %s", i, a, b)
				}
				i++
			}
			if i != len(exp.Records) {
				t.Fatalf("fallback expansion has %d extra records", len(exp.Records)-i)
			}
		}
		// Analyze over the expansion must not panic (errors are fine).
		if _, err := Analyze(exp.Records); err != nil && err != ErrNoLog {
			_ = err
		}
	})
}
