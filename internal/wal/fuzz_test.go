package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to the file log's open/replay
// path. Whatever is on disk, OpenFile never panics: it either comes up
// (a torn tail truncated away) or refuses with ErrCorrupt and leaves
// the file untouched. When it comes up, Analyze must not panic, an
// append must be durable across a further reopen, and no record the
// first open returned may disappear.
func FuzzWALReplay(f *testing.F) {
	start := string(enc(Record{LSN: 1, Type: RecStart, Proc: "W1"}))
	torn := frameImage(start, string(enc(Record{LSN: 2, Type: RecOutcome, Proc: "W1", Local: 1, Service: "svc", Outcome: "committed"})))
	f.Add([]byte(""))
	f.Add([]byte(fileMagic))
	f.Add(frameImage(start))
	f.Add(torn[:len(torn)-9])
	f.Add(frameImage("garbage", start))
	f.Add(frameImage("", "", ""))
	f.Add(append(frameImage(start), bytes.Repeat([]byte{0xff, 0x00, '\n'}, 7)...))
	// The retired formats, JSON lines and JSON payloads in frames:
	// refused, file untouched.
	jsonStart := `{"lsn":1,"type":0,"proc":"W1"}`
	f.Add([]byte(jsonStart + "\n"))
	f.Add([]byte(jsonStart + "\n{\"lsn\":2,\"type\":2,\"pr"))
	f.Add([]byte("\n\n\n"))
	f.Add(frameImage(jsonStart))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenFile(path, false)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenFile on arbitrary bytes: %v, want success or ErrCorrupt", err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatalf("a corrupt log was modified")
			}
			return
		}
		recs, err := l.Records()
		if err != nil {
			t.Fatalf("Records after open: %v", err)
		}
		// Analyze may reject an inconsistent log with an error; the
		// fuzz target only guards against panics.
		_, _ = Analyze(recs)
		lsn, err := l.Append(Record{Type: RecStart, Proc: "fuzz"})
		if err != nil {
			t.Fatalf("Append after recovery open: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		re, err := OpenFile(path, false)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		again, err := re.Records()
		if err != nil {
			t.Fatalf("Records after reopen: %v", err)
		}
		if len(again) != len(recs)+1 || (len(recs) > 0 && !reflect.DeepEqual(again[:len(recs)], recs)) {
			t.Fatalf("records changed across reopen: %d before the append, %d after", len(recs), len(again))
		}
		last := again[len(again)-1]
		if last.Proc != "fuzz" || last.LSN != lsn {
			t.Fatalf("appended record corrupted on replay: %+v", last)
		}
	})
}
