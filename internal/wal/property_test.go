package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

func randomRecord(rng *rand.Rand) Record {
	return Record{
		Type:      RecType(rng.Intn(int(RecTerminate) + 1)),
		Proc:      []string{"P1", "P2", "W7+r2"}[rng.Intn(3)],
		Local:     rng.Intn(9),
		Service:   []string{"", "svc", "svc⁻¹"}[rng.Intn(3)],
		Subsystem: []string{"", "rm0"}[rng.Intn(2)],
		Tx:        rng.Int63n(100),
		Outcome:   []string{"", "committed", "aborted", "prepared"}[rng.Intn(4)],
		Committed: rng.Intn(2) == 0,
		Commit:    rng.Intn(2) == 0,
	}
}

// Property: a file-backed log returns exactly the records appended, in
// order, with sequential LSNs — including across a close/reopen.
func TestPropertyFileLogRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	n := 0
	f := func(seed int64, countRaw uint8) bool {
		n++
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(dir, "wal", string(rune('a'+n%26))+".jsonl")
		_ = path
		path = filepath.Join(dir, "log"+string(rune('a'+n%26))+string(rune('a'+(n/26)%26))+".jsonl")
		l, err := OpenFile(path, false)
		if err != nil {
			t.Log(err)
			return false
		}
		count := int(countRaw%32) + 1
		var want []Record
		for i := 0; i < count; i++ {
			r := randomRecord(rng)
			lsn, err := l.Append(r)
			if err != nil {
				t.Log(err)
				return false
			}
			r.LSN = lsn
			want = append(want, r)
		}
		if err := l.Close(); err != nil {
			t.Log(err)
			return false
		}
		l2, err := OpenFile(path, false)
		if err != nil {
			t.Log(err)
			return false
		}
		defer l2.Close()
		got, err := l2.Records()
		if err != nil {
			t.Log(err)
			return false
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("round trip mismatch:\n got %+v\nwant %+v", got, want)
			return false
		}
		for i, r := range got {
			if r.LSN != int64(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Analyze is a pure function of the record sequence (same
// input, same images) and never reports a process as both terminated
// and holding unresolved prepared transactions after a decision +
// complete resolution.
func TestPropertyAnalyzeDeterministic(t *testing.T) {
	t.Parallel()
	f := func(seed int64, countRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var recs []Record
		for i := 0; i < int(countRaw%48)+1; i++ {
			recs = append(recs, randomRecord(rng))
		}
		a, err1 := Analyze(recs)
		b, err2 := Analyze(recs)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: for EVERY byte-prefix of a valid log file — any point a
// crash could cut the file at, cuts inside the file magic included —
// OpenFile succeeds, yields exactly the records whose frames are
// complete in the prefix (at most the final partial record is dropped),
// and a subsequent append is durable across a reopen.
func TestPropertyEveryBytePrefixRecovers(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	full := filepath.Join(dir, "full.jsonl")
	l, err := OpenFile(full, false)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 6; i++ {
		r := randomRecord(rng)
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		r.LSN = lsn
		want = append(want, r)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Complete records at cut k = number of frames that end inside
	// data[:k].
	bounds := FrameBounds(data)
	completeAt := func(k int) int {
		n := 0
		for _, end := range bounds[1:] {
			if end <= k {
				n++
			}
		}
		return n
	}
	for k := 0; k <= len(data); k++ {
		path := filepath.Join(dir, "cut.jsonl")
		if err := os.WriteFile(path, data[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		pl, err := OpenFile(path, false)
		if err != nil {
			t.Fatalf("cut %d: open: %v", k, err)
		}
		got, err := pl.Records()
		if err != nil {
			t.Fatalf("cut %d: records: %v", k, err)
		}
		wantN := completeAt(k)
		if len(got) != wantN {
			t.Fatalf("cut %d: %d records, want %d", k, len(got), wantN)
		}
		if wantN > 0 && !reflect.DeepEqual(got, want[:wantN]) {
			t.Fatalf("cut %d: surviving records differ from the appended prefix", k)
		}
		if _, err := pl.Append(Record{Type: RecStart, Proc: "post-crash"}); err != nil {
			t.Fatalf("cut %d: append: %v", k, err)
		}
		if err := pl.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", k, err)
		}
		re, err := OpenFile(path, false)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", k, err)
		}
		again, err := re.Records()
		re.Close()
		if err != nil {
			t.Fatalf("cut %d: records after reopen: %v", k, err)
		}
		if len(again) != wantN+1 || again[len(again)-1].Proc != "post-crash" {
			t.Fatalf("cut %d: post-crash append not durable (%d records)", k, len(again))
		}
	}
}

// Property: MemLog and FileLog agree on the visible record sequence for
// the same appends.
func TestPropertyMemFileEquivalence(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	n := 0
	f := func(seed int64, countRaw uint8) bool {
		n++
		rng := rand.New(rand.NewSource(seed))
		mem := NewMemLog()
		file, err := OpenFile(filepath.Join(dir, "eq"+string(rune('a'+n%26))+string(rune('a'+(n/26)%26))+".jsonl"), false)
		if err != nil {
			return false
		}
		defer file.Close()
		for i := 0; i < int(countRaw%24)+1; i++ {
			r := randomRecord(rng)
			if _, err := mem.Append(r); err != nil {
				return false
			}
			if _, err := file.Append(r); err != nil {
				return false
			}
		}
		a, _ := mem.Records()
		b, _ := file.Records()
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
