package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMemLogAppendAndRecords(t *testing.T) {
	t.Parallel()
	l := NewMemLog()
	lsn1, err := l.Append(Record{Type: RecStart, Proc: "P1"})
	if err != nil || lsn1 != 1 {
		t.Fatalf("lsn1 = %d, %v", lsn1, err)
	}
	lsn2, _ := l.Append(Record{Type: RecDispatch, Proc: "P1", Local: 1, Service: "x"})
	if lsn2 != 2 {
		t.Fatalf("lsn2 = %d", lsn2)
	}
	recs, err := l.Records()
	if err != nil || len(recs) != 2 {
		t.Fatalf("records = %v, %v", recs, err)
	}
	if recs[0].Type != RecStart || recs[1].Service != "x" {
		t.Fatalf("records content wrong: %+v", recs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileLogRoundTrip(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	l, err := OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Type: RecStart, Proc: "P1"})
	l.Append(Record{Type: RecOutcome, Proc: "P1", Local: 2, Outcome: "prepared", Tx: 7, Subsystem: "s"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: LSNs continue.
	l2, err := OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	lsn, err := l2.Append(Record{Type: RecTerminate, Proc: "P1", Committed: true})
	if err != nil || lsn != 3 {
		t.Fatalf("lsn = %d, %v", lsn, err)
	}
	recs, err := l2.Records()
	if err != nil || len(recs) != 3 {
		t.Fatalf("records = %v, %v", recs, err)
	}
	if recs[1].Outcome != "prepared" || recs[1].Tx != 7 {
		t.Fatalf("record = %+v", recs[1])
	}
}

// sixRecordLog writes a synced six-record log and returns its path and
// bytes.
func sixRecordLog(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append(Record{Type: RecOutcome, Proc: fmt.Sprintf("P%d", i), Local: i, Service: "svc", Outcome: "committed"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestFileLogTornTail(t *testing.T) {
	t.Parallel()
	path, data := sixRecordLog(t)
	// Simulate a torn write: the sixth frame lost its last bytes.
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("torn tail must be ignored, got %d records, want 5", len(recs))
	}
}

// openMustBeCorrupt asserts that OpenFile refuses the image with
// ErrCorrupt and leaves the file byte-for-byte untouched.
func openMustBeCorrupt(t *testing.T, path string, image []byte, what string) {
	t.Helper()
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenFile(path, true)
	if err == nil {
		recs, _ := l.Records()
		l.Close()
		t.Fatalf("%s: OpenFile succeeded with %d records, want ErrCorrupt", what, len(recs))
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: got %v, want ErrCorrupt", what, err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, image) {
		t.Fatalf("%s: a corrupt log was modified (%d bytes before, %d after)", what, len(image), len(after))
	}
}

// No acknowledged record is ever silently dropped: damage to any byte
// of the magic or of any frame but the last — length, checksum or
// payload — is a loud ErrCorrupt, never a "torn tail" that truncates
// the synced records behind it.
func TestInteriorByteFlipIsCorrupt(t *testing.T) {
	t.Parallel()
	path, data := sixRecordLog(t)
	bounds := FrameBounds(data)
	if len(bounds) != 7 {
		t.Fatalf("frame bounds %v, want 6 frames", bounds)
	}
	lastStart := bounds[len(bounds)-2]
	for _, mask := range []byte{0xFF, 0x01, 0x80} {
		for i := 0; i < lastStart; i++ {
			image := append([]byte(nil), data...)
			image[i] ^= mask
			openMustBeCorrupt(t, path, image, fmt.Sprintf("byte %d ^ %#x", i, mask))
		}
	}
}

// A log in the retired JSON-lines format (or any other file) is
// rejected and left intact, not emptied as a "torn tail".
func TestForeignFileIsCorrupt(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "wal.log")
	openMustBeCorrupt(t, path, []byte("{\"lsn\":1,\"type\":0,\"proc\":\"W1\"}\n{\"lsn\":2,\"type\":8,\"proc\":\"W1\"}\n"), "JSONL log")
	openMustBeCorrupt(t, path, []byte("{\"l"), "short JSONL fragment")
	// An intact frame, then one whose payload the record codec rejects.
	_, data := sixRecordLog(t)
	openMustBeCorrupt(t, path, frameImage(string(enc(Record{LSN: 1, Type: RecStart, Proc: "W1"})), "not a record"), "undecodable payload")
	// Intact frames after a frame that was cut short.
	b := FrameBounds(data)
	spliced := append(append([]byte(nil), data[:b[3]-4]...), data[b[3]:]...)
	openMustBeCorrupt(t, path, spliced, "frame cut short mid-file")
}

// A frame file whose payloads are records in the retired JSON format is
// refused, by name, and left untouched: there is no JSON reader and no
// migration.
func TestRetiredJSONPayloadsAreCorrupt(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "wal.log")
	var payloads []string
	for _, r := range []Record{
		{LSN: 1, Type: RecStart, Proc: "W1"},
		{LSN: 2, Type: RecCheckpoint, Checkpoint: &Checkpoint{Horizon: 1, AppliedSvc: map[string]int64{"a": 1}}},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, string(b))
	}
	image := frameImage(payloads...)
	openMustBeCorrupt(t, path, image, "JSON-payload frames")
	if _, err := OpenFile(path, false); err == nil || !strings.Contains(err.Error(), "retired JSON") {
		t.Fatalf("error %v does not name the retired format", err)
	}
}

// frameImage builds a log image holding the given payloads.
func frameImage(payloads ...string) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	w.WriteString(fileMagic)
	for _, p := range payloads {
		if err := writeFrame(w, []byte(p)); err != nil {
			panic(err)
		}
	}
	w.Flush()
	return buf.Bytes()
}

func TestAnalyzeEmpty(t *testing.T) {
	t.Parallel()
	if _, err := Analyze(nil); err != ErrNoLog {
		t.Fatalf("err = %v", err)
	}
}

func TestAnalyzeImages(t *testing.T) {
	t.Parallel()
	recs := []Record{
		{Type: RecStart, Proc: "P1"},
		{Type: RecDispatch, Proc: "P1", Local: 1, Service: "a"},
		{Type: RecOutcome, Proc: "P1", Local: 1, Outcome: "committed"},
		{Type: RecOutcome, Proc: "P1", Local: 2, Outcome: "prepared", Tx: 9, Subsystem: "s", Service: "p"},
		{Type: RecStart, Proc: "P2"},
		{Type: RecOutcome, Proc: "P2", Local: 1, Outcome: "committed"},
		{Type: RecFailed, Proc: "P2", Local: 2},
		{Type: RecCompensate, Proc: "P2", Local: 1},
		{Type: RecAbortBegin, Proc: "P2"},
		{Type: RecTerminate, Proc: "P2", Committed: false},
	}
	images, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	p1 := images["P1"]
	if len(p1.Committed) != 1 || p1.Committed[0] != 1 {
		t.Fatalf("p1 committed = %v", p1.Committed)
	}
	if tx, ok := p1.Prepared[2]; !ok || tx.Tx != 9 || tx.Subsystem != "s" {
		t.Fatalf("p1 prepared = %v", p1.Prepared)
	}
	if p1.Terminated {
		t.Fatal("p1 must be active")
	}
	p2 := images["P2"]
	if !p2.Terminated || p2.TerminatedCommitted {
		t.Fatal("p2 must have terminated by abort")
	}
	if !p2.Aborting || len(p2.Compensated) != 1 || len(p2.Failed) != 1 {
		t.Fatalf("p2 image = %+v", p2)
	}
}

func TestAnalyzeDecisionAndResolution(t *testing.T) {
	t.Parallel()
	recs := []Record{
		{Type: RecStart, Proc: "P1"},
		{Type: RecOutcome, Proc: "P1", Local: 2, Outcome: "prepared", Tx: 5, Subsystem: "s", Service: "p"},
		{Type: RecOutcome, Proc: "P1", Local: 3, Outcome: "prepared", Tx: 6, Subsystem: "s", Service: "r"},
		{Type: RecDecision, Proc: "P1"},
		{Type: RecResolved, Proc: "P1", Local: 2, Tx: 5, Commit: true},
	}
	images, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	p1 := images["P1"]
	if !p1.Decided {
		t.Fatal("decision must be recorded")
	}
	if p1.Resolved[3] || !p1.Resolved[2] {
		t.Fatalf("resolved = %v", p1.Resolved)
	}
	if _, stillPrepared := p1.Prepared[3]; !stillPrepared {
		t.Fatal("tx 6 must remain in doubt")
	}
	if _, gone := p1.Prepared[2]; gone {
		t.Fatal("tx 5 must be resolved")
	}
}

func TestRecTypeString(t *testing.T) {
	t.Parallel()
	for rt := RecStart; rt <= RecTerminate; rt++ {
		if rt.String() == "" {
			t.Fatalf("empty label for %d", int(rt))
		}
	}
	if RecType(99).String() != "RecType(99)" {
		t.Fatal("unknown label")
	}
}

// TestMemLogAcrossChunks appends enough records to fill several chunks
// of the in-memory log: records and LSNs come back in append order.
func TestMemLogAcrossChunks(t *testing.T) {
	l := NewMemLog()
	const n = 3*256 + 50 // past three full chunks
	for i := 1; i <= n; i++ {
		lsn, err := l.Append(Record{Type: RecDispatch, Proc: "P", Local: i})
		if err != nil || lsn != int64(i) {
			t.Fatalf("append %d: lsn %d, %v", i, lsn, err)
		}
	}
	recs, _ := l.Records()
	if len(recs) != n {
		t.Fatalf("%d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LSN != int64(i+1) || r.Local != i+1 {
			t.Fatalf("record %d: lsn %d local %d", i, r.LSN, r.Local)
		}
	}
}

// TestMemLogAppendAllocs guards the log append of the runtime's serial
// section: an append allocates only when it opens a chunk.
func TestMemLogAppendAllocs(t *testing.T) {
	l := NewMemLog()
	const batch = 1000
	per := testing.AllocsPerRun(20, func() {
		for i := 0; i < batch; i++ {
			l.Append(Record{Type: RecOutcome, Proc: "P", Local: i, Outcome: "committed"})
		}
	}) / batch
	if per >= 0.01 {
		t.Fatalf("MemLog.Append allocates %.4f times per record, want < 0.01", per)
	}
}
