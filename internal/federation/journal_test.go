package federation

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"transproc/internal/wal"
)

func journalFixture() []JEntry {
	return []JEntry{
		{Kind: jEpoch, Node: 3},
		{Kind: jLease, Stamp: 512},
		// Kind 2, the retired ownership row: old journals hold them, the
		// codec still carries every field and the fold skips them.
		{Kind: 2, Node: 1, Origin: "W1", Proc: "W1", Arrival: 0},
		{Kind: 2, Node: 2, Origin: "W2", Proc: "W2", Arrival: 1},
		{Kind: jLease, Stamp: 1024},
		{Kind: 2, Node: 1, Origin: "W2", Proc: "W2+r1", Arrival: 1},
	}
}

// TestFileJournalRoundTrip pins the on-disk format: append, replay,
// close, reopen, replay again — byte-identical entries every time.
func TestFileJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.journal")
	j, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	want := journalFixture()
	for _, e := range want {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := j.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenFileJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, err = j2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after reopen mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestFileJournalTornTail pins crash tolerance: a partial last record
// (kill -9 mid-write) replays as the intact prefix, silently, at every
// truncation point.
func TestFileJournalTornTail(t *testing.T) {
	path, full := writeJournalFixture(t)
	dir := filepath.Dir(path)
	want := journalFixture()

	// Find the last record's start so every cut lands inside it.
	last := len(full)
	for cut := last - 1; cut > last-40 && cut > 0; cut -= 7 {
		torn := filepath.Join(dir, "torn.journal")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tj, err := OpenFileJournal(torn, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tj.Entries()
		tj.Close()
		if err != nil {
			t.Fatalf("cut at %d/%d: %v", cut, last, err)
		}
		if len(got) >= len(want) {
			t.Fatalf("cut at %d/%d replayed %d entries, want a strict prefix of %d", cut, last, len(got), len(want))
		}
		if !reflect.DeepEqual(got, want[:len(got)]) {
			t.Fatalf("cut at %d/%d: prefix mismatch", cut, last)
		}
	}
}

// writeJournalFixture writes the fixture to a fresh journal file and
// returns its path and bytes.
func writeJournalFixture(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hub.journal")
	j, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range journalFixture() {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestFileJournalInteriorCorruption pins the loud-failure contract: a
// flipped byte before the tail is ErrJournalCorrupt (and the shared
// wal.ErrCorrupt) at reopen, never a silent skip or a truncation — the
// journal is the hub's force-log, a hole in the middle means the
// recovery inputs can't be trusted.
func TestFileJournalInteriorCorruption(t *testing.T) {
	path, data := writeJournalFixture(t)
	bounds := wal.FrameBounds(data)
	for i := 0; i < bounds[len(bounds)-2]; i++ {
		image := append([]byte(nil), data...)
		image[i] ^= 0xFF
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		cj, err := OpenFileJournal(path, true)
		if err == nil {
			cj.Close()
			t.Fatalf("byte %d flipped: journal reopened, want ErrJournalCorrupt", i)
		}
		if !errors.Is(err, ErrJournalCorrupt) || !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("byte %d flipped: got %v, want ErrJournalCorrupt wrapping wal.ErrCorrupt", i, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, image) {
			t.Fatalf("byte %d flipped: the corrupt journal was modified", i)
		}
	}
}

// TestFileJournalAppendAfterTornTail pins torn-tail truncation: a
// journal whose last entry was torn by a crash is reopened, appended to
// and reopened again — the intact prefix plus the new entry replay. An
// open that leaves the torn bytes in place splices the new entry onto
// garbage, and the second reopen is corrupt or drops the acked entry.
func TestFileJournalAppendAfterTornTail(t *testing.T) {
	path, data := writeJournalFixture(t)
	want := journalFixture()
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	added := JEntry{Kind: jLease, Stamp: 2048}
	if err := j.Append(added); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenFileJournal(path, true)
	if err != nil {
		t.Fatalf("reopen after torn tail + append: %v", err)
	}
	defer j2.Close()
	got, err := j2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want[:len(want)-1:len(want)-1], added)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after torn tail + append:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestFoldJournal pins the latest-wins fold the reopening hub seeds
// itself with.
func TestFoldJournal(t *testing.T) {
	st := FoldJournal(journalFixture())
	if st.Epoch != 3 {
		t.Errorf("epoch %d, want 3", st.Epoch)
	}
	if st.LeaseFloor != 1024 {
		t.Errorf("lease floor %d, want the highest journaled floor 1024", st.LeaseFloor)
	}
}
