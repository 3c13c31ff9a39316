package federation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"transproc/internal/wal"
)

// The hub journal persists the two facts only the hub knows and that the
// stitched per-node WALs cannot reconstruct:
//
//   - stamp leases: before the hub issues a stamp past the journaled
//     floor it force-logs a new floor one chunk ahead, so a restarted
//     hub resumes the counter strictly above every stamp it may ever
//     have handed out — issued-but-unacked stamps are never reissued
//     and plain stamp sorting of the stitched history stays total;
//   - the epoch: a monotone hub-incarnation counter bumped on every
//     reopen; frames from a previous epoch bounce with StStale.
//
// Everything else (policy events, phases, 2PC decisions, who owned
// what) is rebuilt from the stitched WALs by scheduler.Recover and the
// nodes' re-attachment — see recover.go.

// Journal entry kinds. Kind 2 was a per-admission ownership row nothing
// ever read back; the decoder still accepts it (journals written before
// it went) and the fold ignores it.
const (
	jLease uint8 = 1 // Stamp = new lease floor
	jEpoch uint8 = 3 // Node = epoch
)

// JEntry is one hub-journal record.
type JEntry struct {
	Kind    uint8
	Node    uint32 // epoch (jEpoch)
	Stamp   int64  // lease floor (jLease)
	Arrival int64  // unused since kind 2 went; kept for the file format
	Origin  string // likewise
	Proc    string // likewise
}

// HubJournal is the hub's force-logged side channel. Append must be
// durable when it returns (force semantics); Entries replays the
// intact prefix after a crash.
type HubJournal interface {
	Append(e JEntry) error
	Entries() ([]JEntry, error)
	Close() error
}

// MemJournal is the in-memory journal used by tests and by clusters
// whose hub-crash model snapshots the journal at kill time.
type MemJournal struct {
	mu      sync.Mutex
	entries []JEntry
}

// NewMemJournal returns an empty in-memory journal.
func NewMemJournal() *MemJournal { return &MemJournal{} }

// Append records the entry.
func (j *MemJournal) Append(e JEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries = append(j.entries, e)
	return nil
}

// Entries returns a copy of the journal.
func (j *MemJournal) Entries() ([]JEntry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JEntry, len(j.entries))
	copy(out, j.entries)
	return out, nil
}

// Close is a no-op.
func (j *MemJournal) Close() error { return nil }

// FileJournal force-logs entries to a wal.FrameFile (the one log format
// of DESIGN.md §6k), fsyncing each append: a torn final entry is
// dropped on open, any other damage is ErrJournalCorrupt.
type FileJournal struct {
	mu sync.Mutex
	ff *wal.FrameFile
}

// ErrJournalCorrupt reports damage to the hub journal that is not a
// torn tail.
var ErrJournalCorrupt = fmt.Errorf("federation: hub journal corrupt: %w", wal.ErrCorrupt)

// journalErr marks corruption found by the frame file as the journal's.
func journalErr(err error) error {
	if errors.Is(err, wal.ErrCorrupt) {
		return fmt.Errorf("%w: %v", ErrJournalCorrupt, err)
	}
	return err
}

// OpenFileJournal opens (creating if needed) an append-only journal
// file. When noSync is true fsync is skipped (test speed).
func OpenFileJournal(path string, noSync bool) (*FileJournal, error) {
	ff, err := wal.OpenFrameFile(path, !noSync, func(p []byte) error {
		_, err := decodeJEntry(p)
		return err
	})
	if err != nil {
		return nil, journalErr(err)
	}
	return &FileJournal{ff: ff}, nil
}

// encodeJEntry serializes one entry as a frame payload.
func encodeJEntry(e JEntry) []byte {
	b := make([]byte, 0, 32+len(e.Origin)+len(e.Proc))
	b = append(b, e.Kind)
	b = binary.LittleEndian.AppendUint32(b, e.Node)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Stamp))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Arrival))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Origin)))
	b = append(b, e.Origin...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Proc)))
	b = append(b, e.Proc...)
	return b
}

// decodeJEntry parses one frame payload.
func decodeJEntry(b []byte) (JEntry, error) {
	var e JEntry
	if len(b) < 21 {
		return e, ErrTruncated
	}
	e.Kind = b[0]
	e.Node = binary.LittleEndian.Uint32(b[1:])
	e.Stamp = int64(binary.LittleEndian.Uint64(b[5:]))
	e.Arrival = int64(binary.LittleEndian.Uint64(b[13:]))
	rest := b[21:]
	for _, dst := range []*string{&e.Origin, &e.Proc} {
		if len(rest) < 2 {
			return e, ErrTruncated
		}
		n := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < n {
			return e, ErrTruncated
		}
		*dst = string(rest[:n])
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return e, ErrTrailing
	}
	return e, nil
}

// Append force-logs one entry.
func (j *FileJournal) Append(e JEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ff.Append(encodeJEntry(e)); err != nil {
		return err
	}
	return j.ff.Sync()
}

// Entries replays the journal from the start.
func (j *FileJournal) Entries() ([]JEntry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []JEntry
	err := j.ff.Scan(func(p []byte) error {
		e, err := decodeJEntry(p)
		if err != nil {
			return err
		}
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, journalErr(err)
	}
	return out, nil
}

// Close closes the underlying file.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ff.Close()
}

// JournalState is the fold of a journal replay: the facts a reopening
// hub seeds itself with before consuming the stitched WALs.
type JournalState struct {
	Epoch      uint32
	LeaseFloor int64
}

// FoldJournal replays entries into the latest-wins state.
func FoldJournal(entries []JEntry) JournalState {
	var st JournalState
	for _, e := range entries {
		switch e.Kind {
		case jLease:
			if e.Stamp > st.LeaseFloor {
				st.LeaseFloor = e.Stamp
			}
		case jEpoch:
			if e.Node > st.Epoch {
				st.Epoch = e.Node
			}
		}
	}
	return st
}
