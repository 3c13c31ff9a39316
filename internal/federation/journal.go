package federation

import "sync"

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
// ever read back; the fold ignores it.
const (
	jLease uint8 = 1 // Stamp = new lease floor
	jEpoch uint8 = 3 // Node = epoch
)

// JEntry is one hub-journal record.
type JEntry struct {
	Kind   uint8
	Node   uint32 // epoch (jEpoch)
	Stamp  int64  // lease floor (jLease)
	Origin string // unused since kind 2 went
	Proc   string // likewise
}

// HubJournal is the hub's force-logged side channel. Append must be
// durable when it returns (force semantics); Entries replays the
// intact prefix after a crash.
type HubJournal interface {
	Append(e JEntry) error
	Entries() ([]JEntry, error)
	Close() error
}

// MemJournal is the in-memory journal every cluster runs with: a hub
// kill loses the hub's memory but not its journal, which the cluster
// keeps and hands to the reopened hub.
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
