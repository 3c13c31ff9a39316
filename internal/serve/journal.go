// The intake journal is the server's durable record of *what was
// admitted*: the WAL records what the engines did, but its records
// carry no process structure, and scheduler.Recover needs the
// definition of every process mentioned in the log. The server
// therefore force-logs each accepted submission (tenant, idempotency
// key, declarative process spec) to an append-only journal — JSON
// entries in a wal.FrameFile, the one log format of DESIGN.md §6k —
// fsynced before the submission is enqueued, so by induction every
// process the WAL can mention is rebuildable after a crash. A second
// entry kind ("done") seals a submission once its fate is final; on
// restart, journaled submissions without a seal and without a
// committed WAL fold are the resume set.
package serve

import (
	"encoding/json"
	"fmt"
	"sync"

	"transproc/internal/spec"
	"transproc/internal/wal"
)

// JournalEntry is one line of the intake journal.
type JournalEntry struct {
	Seq    int64  `json:"seq"`
	ID     string `json:"id"` // origin process id ("tenant/name")
	Tenant string `json:"tenant,omitempty"`
	Key    string `json:"key,omitempty"` // idempotency key
	// Proc is set on submission entries.
	Proc *spec.ProcessSpec `json:"proc,omitempty"`
	// Done seals the submission with its final fate.
	Done      bool `json:"done,omitempty"`
	Committed bool `json:"committed,omitempty"`
}

// journal is the append-only intake log. Every append is fsynced
// before it returns — the force-log discipline of the WAL applied to
// admissions.
type journal struct {
	mu   sync.Mutex
	ff   *wal.FrameFile // nil once closed
	next int64
}

// openJournal opens (creating if absent) the journal and replays it.
// A torn final entry is dropped; any other damage is wal.ErrCorrupt.
func openJournal(path string) (*journal, []JournalEntry, error) {
	var entries []JournalEntry
	ff, err := wal.OpenFrameFile(path, true, func(p []byte) error {
		var e JournalEntry
		if err := json.Unmarshal(p, &e); err != nil {
			return err
		}
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: intake journal: %w", err)
	}
	j := &journal{ff: ff}
	if n := len(entries); n > 0 {
		j.next = entries[n-1].Seq
	}
	return j, entries, nil
}

// append force-logs one entry. The assigned sequence number is stored
// into e.
func (j *journal) append(e *JournalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ff == nil {
		return fmt.Errorf("serve: journal closed")
	}
	j.next++
	e.Seq = j.next
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if err = j.ff.Append(b); err == nil {
		err = j.ff.Sync()
	}
	if err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	return nil
}

// close syncs and closes the file. A crashed server never calls this —
// the file descriptor is abandoned, as a kill -9 would leave it.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ff == nil {
		return nil
	}
	err := j.ff.Close()
	j.ff = nil
	return err
}
