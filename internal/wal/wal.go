// Package wal provides the process scheduler's write-ahead log: every
// scheduling decision and termination is recorded before it takes
// effect, so that after a crash the recovery manager can reconstruct the
// state of every active process and execute the group abort
// A(P_{n_1} … P_{n_s}) of Definition 8.2b — completing B-REC processes
// backward and F-REC processes forward. On disk the log is a FrameFile
// (framefile.go; DESIGN.md §6k, "one log format"), as are the serve
// intake journal and the hub journal; a WAL frame holds one record (codec.go).
package wal

import (
	"errors"
	"fmt"
	"sync"

	"transproc/internal/chunk"
	"transproc/internal/metrics"
)

// RecType classifies log records.
type RecType int

const (
	// RecStart: a process was admitted.
	RecStart RecType = iota
	// RecDispatch: an activity invocation was sent to a subsystem.
	RecDispatch
	// RecOutcome: an invocation terminated (committed, aborted or
	// prepared with a transaction id for later 2PC resolution).
	RecOutcome
	// RecCompensate: a compensating activity committed.
	RecCompensate
	// RecFailed: an activity failed permanently (Definition 4).
	RecFailed
	// RecAbortBegin: the abort A_i of a process began.
	RecAbortBegin
	// RecDecision: the 2PC commit decision for a process's prepared
	// transactions was taken (the atomic commit of all
	// non-compensatable activities, Section 3.5).
	RecDecision
	// RecResolved: one prepared transaction was committed or rolled
	// back at its subsystem.
	RecResolved
	// RecTerminate: the process terminated (C_i, or abort completion).
	RecTerminate
	// RecCheckpoint: a fuzzy checkpoint — the record carries a
	// Checkpoint payload summarizing everything before its horizon
	// (see checkpoint.go). Appended last so the on-disk numeric values
	// of the earlier types never change.
	RecCheckpoint
)

// String returns a short label.
func (t RecType) String() string {
	switch t {
	case RecStart:
		return "start"
	case RecDispatch:
		return "dispatch"
	case RecOutcome:
		return "outcome"
	case RecCompensate:
		return "compensate"
	case RecFailed:
		return "failed"
	case RecAbortBegin:
		return "abort-begin"
	case RecDecision:
		return "decision"
	case RecResolved:
		return "resolved"
	case RecTerminate:
		return "terminate"
	case RecCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("RecType(%d)", int(t))
	}
}

// Record is one log entry.
type Record struct {
	LSN       int64   `json:"lsn"`
	Type      RecType `json:"type"`
	Proc      string  `json:"proc"`
	Local     int     `json:"local,omitempty"`
	Service   string  `json:"service,omitempty"`
	Subsystem string  `json:"subsystem,omitempty"`
	Tx        int64   `json:"tx,omitempty"`
	// Outcome for RecOutcome: "committed", "aborted", "prepared".
	Outcome string `json:"outcome,omitempty"`
	// Committed for RecTerminate: regular C_i vs abort completion.
	Committed bool `json:"committed,omitempty"`
	// Commit for RecResolved: the prepared transaction was committed
	// (true) or rolled back (false).
	Commit bool `json:"commit,omitempty"`
	// Checkpoint is the payload of a RecCheckpoint record.
	Checkpoint *Checkpoint `json:"ckpt,omitempty"`
	// Stamp is the hub-issued global sequence number of a federation
	// record. Scheduler nodes log into per-node WALs; the stitcher
	// merges them into one global history by sorting on Stamp (every
	// state transition obtains its stamp inside the hub's serial
	// section, so stamps totally order the cross-node history).
	// Zero for single-node logs and for records appended by recovery.
	Stamp int64 `json:"stamp,omitempty"`
}

// WriteAhead reports a record a subsystem commit follows, which must
// therefore be durable before its transition goes on: a "prepared"
// outcome, a recovery-step record (RecCompensate, or the "committed"
// outcome of a forward step), the 2PC decision. Every other record may
// be lost with a crash; recovery then redoes or presumes what it
// announced (DESIGN.md §6l).
func (r Record) WriteAhead() bool {
	return r.Type == RecDecision || r.Type == RecCompensate ||
		r.Type == RecOutcome && r.Outcome != "aborted"
}

// Commits reports a record that commits an activity: a committed
// outcome, or a committing resolution of a prepared one.
func (r *Record) Commits() bool {
	return r.Type == RecOutcome && r.Outcome == "committed" || r.Type == RecResolved && r.Commit
}

// Log is an append-only record log. MemLog and FileLog are the default
// implementations; the interface is also the seam for fault injection —
// a wrapper (internal/fault) can interpose on Append to simulate crashes
// and torn writes while delegating to a real log underneath.
type Log interface {
	// Append writes a record (assigning its LSN) and returns the LSN.
	Append(Record) (int64, error)
	// Records returns all records in order.
	Records() ([]Record, error)
	// Close releases resources.
	Close() error
}

// Instrumented is implemented by logs that can record append/fsync
// counters into a metrics registry.
type Instrumented interface {
	SetMetrics(*metrics.Registry)
}

// MemLog is an in-memory Log, useful for tests and simulations. Its
// records sit in a chunk list: an append never copies the ones before.
type MemLog struct {
	mu   sync.Mutex
	recs chunk.List[Record]
	next int64
	m    *metrics.Registry
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// SetMetrics attaches a registry; appends are counted into it.
func (l *MemLog) SetMetrics(m *metrics.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m = m
}

// Append implements Log.
func (l *MemLog) Append(r Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	r.LSN = l.next
	l.recs.Append(r)
	l.m.Inc(metrics.WALAppends)
	return r.LSN, nil
}

// AppendNoSync implements BatchBackend; memory has no sync phase, so
// it is Append.
func (l *MemLog) AppendNoSync(r Record) (int64, error) { return l.Append(r) }

// Sync implements BatchBackend (no-op).
func (l *MemLog) Sync() error { return nil }

// Records implements Log.
func (l *MemLog) Records() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs.AppendTo(nil), nil
}

// Close implements Log.
func (l *MemLog) Close() error { return nil }

// FileLog is the file-backed Log: one record per FrameFile frame (codec.go).
type FileLog struct {
	mu   sync.Mutex
	ff   *FrameFile
	next int64
	// opened is OpenFile's walk of the file: the image it read and checked
	// and the replay view it folded (replay.go), kept for the first read
	// and dropped by it, by an append, a compaction or a close.
	opened *walk
	sync   bool
	m      *metrics.Registry
}

// SetMetrics attaches a registry; appends, written bytes and fsyncs are
// counted into it.
func (l *FileLog) SetMetrics(m *metrics.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m = m
}

// OpenFile opens (or creates) a file log at path. When syncEvery is
// true every append is flushed and fsynced — the write-ahead guarantee;
// false trades durability for speed in simulations: an append stays in
// the write buffer, not even in the OS, until a Sync. A torn tail is
// truncated away; any other damage, or a file in another format, is
// ErrCorrupt and the file is left untouched (see OpenFrameFile).
func OpenFile(path string, syncEvery bool) (*FileLog, error) {
	var w *walk
	ff, image, err := openFrameFile(path, syncEvery, func(data []byte) (int, error) {
		w = newWalk(data)
		return walkFrames(data, w.frame)
	})
	if err != nil {
		return nil, err
	}
	l := &FileLog{ff: ff, next: w.next, sync: syncEvery}
	if image != nil {
		w.v.image, l.opened = image, w
	}
	return l, nil
}

// Append implements Log.
func (l *FileLog) Append(r Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn, err := l.appendLocked(r)
	if err == nil && l.sync {
		err = l.syncLocked()
	}
	return lsn, err
}

// AppendNoSync implements BatchBackend: the record reaches the
// buffered writer only — a group appender makes everything written
// durable with one Sync.
func (l *FileLog) AppendNoSync(r Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(r)
}

func (l *FileLog) appendLocked(r Record) (int64, error) {
	l.opened = nil
	r.LSN = l.next + 1
	b, err := encodeRecord(&r)
	if err != nil {
		return 0, err
	}
	if err := l.ff.Append(b); err != nil {
		return 0, err
	}
	l.next = r.LSN
	l.m.Inc(metrics.WALAppends)
	l.m.Add(metrics.WALBytes, int64(frameHeader+len(b)))
	return r.LSN, nil
}

// contents returns the file's frames: the image OpenFile kept, which
// it drops, or else the file read anew.
func (l *FileLog) contents() ([]byte, error) {
	if w := l.opened; w != nil {
		l.opened = nil
		return w.v.image, nil
	}
	return l.ff.contents()
}

// walked returns a walk of the file (replay.go): the one OpenFile kept,
// which it drops, or else one of the file read anew.
func (l *FileLog) walked() (*walk, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if w := l.opened; w != nil {
		l.opened = nil
		return w, nil
	}
	image, err := l.ff.contents()
	if err != nil {
		return nil, err
	}
	w := newWalk(image)
	return w, l.ff.scan(image, w.frame)
}

// Sync implements BatchBackend: flush the buffered tail to the OS and,
// under syncEvery, fsync it. Under syncEvery=false Append does neither:
// its record stays in the buffer until a Sync, Records or Close.
func (l *FileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *FileLog) syncLocked() error {
	if err := l.ff.Sync(); err != nil {
		return err
	}
	if l.sync {
		l.m.Inc(metrics.WALFsyncs)
	}
	return nil
}

// Records implements Log.
func (l *FileLog) Records() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recordsLocked()
}

func (l *FileLog) recordsLocked() ([]Record, error) {
	image, err := l.contents()
	if err != nil {
		return nil, err
	}
	out := make([]Record, 0, frameCount(image))
	err = l.ff.scan(image, func(p []byte) error {
		r, err := decodeRecord(p)
		if err != nil {
			return err
		}
		out = append(out, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close implements Log. Under syncEvery the buffered tail is fsynced,
// not merely flushed to the OS, before the descriptor closes.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.opened = nil
	err := l.ff.Close()
	if err == nil && l.sync {
		l.m.Inc(metrics.WALFsyncs)
	}
	return err
}

// ErrNoLog marks analysis of an empty log.
var ErrNoLog = errors.New("wal: no records")

// ProcImage is the reconstructed state of one process after a crash.
type ProcImage struct {
	Proc string
	// Committed activities (local ids) in commit order.
	Committed []int
	// Compensated activities.
	Compensated []int
	// Failed activities.
	Failed []int
	// Prepared holds in-doubt transactions keyed by local id; nil when
	// the process prepared none.
	Prepared map[int]PreparedTx
	// Decided is set when a 2PC commit decision was logged but not all
	// RecResolved records followed: recovery must re-commit the
	// prepared transactions (presumed commit after decision).
	Decided bool
	// Resolved holds local ids whose prepared transaction was resolved;
	// nil when none was.
	Resolved map[int]bool
	// Aborting is true when RecAbortBegin was logged without a
	// RecTerminate.
	Aborting bool
	// RedoCommit lists transactions the log shows as committed — a
	// RecResolved with Commit set, or a committed step outcome carrying
	// its transaction id. If such a transaction is still in doubt at
	// its subsystem after a crash (the crash hit the window between the
	// force-log and the subsystem-side apply), recovery must redo the
	// commit instead of presuming abort.
	RedoCommit []PreparedTx
	// Terminated and TerminatedCommitted mirror RecTerminate.
	Terminated          bool
	TerminatedCommitted bool
	// Stands is set when the process terminated committed, or when an
	// activity it committed was never compensated. For a terminated
	// incarnation it is the verdict on its forward work: an abort past
	// the pivot completed forward leaves a terminate record that reads
	// like a backward one's, and only Stands tells them apart.
	Stands bool
}

// PreparedTx identifies an in-doubt transaction at a subsystem.
type PreparedTx struct {
	Subsystem string
	Tx        int64
	Service   string
}

// Analyze folds a record list into per-process images (the fold of
// replay.go, the one image transition). Processes that already
// terminated are included with Terminated set; the caller selects the
// active ones for the group abort.
func Analyze(recs []Record) (map[string]*ProcImage, error) {
	if len(recs) == 0 {
		return nil, ErrNoLog
	}
	f := newFold(true)
	for i := range recs {
		f.add(&recs[i])
	}
	return f.images(), nil
}
