package fault

import (
	"os"
	"sync"

	"transproc/internal/metrics"
	"transproc/internal/wal"
)

// WAL is a fault-injectable write-ahead-log wrapper: it delegates to a
// real backend and crashes the run (panics with the Crash sentinel)
// from inside the append that exhausts its record budget. The panic
// fires after the record reached the backend — the write is on disk
// (or in memory) but the caller never observes the append returning,
// exactly the window a torn write lives in; a file-backed scenario can
// then mangle that final record's bytes (Plan.TornTailBytes) before
// recovery reopens the log.
//
// After the trip every further append is dropped: the crashed system
// must not write. Reads pass through so the harness can inspect the
// log; recovery should run against the unwrapped backend (Inner).
type WAL struct {
	inner wal.Log

	mu       sync.Mutex
	budget   int // crash when accepted reaches budget; 0 = never
	accepted int
	tripped  bool
}

// WrapWAL wraps a backend with a crash budget of n accepted records
// (0 disables the budget; the wrapper is then transparent).
func WrapWAL(inner wal.Log, n int) *WAL {
	return &WAL{inner: inner, budget: n}
}

// Inner returns the wrapped backend (for recovery after the crash).
func (w *WAL) Inner() wal.Log { return w.inner }

// Tripped reports whether the budget crash fired.
func (w *WAL) Tripped() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tripped
}

// Release disarms the wrapper: no further crash, appends pass through
// again (used by harnesses that reuse the wrapper across run phases).
func (w *WAL) Release() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.budget = 0
	w.tripped = false
}

// Append delegates to the backend, panicking with the crash sentinel
// on the budget-exhausting record; post-crash appends are dropped
// (LSN 0: the record is in no log).
func (w *WAL) Append(rec wal.Record) (int64, error) { return w.append(rec, w.inner.Append) }

// AppendNoSync implements wal.BatchBackend through the injection seam:
// same budget accounting and crash window as Append, but the record is
// only buffered — a group appender syncs it afterwards.
// When the backend has no batch support it degrades to Append.
func (w *WAL) AppendNoSync(rec wal.Record) (int64, error) {
	if bb, ok := w.inner.(wal.BatchBackend); ok {
		return w.append(rec, bb.AppendNoSync)
	}
	return w.append(rec, w.inner.Append)
}

func (w *WAL) append(rec wal.Record, write func(wal.Record) (int64, error)) (int64, error) {
	w.mu.Lock()
	if w.tripped {
		w.mu.Unlock()
		return 0, nil // the crashed system's writes go nowhere
	}
	lsn, err := write(rec)
	if err != nil {
		w.mu.Unlock()
		return lsn, err
	}
	w.accepted++
	if w.budget > 0 && w.accepted >= w.budget {
		w.tripped = true
		w.mu.Unlock()
		panic(Crash{Point: PointWALAppend})
	}
	w.mu.Unlock()
	return lsn, nil
}

// Sync delegates to the backend's batch support; a tripped wrapper
// syncs nothing (the crashed system must not touch the disk).
func (w *WAL) Sync() error {
	w.mu.Lock()
	tripped := w.tripped
	w.mu.Unlock()
	if tripped {
		return nil
	}
	if bb, ok := w.inner.(wal.BatchBackend); ok {
		return bb.Sync()
	}
	return nil
}

// Records delegates to the backend.
func (w *WAL) Records() ([]wal.Record, error) { return w.inner.Records() }

// Close delegates to the backend.
func (w *WAL) Close() error { return w.inner.Close() }

// SetMetrics forwards the registry to an instrumented backend.
func (w *WAL) SetMetrics(m *metrics.Registry) {
	if il, ok := w.inner.(wal.Instrumented); ok {
		il.SetMetrics(m)
	}
}

// Compact forwards to a compaction-capable backend (the engines see
// the wrapper as their log, so checkpoint-driven compaction must pass
// through the injection seam); a backend without compaction support
// makes it a no-op.
func (w *WAL) Compact(inject func(string)) error {
	if c, ok := w.inner.(wal.Compactor); ok {
		return c.Compact(inject)
	}
	return nil
}

// KillLog is a file log under the model of a process kill: its Append
// returns once the record reached the operating system (AppendNoSync,
// then Sync without fsync), and Kill closes it keeping only what had. A
// record still in the write buffer dies with the process, which Close
// alone would have flushed.
type KillLog struct {
	*wal.FileLog
	path string
}

// OpenKillLog opens (or creates) the file log at path, without fsync.
func OpenKillLog(path string) (*KillLog, error) {
	fl, err := wal.OpenFile(path, false)
	if err != nil {
		return nil, err
	}
	return &KillLog{fl, path}, nil
}

// Append implements wal.Log: acknowledged means in the operating system.
func (l *KillLog) Append(rec wal.Record) (int64, error) {
	lsn, err := l.AppendNoSync(rec)
	if err == nil {
		err = l.Sync()
	}
	return lsn, err
}

// Kill closes the log as a kill would: the file is cut back to what had
// reached the operating system; lost is how many buffered bytes that cost.
func (l *KillLog) Kill() (lost int64, err error) {
	fi, err := os.Stat(l.path)
	if err != nil {
		return 0, err
	}
	if err := l.Close(); err != nil {
		return 0, err
	}
	closed, err := os.Stat(l.path)
	if err != nil {
		return 0, err
	}
	return closed.Size() - fi.Size(), os.Truncate(l.path, fi.Size())
}
