package wal

import (
	"sync"

	"transproc/internal/metrics"
)

// PointGroupFsync is the named crash point a group sync fires before it
// syncs what was written. A crash here must lose at most records no
// Append acknowledged (Append only returns after a sync covered its
// record), so recovery sees a log that is merely a little shorter.
const PointGroupFsync = "wal:group-fsync"

// GroupCommit configures the group appender of the sequential engine.
// The zero value disables it (the engine then uses the log directly).
type GroupCommit struct {
	// MaxBatch, when positive, enables group commit. It caps nothing: a
	// sync covers everything written before it began.
	MaxBatch int
}

// Enabled reports whether the configuration asks for group commit.
func (g GroupCommit) Enabled() bool { return g.MaxBatch > 0 }

// BatchBackend is the two-phase append a group appender prefers: write
// several records, then make them all durable with one Sync. Backends
// without it still work — each record is then appended on its own.
type BatchBackend interface {
	// AppendNoSync writes a record (assigning its LSN) without forcing
	// it to stable storage.
	AppendNoSync(Record) (int64, error)
	// Sync makes everything appended so far durable.
	Sync() error
}

// Buffered reports whether a log's writes need a Sync to become
// durable: it has the two-phase append and is not a MemLog, whose
// Append is as durable as memory gets.
func Buffered(l Log) bool {
	_, mem := l.(*MemLog)
	_, bb := l.(BatchBackend)
	return bb && !mem
}

// GroupAppender is the log as an ordered write plus a shared-sync
// watermark. AppendNoSync writes a record in call order without waiting;
// WaitDurable returns once a sync covered an LSN. Concurrent waiters share
// one Sync: the first to find none running syncs everything written so
// far, the others wait for it — and for the next one, when their record
// came after it began — so the sync cost is paid once per group of
// waiters. Append is AppendNoSync then WaitDurable: no ack before
// durability.
//
// Crash injection: a sentinel panic raised by a sync (from the backend's
// budget wrapper or from the PointGroupFsync hook) is handed to every
// waiter, each re-raising it in its own stack as if it had synced itself,
// and every later call raises it too: the crashed appender writes
// nothing more. A sentinel raised by a write reaches its caller
// directly (the wrapper that raised it drops later writes itself).
//
// The appender implements Log, Instrumented and Compactor, so the
// engines can use it wherever they used the raw log — checkpointing and
// compaction keep hooking the single logical append stream.
type GroupAppender struct {
	inner  Log
	bb     BatchBackend // nil: each record is appended on its own
	inject func(string)

	mu               sync.Mutex
	synced           sync.Cond // broadcast when a sync ends
	written, durable int64     // highest LSN written / covered by a sync
	unsynced         int       // records written since the last sync began
	syncing          bool
	crashed          any // sticky crash sentinel; nil while healthy
	m                *metrics.Registry
}

// NewGroupAppender wraps a log with group commit (cfg only enables it).
// inject (may be nil) receives PointGroupFsync before every sync.
func NewGroupAppender(inner Log, cfg GroupCommit, inject func(string)) *GroupAppender {
	g := &GroupAppender{inner: inner, inject: inject}
	g.bb, _ = inner.(BatchBackend)
	g.synced.L = &g.mu
	return g
}

// Inner returns the wrapped log.
func (g *GroupAppender) Inner() Log { return g.inner }

// SetMetrics attaches a registry (sync counters here, append counters
// in the backend).
func (g *GroupAppender) SetMetrics(m *metrics.Registry) {
	g.mu.Lock()
	g.m = m
	g.mu.Unlock()
	if il, ok := g.inner.(Instrumented); ok {
		il.SetMetrics(m)
	}
}

// Append implements Log: write, then return once a sync covered the
// record.
func (g *GroupAppender) Append(rec Record) (int64, error) {
	lsn, err := g.AppendNoSync(rec)
	if err == nil {
		err = g.WaitDurable(lsn)
	}
	return lsn, err
}

// AppendNoSync writes a record after every record written before it,
// without waiting for a sync.
func (g *GroupAppender) AppendNoSync(rec Record) (int64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.crashed != nil {
		panic(g.crashed)
	}
	write := g.inner.Append
	if g.bb != nil {
		write = g.bb.AppendNoSync
	}
	lsn, err := write(rec)
	if err == nil && lsn > g.written {
		g.written = lsn
		g.unsynced++
	}
	return lsn, err
}

// Sync makes everything written so far durable.
func (g *GroupAppender) Sync() error {
	g.mu.Lock()
	lsn := g.written
	g.mu.Unlock()
	return g.WaitDurable(lsn)
}

// WaitDurable returns once a sync covered lsn, syncing itself when no
// sync is running.
func (g *GroupAppender) WaitDurable(lsn int64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.durable < lsn {
		switch {
		case g.crashed != nil:
			panic(g.crashed)
		case g.syncing:
			g.synced.Wait()
		default:
			if err := g.syncLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// syncLocked syncs everything written so far. The backend's Sync runs
// without mu, so writers and new waiters keep coming while it does.
// Called and returns with mu held.
func (g *GroupAppender) syncLocked() error {
	target, n := g.written, g.unsynced
	g.syncing, g.unsynced = true, 0
	g.mu.Unlock()
	crash, err := g.syncBackend()
	g.mu.Lock()
	g.syncing = false
	g.synced.Broadcast()
	switch {
	case crash != nil:
		g.crashed = crash
		panic(crash)
	case err != nil:
		g.unsynced += n
		return err
	}
	g.durable = target
	g.m.Inc(metrics.WALGroupBatches)
	g.m.Observe(metrics.HistWALBatch, int64(n))
	if g.bb != nil && n > 1 {
		g.m.Add(metrics.WALFsyncsSaved, int64(n-1))
	}
	return nil
}

// syncBackend fires the crash point and syncs, catching a crash sentinel.
func (g *GroupAppender) syncBackend() (crash any, err error) {
	defer func() { crash = recover() }()
	if g.inject != nil {
		g.inject(PointGroupFsync)
	}
	if g.bb != nil {
		err = g.bb.Sync()
	}
	return nil, err
}

// Records implements Log.
func (g *GroupAppender) Records() ([]Record, error) { return g.inner.Records() }

// Close implements Log.
func (g *GroupAppender) Close() error { return g.inner.Close() }

// Compact forwards to a compaction-capable backend.
func (g *GroupAppender) Compact(inject func(string)) error {
	if c, ok := g.inner.(Compactor); ok {
		return c.Compact(inject)
	}
	return nil
}
