package main

import (
	"sync"
	"sync/atomic"
	"time"

	"transproc/internal/federation"
	"transproc/internal/metrics"
	"transproc/internal/store"
	"transproc/internal/wal"
)

// meter accumulates the calls one decorator saw: each call's duration
// (for percentiles), their sum (busy time) and, when the scope traces,
// one span per call under the scope's parent.
type meter struct {
	name string

	mu    sync.Mutex
	sc    scope
	calls []time.Duration
	busy  time.Duration
}

// attach points the meter's spans at a new parent (the run span of the
// rep that is about to start).
func (m *meter) attach(sc scope) {
	m.mu.Lock()
	m.sc = sc
	m.mu.Unlock()
}

func (m *meter) time(f func()) {
	m.mu.Lock()
	sc := m.sc
	m.mu.Unlock()
	_, end := sc.begin(m.name)
	f()
	d := end()
	m.mu.Lock()
	m.calls = append(m.calls, d)
	m.busy += d
	m.mu.Unlock()
}

func (m *meter) snapshot() (calls []time.Duration, busy time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]time.Duration(nil), m.calls...), m.busy
}

// batchLog is what both real logs offer: the Log plus the two-phase
// append the group-commit leader prefers.
type batchLog interface {
	wal.Log
	wal.BatchBackend
}

// timedLog is the timing wal.Log decorator. It forwards every call and
// result unchanged and meters Append; Records and Close pass through
// unmetered (they are not on the append path). It keeps the inner log's
// registry hook visible so the engines treat it like the log it wraps.
// On its own it measures caller-visible Append latency in front of a
// group appender, which is a Log but not a BatchBackend.
type timedLog struct {
	inner wal.Log
	m     *meter
}

func (l *timedLog) Append(r wal.Record) (lsn int64, err error) {
	l.m.time(func() { lsn, err = l.inner.Append(r) })
	return
}

func (l *timedLog) Records() ([]wal.Record, error) { return l.inner.Records() }
func (l *timedLog) Close() error                   { return l.inner.Close() }

func (l *timedLog) SetMetrics(reg *metrics.Registry) {
	if il, ok := l.inner.(wal.Instrumented); ok {
		il.SetMetrics(reg)
	}
}

// timedBatchLog decorates a log at device level: it also meters the
// buffered write and the sync a group-commit leader calls.
type timedBatchLog struct {
	timedLog
	batch wal.BatchBackend
}

func newTimedBatchLog(inner batchLog, m *meter) *timedBatchLog {
	return &timedBatchLog{timedLog: timedLog{inner: inner, m: m}, batch: inner}
}

func (l *timedBatchLog) AppendNoSync(r wal.Record) (lsn int64, err error) {
	l.m.time(func() { lsn, err = l.batch.AppendNoSync(r) })
	return
}

func (l *timedBatchLog) Sync() (err error) {
	l.m.time(func() { err = l.batch.Sync() })
	return
}

// timedJournal is the timing federation.HubJournal decorator.
type timedJournal struct {
	inner federation.HubJournal
	m     *meter
}

func (j *timedJournal) Append(e federation.JEntry) (err error) {
	j.m.time(func() { err = j.inner.Append(e) })
	return
}

func (j *timedJournal) Entries() ([]federation.JEntry, error) { return j.inner.Entries() }
func (j *timedJournal) Close() error                          { return j.inner.Close() }

// timedDevice meters the page I/O of one heap file; writes counts the
// pages that reached the device.
type timedDevice struct {
	inner store.Device
	m     *meter

	mu     sync.Mutex
	writes int
}

func (d *timedDevice) ReadPage(id store.PageID, buf []byte) (err error) {
	d.m.time(func() { err = d.inner.ReadPage(id, buf) })
	return
}

func (d *timedDevice) WritePage(id store.PageID, buf []byte) (err error) {
	d.m.time(func() { err = d.inner.WritePage(id, buf) })
	d.mu.Lock()
	d.writes++
	d.mu.Unlock()
	return
}

func (d *timedDevice) Sync() (err error) {
	d.m.time(func() { err = d.inner.Sync() })
	return
}

func (d *timedDevice) Pages() (int, error) { return d.inner.Pages() }
func (d *timedDevice) Close() error        { return d.inner.Close() }

func (d *timedDevice) pageWrites() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// modelSyncLatency is what one sync of the modelled device costs. The
// rt-durable workload waits for the device nine tenths of its time, and
// this host's device is shared: over ten runs of the same code the
// fastest rep of a run took 184 to 317 ms and the whole distribution
// moved with it, for minutes at a time. So the workload keeps its
// shape — a sync per commit group, a sync per store flush, each costing
// far more than the processor work between them — on a device whose
// latency is fixed: the files are written through to the operating
// system as before, and in place of the fsync the caller spins for
// modelSyncLatency (a sleep that short wakes 0.2–0.9 ms late here). The
// real device's latency is reported by wal.append_fsync_us.
const modelSyncLatency = 100 * time.Microsecond

// modelSyncs counts the syncs of one rep's modelled device, so that the
// time it cost, which no processor speed changes, is known exactly.
type modelSyncs struct{ n atomic.Int64 }

func (c *modelSyncs) sync() {
	c.n.Add(1)
	for start := time.Now(); time.Since(start) < modelSyncLatency; {
	}
}

func (c *modelSyncs) busy() time.Duration { return time.Duration(c.n.Load()) * modelSyncLatency }

// modelLog is a file log (opened without fsync) on the modelled device.
type modelLog struct {
	*wal.FileLog
	dev *modelSyncs
}

func (l modelLog) Sync() error {
	if err := l.FileLog.Sync(); err != nil { // flushes to the operating system
		return err
	}
	l.dev.sync()
	return nil
}

func (l modelLog) Append(r wal.Record) (int64, error) {
	lsn, err := l.FileLog.AppendNoSync(r)
	if err != nil {
		return 0, err
	}
	return lsn, l.Sync()
}

// modelDevice is a heap file on the modelled device.
type modelDevice struct {
	store.Device
	dev *modelSyncs
}

func (d modelDevice) Sync() error {
	d.dev.sync()
	return nil
}
