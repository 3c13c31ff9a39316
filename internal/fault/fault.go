// Package fault is a library of deterministic crash faults and
// recovery judges. Faults: a seedable Plan arms an Injector that crashes
// a run at a named point (around force-log writes, mid-2PC, at
// dispatch, inside a checkpoint, a store flush, a hub handler, an HTTP
// request), and WrapWAL crashes it after a record budget. Judges:
// CheckRecovered and CheckDurableStores hold a recovered system to the
// paper's guarantees (prefix-reducible combined schedule, every process
// terminal, compensations in reverse base order per Lemma 2, idempotent
// recovery, exactly-once subsystem effects, byte-identical durable
// pages), over the schedule ScheduleFromWAL reconstructs.
//
// No product package imports this one (DESIGN.md §6m). Product code
// fires the point names it declares through an injected
// func(point string) and reaches its log through wal.Log; a battery
// (internal/battery) or a benchmark hands it Injector.Point or a
// wrapped log. Crashes are simulated by panicking with the Crash
// sentinel, which the hosts recognize structurally (interface{
// InjectedCrash() string }, scheduler.OnInjectedCrash), convert into
// their own "crashed" state and stop; log and subsystem state survive
// for scheduler.Recover.
package fault

import (
	"fmt"
	"sync"

	"transproc/internal/store"
	"transproc/internal/wal"
)

// The crash point names of the engines, the WAL and the stores, gathered
// for fault plans. Each is declared (or written as a literal) by the
// package that fires it; federation.Point* and serve.Point* are used
// from there.
const (
	// PointBeforeForceLog / PointAfterForceLog bracket every force-log
	// write of the sequential scheduler.
	PointBeforeForceLog = "sched:before-forcelog"
	PointAfterForceLog  = "sched:after-forcelog"
	// PointAfterDecision fires right after the 2PC decision record,
	// before any participant commits; PointMidResolve between the first
	// and second participant commit.
	PointAfterDecision = "twopc:after-decision"
	PointMidResolve    = "twopc:mid-resolve"
	// PointDispatch fires in the concurrent runtime's dispatch gate,
	// just before an invocation is registered and issued.
	PointDispatch = "runtime:dispatch"
	// PointWALAppend is reported by the fault WAL wrapper when its
	// record budget trips.
	PointWALAppend = "wal:append"
	// Checkpoint/compaction crash points (defined in internal/wal and
	// re-exported here): before the checkpoint build, before the
	// checkpoint record append, between the compacted temp file and the
	// rename, and between the rename and the parent-directory fsync.
	PointCheckpointBuild  = wal.PointCheckpointBuild
	PointCheckpointAppend = wal.PointCheckpointAppend
	PointCompactRename    = wal.PointCompactRename
	PointCompactDirSync   = wal.PointCompactDirSync
	// PointGroupFsync fires before a group appender's shared sync; a
	// crash there loses only unacked records.
	PointGroupFsync = wal.PointGroupFsync
	// Durable-store crash points (defined in internal/store): before a
	// buffer-pool page write, before the flush fsync, before a
	// dirty-victim eviction write-back, and before allocating a fresh
	// heap page.
	PointStorePageWrite = store.PointPageWrite
	PointStorePageFsync = store.PointPageFsync
	PointStoreEvict     = store.PointEvict
	PointStoreAlloc     = store.PointAlloc
)

// Crash is the sentinel an armed fault panics with. The engines
// recover it by its InjectedCrash method, so this package stays a leaf
// dependency.
type Crash struct {
	Point string // the crash point that tripped
}

// InjectedCrash names the crash point; its presence (not the package
// type) is what the engines test for.
func (c Crash) InjectedCrash() string { return c.Point }

// Error makes the sentinel printable when it escapes un-recovered.
func (c Crash) Error() string { return fmt.Sprintf("fault: injected crash at %s", c.Point) }

// AsCrash reports whether a recovered panic value is a crash sentinel.
func AsCrash(v any) (Crash, bool) {
	switch c := v.(type) {
	case Crash:
		return c, true
	case interface{ InjectedCrash() string }:
		return Crash{Point: c.InjectedCrash()}, true
	}
	return Crash{}, false
}

// SubsystemFail arms a deterministic permanent failure: every
// invocation of Service on behalf of (origin) process Proc fails. It
// mirrors the differential battery's failure rules, so a scenario's
// process fates are a function of the plan, not of interleaving.
type SubsystemFail struct {
	Proc    string
	Service string
}

// Plan is a deterministic, seedable fault scenario. The zero value
// injects nothing.
type Plan struct {
	// Seed identifies the scenario; a battery derives the workload and
	// every random choice from it.
	Seed int64
	// CrashAfterWALRecords crashes the run when the WAL has accepted
	// that many records (the fault WAL wrapper panics from inside the
	// append, so the caller never observes the write as durable).
	CrashAfterWALRecords int
	// TornTailBytes, for file-backed scenarios, mangles that many bytes
	// of the final (in-flight) record after the crash — a torn write.
	// Only the record whose append crashed is affected.
	TornTailBytes int
	// CrashAtPoint crashes at the CrashAtCount-th (1-based; 0 means
	// first) hit of the named crash point.
	CrashAtPoint string
	CrashAtCount int
	// KillAtDispatch crashes at the K-th dispatch gate
	// (PointDispatch); shorthand for CrashAtPoint/CrashAtCount.
	KillAtDispatch int
	// SubsystemFail arms deterministic permanent service failures.
	SubsystemFail []SubsystemFail
}

// Injector counts crash-point hits and panics with the Crash sentinel
// when the armed point's count is reached. Safe for concurrent use
// (the runtime fires points from many workers).
type Injector struct {
	mu      sync.Mutex
	point   string
	trigger int
	hits    int
	tripped bool
}

// NewInjector arms an injector from the plan's point-based fields; nil
// when the plan arms none (callers can pass nil Inject hooks through).
func NewInjector(p Plan) *Injector {
	point, trigger := p.CrashAtPoint, p.CrashAtCount
	if p.KillAtDispatch > 0 {
		point, trigger = PointDispatch, p.KillAtDispatch
	}
	if point == "" {
		return nil
	}
	if trigger < 1 {
		trigger = 1
	}
	return &Injector{point: point, trigger: trigger}
}

// Point is the hook to hand to Config.Inject. It panics with the
// sentinel at the armed occurrence and is inert afterwards (the
// engines stop the run at the first trip).
func (i *Injector) Point(point string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	if i.tripped || point != i.point {
		i.mu.Unlock()
		return
	}
	i.hits++
	if i.hits < i.trigger {
		i.mu.Unlock()
		return
	}
	i.tripped = true
	i.mu.Unlock()
	panic(Crash{Point: point})
}

// Tripped reports whether the injector fired.
func (i *Injector) Tripped() bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.tripped
}

// Protect runs f, converting an escaped crash sentinel into an error —
// the harness's recover shim for code paths that do not recover the
// sentinel themselves (crashing a Recover pass mid-flight).
func Protect(f func() error) (err error) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if c, ok := AsCrash(v); ok {
			err = c
			return
		}
		panic(v)
	}()
	return f()
}
