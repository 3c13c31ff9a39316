// Package runtime is the concurrent execution engine for transactional
// process management: the sequential engine's loop on the real clock.
// One goroutine — Run's — owns the shared driver (scheduler.Driver over
// internal/scheduler/policy), the members and the pending queue, and
// makes every scheduling decision and protocol transition — conflict-
// predecessor checks, Lemma-1 commit deferral, Lemma-2/3 recovery
// ordering, forced-order acyclicity, completions, aborts, 2PC — as the
// engine's loop and the hub do. What overlaps is service time.
//
// The sequential discrete-event engine (internal/scheduler) remains the
// reference oracle: both host the identical driver, so a schedule the
// runtime produces differs from the oracle's only in interleaving,
// never in admissibility. The differential test in this package asserts
// exactly that: every concurrently observed schedule is PRED and
// per-process terminal outcomes match the oracle.
//
// Structure:
//
//   - A member is a record, not a goroutine. Each turn the loop applies
//     the completions that fell due, steps the members the driver marked
//     ready, in admission order, until each invokes, waits, is held or
//     terminates, and admits from the pending queue in submission order
//     (worker cap, Serial/Conservative rule, restart backoff). A member
//     that waits is marked again only when a process its wait names
//     moves (or, for a wait that names no one, when any process does);
//     one in flight or held for a sync, at its completion or release.
//   - Driver.Invoke runs in the loop, in the same step as the item-lock
//     probe before it. Its completion falls due (Cost + extra latency) ×
//     Tick later, in one deadline queue with the jobs that arrive later;
//     at Tick 0 it is applied at once. With nothing to step, the loop
//     waits for the earliest deadline, a sync or the context.
//   - Force-logs, the 2PC coordinator's included, are written in loop
//     order. On a log with a sync phase a write-ahead record whose commit
//     is durable on its own holds its member, still in flight, while one
//     syncer goroutine waits for a sync; the loop then re-enters the
//     transition. A store-backed subsystem's commit never waits: its
//     pages follow the log's sync.
//   - With nothing ready, a wait-for analysis victim-aborts a member of
//     a closed set of waiting members; with nothing in flight or held
//     either, the sequential engine's stall-victim choice breaks waits
//     whose blockers the policy cannot name.
package runtime

import (
	"context"
	"errors"
	"fmt"
	gort "runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
	"transproc/internal/twopc"
	"transproc/internal/wal"
)

// Config parameterizes a runtime run.
type Config struct {
	// Mode selects the scheduling policy: PRED, Serial, Conservative or
	// CCOnly.
	Mode scheduler.Mode
	// Log is the write-ahead log; defaults to an in-memory log.
	Log wal.Log
	// Workers caps the number of concurrently admitted processes
	// (admission control). 0 means unlimited.
	Workers int
	// Tick is the real duration of one virtual cost unit of service
	// time. 0 means none: an invocation completes in the step that
	// made it, Makespan is 0 and the run is a function of its jobs.
	Tick time.Duration
	// MaxRestarts bounds per-process restarts (default 8).
	MaxRestarts int
	// Metrics is the observability registry; nil is a no-op sink.
	Metrics *metrics.Registry
	// Inject, when non-nil, is called at named crash points — the
	// dispatch gate ("runtime:dispatch") and, via the 2PC coordinator,
	// "twopc:after-decision" / "twopc:mid-resolve". A fault plan
	// (internal/fault) may panic through it with a crash sentinel; the
	// runtime recovers the sentinel, stops issuing work and WAL appends,
	// and Run returns scheduler.ErrCrashed with the partial result,
	// leaving log and subsystem state for scheduler.Recover. No-op when
	// nil.
	Inject func(point string)
	// CheckpointEvery, when positive, takes a fuzzy checkpoint
	// (wal.TakeCheckpoint) after every that many runtime force-log
	// appends. The checkpointer runs in the loop, so no force-log of this
	// runtime lands in its fuzzy window; the window is exercised by
	// TestCheckpointConcurrentWithAppends only. 0 disables.
	CheckpointEvery int
	// CheckpointLimit caps the checkpoints of one run (0 = unlimited).
	CheckpointLimit int
	// CompactOnCheckpoint rewrites the log as checkpoint + tail after
	// each checkpoint when the log supports it (wal.Compactor).
	CompactOnCheckpoint bool
	// GroupCommit selects nothing: a log with a sync phase
	// (wal.Buffered) is always wrapped in a wal.GroupAppender, which the
	// force-logs, checkpointing, compaction and the 2PC coordinator all
	// write through. bench/ still sets it (ROADMAP item 9 retires it).
	GroupCommit wal.GroupCommit
	// Resilience, when non-nil, routes activity invocations through an
	// invocation boundary (a fault model such as internal/chaos, or a
	// test) exactly as in the sequential engine
	// (scheduler.Config.Resilience); 2PC resolution and recovery stay on
	// the direct path.
	Resilience subsystem.ResilientInvoker
}

func (c Config) withDefaults() Config {
	if c.Log == nil {
		c.Log = wal.NewMemLog()
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 8
	}
	return c
}

// Result is the outcome of a concurrent run.
type Result struct {
	// Schedule is the observed process schedule (completion order in
	// the loop); check it with PRED(), Serializable() and
	// ProcessRecoverable().
	Schedule *schedule.Schedule
	Metrics  scheduler.Metrics
	Outcomes map[process.ID]*scheduler.Outcome
	// Elapsed is the wall-clock duration of the run. It starts after job
	// validation (scheduler.JobProcs) and ends before the Result is
	// assembled, so it is shorter than the Run call.
	Elapsed time.Duration
	// ShardGroups is the number of serial sections of the run: always 1.
	// bench/ still reads it (ROADMAP item 9 retires it).
	ShardGroups int
}

// member is one live process: its protocol state (the shared driver's
// record) plus what the loop keeps about it.
type member struct {
	*scheduler.Proc

	// ahead is the LSN of the write-ahead record a transition wrote and
	// refused; the member is held until a sync covers it (0: none), and
	// keeps the LSN until the transition re-enters. resume is the
	// completion it then re-enters (nil: its 2PC commit).
	ahead  int64
	resume *deadline
	held   bool // on the held list: not stepped until its release
}

// deadline is an entry of the loop's deadline queue: the completion of
// a member's invocation w, or the arrival of a job (arrival set).
type deadline struct {
	at      time.Duration // since the run started
	m       *member
	w       scheduler.Work
	res     *subsystem.Result
	arrival *scheduler.Proc
}

// pendingProc is a submitted incarnation waiting for admission; after is
// the completion count a restarted one backs off to (0: a fresh job).
type pendingProc struct {
	*scheduler.Proc
	after int64
}

// Runtime executes processes concurrently: one loop steps every admitted
// process while their invocations' service times overlap.
type Runtime struct {
	cfg Config
	fed *subsystem.Federation
	log wal.Log
	// glog is log when it has a sync phase; nil otherwise (a MemLog:
	// nothing ever waits for a sync).
	glog *wal.GroupAppender
	reg  *metrics.Registry

	// Everything from here down to err is the loop's alone.
	drv *scheduler.Driver
	seq int64 // event sequence
	// members holds the live incarnations — admitted, not terminated —
	// in admission order; slots every admitted one by its slot in the
	// driver's table; pending the submitted ones not yet admitted, in
	// submission order.
	members []*member
	slots   []*member
	pending []pendingProc
	// held waits for a sync (syncing: the syncer has a request); due is
	// ordered by deadline, then by arrival in it.
	held    []*member
	syncing bool
	due     []*deadline
	// completions counts finished invocations (the clock of restart
	// backoff), victims the victim aborts spent of maxStalls.
	completions int64
	victims     int
	canceled    bool
	// syncReq carries the LSN the loop needs durable to the syncer, and
	// synced brings it back once a sync covered it.
	syncReq, synced chan int64

	// err is the first run-terminating error (crash or failure); the
	// syncer may set it too.
	err atomic.Pointer[error]

	start time.Time
	// clock, when set, replaces the real clock: the loop reads it and,
	// with nothing to step, hands it to the test that set it.
	clock *stepClock
	ckpt  scheduler.Checkpointer
}

// stepClock is a clock in-package tests advance by hand. The loop, with
// nothing to step, sends the deadline it waits for (-1: none) on idle and
// reads the new time from set; in between, the test may read and change
// the loop's state.
type stepClock struct {
	now       time.Duration
	idle, set chan time.Duration
}

// New creates a runtime over the federation.
func New(fed *subsystem.Federation, cfg Config) (*Runtime, error) {
	table, err := fed.ConflictTable()
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var glog *wal.GroupAppender
	if wal.Buffered(cfg.Log) {
		glog = wal.NewGroupAppender(cfg.Log, wal.GroupCommit{}, cfg.Inject)
		cfg.Log = glog
	}
	r := &Runtime{
		cfg:  cfg,
		fed:  fed,
		log:  cfg.Log,
		glog: glog,
		reg:  cfg.Metrics,
	}
	// The coordinator logs through the same force-log, so a resolution
	// never waits for a sync and a decision is held for one like every
	// other write-ahead record.
	coord := twopc.New(r.forceLog)
	coord.Inject = cfg.Inject
	r.drv = &scheduler.Driver{
		Host:       runtimeHost{r},
		Fed:        fed,
		Pol:        policy.New(table, policy.Config{Mode: cfg.Mode}),
		Coord:      coord,
		Reg:        r.reg,
		Resilience: cfg.Resilience,
	}
	r.ckpt = scheduler.Checkpointer{
		Every: cfg.CheckpointEvery, Limit: cfg.CheckpointLimit, Compact: cfg.CompactOnCheckpoint,
		Log: cfg.Log, Fed: fed, Conflicts: r.drv.Pol.Conflicts, Inject: cfg.Inject, Reg: cfg.Metrics,
	}
	if r.reg != nil {
		coord.Metrics = r.reg
		fed.SetMetrics(r.reg)
		if il, ok := r.log.(wal.Instrumented); ok {
			il.SetMetrics(r.reg)
		}
	}
	return r, nil
}

// fail records the first run-terminating error, which ends the run.
func (r *Runtime) fail(err error) {
	r.err.CompareAndSwap(nil, &err)
}

// stopped reports that the run crashed or failed.
func (r *Runtime) stopped() bool { return r.err.Load() != nil }

// over reports that the run crashed, failed or was canceled.
func (r *Runtime) over() bool { return r.stopped() || r.canceled }

// guard runs f, converting an injected-crash sentinel panic into the
// run-terminating error; ok is false when the crash tripped. The panic
// must not unwind past the loop (or the syncer), so it is caught right
// here. Non-sentinel panics propagate.
func (r *Runtime) guard(f func()) (ok bool) {
	defer scheduler.OnInjectedCrash(func(point string) {
		r.fail(fmt.Errorf("%w (injected at %s)", scheduler.ErrCrashed, point))
	})
	f()
	return true
}

// now is the time since the run started.
func (r *Runtime) now() time.Duration {
	if r.clock != nil {
		return r.clock.now
	}
	return time.Since(r.start)
}

// runtimeHost is the runtime as the driver's Host; the driver calls it
// in the loop.
type runtimeHost struct{ r *Runtime }

func (h runtimeHost) NextSeq() int64 {
	h.r.seq++
	return h.r.seq
}

// Now converts the clock into virtual ticks since the run started (0
// when Tick is unset).
func (h runtimeHost) Now() int64 {
	if h.r.cfg.Tick <= 0 {
		return 0
	}
	return int64(h.r.now() / h.r.cfg.Tick)
}

// ForceLog writes a record unless the run already crashed.
func (h runtimeHost) ForceLog(rec wal.Record) bool {
	_, err := h.r.forceLog(rec)
	return err == nil
}

// forceLog writes a record unless the run already crashed, and returns
// its LSN, or errRefused for a record it did not accept. The
// checkpointer runs inside the guard: an injected crash sentinel unwinds
// into guard's recover like any other force-log crash.
// On a log with a sync phase nothing waits for a sync here: a
// write-ahead record that must be durable first (syncFirst) is written
// and refused, its member is held until a sync covers it, and the
// transition's re-entry finds it accepted.
func (r *Runtime) forceLog(rec wal.Record) (int64, error) {
	if r.stopped() {
		return 0, errRefused
	}
	var m *member // set for a write-ahead record that must wait
	if r.glog != nil && rec.WriteAhead() {
		m = r.slots[r.drv.Get(process.ID(rec.Proc)).Slot()]
		if lsn := m.ahead; lsn > 0 {
			m.ahead = 0 // the re-entry: written and synced
			return lsn, nil
		}
		if !r.syncFirst(m, rec) {
			m = nil
		}
	}
	var lsn int64
	ok := r.guard(func() {
		var err error
		if r.glog != nil {
			lsn, err = r.glog.AppendNoSync(rec)
		} else {
			lsn, err = r.log.Append(rec)
		}
		if err != nil {
			r.fail(fmt.Errorf("runtime: force-log: %w", err))
			lsn = 0
			return
		}
		r.ckpt.Appended()
	})
	// A log that took the record gave it a positive LSN. LSN 0 is the
	// fault wrapper dropping the write of a system that already crashed
	// (in the syncer, say) before the run noticed: the record is not in
	// the log.
	if !ok || lsn == 0 {
		return 0, errRefused
	}
	if m != nil {
		m.ahead = lsn
		return 0, errRefused
	}
	return lsn, nil
}

// syncFirst reports whether a write-ahead record must be durable before
// its transition goes on, because a commit it announces is durable on
// its own. At a store-backed subsystem it is not
// (subsystem.CommitsBehindLog): its pages reach the device only behind
// the log's own sync, so the record is durable before the commit is,
// and nothing waits here. A 2PC decision announces the commits of the
// process's whole prepared set.
func (r *Runtime) syncFirst(m *member, rec wal.Record) bool {
	if rec.Type == wal.RecDecision {
		for ptx := range m.PreparedSet() {
			if !ptx.Sub.CommitsBehindLog() {
				return true
			}
		}
		return false
	}
	sub, ok := r.fed.Subsystem(rec.Subsystem)
	return !ok || !sub.CommitsBehindLog()
}

// errRefused is a force-log that did not accept its record.
var errRefused = errors.New("runtime: force-log refused")

// syncer is the one goroutine that waits for syncs: it takes the LSN the
// loop needs durable, waits until a sync covered it, and posts it back,
// until syncReq is closed.
func (r *Runtime) syncer() {
	defer close(r.synced)
	for lsn := range r.syncReq {
		r.guard(func() {
			if err := r.glog.WaitDurable(lsn); err != nil {
				r.fail(fmt.Errorf("runtime: force-log: %w", err))
			}
		})
		r.synced <- lsn
	}
}

// inject fires a named crash point; false when it tripped the crash.
func (r *Runtime) inject(point string) bool {
	if r.cfg.Inject == nil {
		return true
	}
	if r.stopped() {
		return false
	}
	return r.guard(func() { r.cfg.Inject(point) })
}

// Run executes the jobs to completion: it submits every job to the
// pending queue — in job order, one whose arrival (Arrival ticks of
// real delay) lies ahead when its time comes — and runs the loop until
// every job is retired. The context cancels the run: in-flight service
// time finishes, no new work starts, what is still pending is dropped and
// ctx.Err() is returned. A Runtime runs once.
func (r *Runtime) Run(ctx context.Context, jobs []scheduler.Job) (*Result, error) {
	procs, err := scheduler.JobProcs(r.fed, jobs)
	if err != nil {
		return nil, err
	}
	r.drv.Grow(len(procs))
	r.start = time.Now()
	for i, j := range jobs {
		p := procs[i]
		if j.Arrival > 0 && r.cfg.Tick > 0 {
			r.schedule(&deadline{at: time.Duration(j.Arrival) * r.cfg.Tick, arrival: p})
		} else {
			r.pending = append(r.pending, pendingProc{Proc: p})
		}
	}
	if r.glog != nil {
		r.syncReq, r.synced = make(chan int64, 1), make(chan int64, 1)
		go r.syncer()
		defer func() {
			close(r.syncReq)
			for range r.synced { // a post the loop left, until the syncer exits
			}
		}()
	}
	r.loop(ctx.Done())
	if r.glog != nil && !r.stopped() {
		// What the run wrote is durable before its Result is: serve
		// settles on it.
		r.guard(func() {
			if err := r.glog.Sync(); err != nil {
				r.fail(fmt.Errorf("runtime: force-log: %w", err))
			}
		})
	}

	elapsed := time.Since(r.start)
	m := r.drv.Metrics
	if r.cfg.Tick > 0 {
		m.Makespan = int64(r.now() / r.cfg.Tick)
	}
	all := r.drv.All()
	outcomes := make(map[process.ID]*scheduler.Outcome, len(all))
	defs := make([]*process.Process, 0, len(all))
	for _, p := range all {
		outcomes[p.ID] = p.Outcome
		defs = append(defs, p.Def)
	}
	res := &Result{
		Schedule:    r.drv.Pol.BuildSchedule(defs),
		Metrics:     m,
		Outcomes:    outcomes,
		Elapsed:     elapsed,
		ShardGroups: 1,
	}
	if err := r.err.Load(); err != nil {
		return res, *err
	}
	if r.canceled {
		return res, ctx.Err()
	}
	return res, nil
}

// loop is the runtime: each turn applies the completions that fell due
// (and releases the members a sync covered), steps the ready members and
// admits; with nothing to step it breaks a stall or waits. It
// returns once every job is retired, or once the run is over: at a crash
// or failure at once, at a cancellation when what is in flight or held
// has finished.
func (r *Runtime) loop(done <-chan struct{}) {
	for {
		select {
		case <-done:
			r.canceled, done = true, nil
		case lsn := <-r.synced:
			r.release(lsn)
		default:
		}
		r.applyDue()
		if r.over() {
			r.pending = nil
			r.due = slices.DeleteFunc(r.due, func(d *deadline) bool { return d.arrival != nil })
			if r.stopped() || len(r.due) == 0 && !r.syncing {
				return
			}
			r.sleep(done)
			continue
		}
		for s, p := range r.drv.Ready() {
			if r.stopped() {
				break
			}
			// A member in flight or held for a sync is marked again at its
			// completion or release.
			if m := r.slots[s]; p.Phase != policy.Done && p.Idle() && !m.held {
				r.advance(m)
			}
		}
		if r.over() {
			continue
		}
		r.admitPending()
		if r.drv.AnyReady() {
			continue
		}
		if victim := r.detectDeadlock(); victim != nil {
			r.drv.MarkVictim(victim.Proc, "wait-for cycle")
			continue
		}
		if len(r.due) > 0 || r.syncing {
			r.sleep(done)
			continue
		}
		if len(r.members) == 0 {
			return // admitPending admits into an empty system: nothing is pending
		}
		// Genuine stall: every member waits, nothing is in flight.
		if !r.resolveStall() {
			r.fail(fmt.Errorf("runtime: unresolvable stall (mode %v)\n%s", r.cfg.Mode, r.stallDump()))
			return
		}
	}
}

// schedule queues a deadline after every earlier or equal one.
func (r *Runtime) schedule(d *deadline) {
	i := sort.Search(len(r.due), func(i int) bool { return r.due[i].at > d.at })
	r.due = slices.Insert(r.due, i, d)
}

// applyDue submits the arrivals and applies the completions whose
// deadline passed, in deadline order.
func (r *Runtime) applyDue() {
	for len(r.due) > 0 && !r.stopped() && r.due[0].at <= r.now() {
		d := r.due[0]
		r.due = slices.Delete(r.due, 0, 1)
		if d.arrival != nil {
			r.pending = append(r.pending, pendingProc{Proc: d.arrival})
			continue
		}
		r.completions++
		r.apply(d.m, d.w, d.res)
	}
}

// sleep waits, with nothing to step, for the earliest deadline, a sync
// or the context. Kernel timer granularity is on the order of a
// millisecond, which would inflate every sub-millisecond service time
// several-fold and make throughput numbers measure timer resolution
// instead of scheduling; a shorter wait therefore yield-spins on the
// monotonic clock.
func (r *Runtime) sleep(done <-chan struct{}) {
	at := time.Duration(-1)
	if len(r.due) > 0 {
		at = r.due[0].at
	}
	if r.clock != nil {
		select {
		case r.clock.idle <- at:
			select {
			case r.clock.now = <-r.clock.set:
			case <-done:
				r.canceled = true
			}
		case <-done:
			r.canceled = true
		}
		return
	}
	if wait := at - r.now(); at < 0 || wait >= 2*time.Millisecond {
		var timeout <-chan time.Time
		if at >= 0 {
			t := time.NewTimer(wait)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-timeout:
		case lsn := <-r.synced:
			r.release(lsn)
		case <-done:
			r.canceled = true
		}
		return
	}
	for r.now() < at {
		select {
		case lsn := <-r.synced:
			r.release(lsn)
			return
		case <-done:
			r.canceled = true
			return
		default:
			gort.Gosched()
		}
	}
}

// admitPending is the sequential engine's admit: it scans the pending
// queue in submission order, stops at the worker cap, and steps over —
// never queues behind — an entry still backing off while anything is
// admitted or which the mode's admission rule refuses. Each entry it lets
// in is logged and becomes a member, marked ready; one whose start record
// does not reach the log stays pending, for the run is ending.
func (r *Runtime) admitPending() {
	if r.cfg.Workers > 0 && len(r.members) >= r.cfg.Workers {
		return
	}
	keep := r.pending[:0]
	for i, pp := range r.pending {
		if r.cfg.Workers > 0 && len(r.members) >= r.cfg.Workers {
			keep = append(keep, r.pending[i:]...)
			break
		}
		if pp.after > r.completions && len(r.members) > 0 ||
			!scheduler.MayAdmit(r.cfg.Mode, r.drv.Pol.Table().Conflicts, pp.Footprint, r.active) ||
			!r.drv.Admit(pp.Proc) {
			keep = append(keep, pp)
			continue
		}
		m := &member{Proc: pp.Proc}
		r.members = append(r.members, m)
		r.slots = append(r.slots, m) // the driver admits only here
		if pp.Restarts > 0 {
			r.drv.Metrics.Restarts++
			r.reg.Inc(metrics.ProcsRestarted)
		}
	}
	r.pending = keep
}

// active yields the footprints of the live members.
func (r *Runtime) active(yield func([]string) bool) {
	for _, m := range r.members {
		if !yield(m.Footprint) {
			return
		}
	}
}

// detectDeadlock checks, with nothing left to step, whether some set of
// waiting members waits only on itself: every member, in each of its wait
// alternatives, waits on at least one other member of the set. A
// blocker's edges disappear only when the blocker acts (terminates,
// commits or rolls back prepared transactions, becomes quasi-safe) —
// which a waiting process never does — so such a set can never be
// unblocked from outside, even while other work is in flight, and one
// member must be victim-aborted (the youngest abortable one, as in the
// driver's stall-victim choice). Only members whose registered Wait (a
// woken one's is cleared) names its blockers count. Returns the chosen
// victim (nil: no closed set, no abortable member, or maxStalls
// exhausted).
func (r *Runtime) detectDeadlock() *member {
	set := make(map[process.ID]*member)
	for _, m := range r.members {
		if len(m.Wait.Blockers) > 0 {
			set[m.ID] = m
		}
	}
	// Greatest fixpoint: drop anyone with an escape alternative (an
	// alternative none of whose blockers is in the set — those blockers
	// can still act on their own).
	escapes := func(m *member) bool {
	alts:
		for _, alt := range m.Wait.Blockers {
			for _, id := range alt {
				if set[id] != nil {
					continue alts
				}
			}
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for id, m := range set {
			if escapes(m) {
				delete(set, id)
				changed = true
			}
		}
	}
	var victim *member
	for _, m := range set {
		if m.Phase != policy.Running || m.AbortPending {
			continue
		}
		if victim == nil || m.Arrival > victim.Arrival {
			victim = m
		}
	}
	if victim == nil || !r.spendVictim() {
		return nil
	}
	return victim
}

// maxStalls bounds the victim aborts of one run.
const maxStalls = 256

// spendVictim takes one victim abort out of the run-wide maxStalls
// budget; false when it is exhausted.
func (r *Runtime) spendVictim() bool {
	if r.victims >= maxStalls {
		return false
	}
	r.victims++
	return true
}

// resolveStall is the quiescence backstop: the driver's stall-victim
// choice under the run-wide maxStalls budget.
func (r *Runtime) resolveStall() bool {
	victim := r.drv.ChooseVictim(nil)
	if victim == nil || !r.spendVictim() {
		return false
	}
	r.drv.MarkVictim(victim, "stall resolution")
	return true
}

// advance steps a ready member — Driver.Next under the crash guard —
// until it invokes, waits, is held or terminates.
func (r *Runtime) advance(m *member) {
	d, p := r.drv, m.Proc
	for !r.stopped() {
		var act scheduler.Act
		var w scheduler.Work
		var err error
		if !r.guard(func() { act, w, err = d.Next(p, r.lockProbe) }) {
			return // injected crash mid-2PC; recovery finishes the job
		}
		switch {
		case errors.Is(err, errRefused):
			// A 2PC decision that must be durable first was written and
			// refused (m.ahead): the member is held, and on its release
			// Next commits again, which now accepts it — the decision is
			// in the log, so nothing may come between. Unheld, the run is
			// ending.
			if m.ahead > 0 {
				r.hold(m, nil)
			}
			return
		case err != nil:
			r.fail(err)
			return
		}
		switch act {
		case scheduler.ActAgain:
			continue
		case scheduler.ActInvoke:
			// The dispatch crash point, then the invocation logged as in
			// flight, so decisions taken during its service time see it as
			// a survivor in the forced-order graph.
			if r.inject("runtime:dispatch") && d.Dispatch(p, w) && r.invoke(m, w) {
				continue
			}
		case scheduler.ActDone:
			r.members = slices.DeleteFunc(r.members, func(o *member) bool { return o == m })
			if p.Restartable && p.Restarts < r.cfg.MaxRestarts {
				// Restart under a derived id after exponential backoff.
				// Backoff is measured in system progress, not wall time:
				// the contention that caused the abort must drain first,
				// so re-entry waits for exponentially many invocation
				// completions by other processes (or for the system to go
				// idle). A wall-clock sleep would be no backoff at all
				// under Tick=0 — the deadlock would re-form instantly with
				// the same opponents and the same victim.
				np := p.Restarted()
				r.pending = append(r.pending, pendingProc{np, r.completions + int64(4<<np.Restarts)})
			}
		}
		return
	}
}

// lockProbe is the loop's hand in Driver.Next: it probes the subsystem's
// item locks of the work. A held lock means waiting on its holder, not an
// invocation attempt whose ErrLocked bounce would wake (and be woken by)
// other waiting members in an endless retry storm. A free one takes the
// work, which advance invokes in the same step, so the answer holds for
// it.
func (r *Runtime) lockProbe(p *scheduler.Proc, w scheduler.Work) (scheduler.Wait, bool) {
	held, free := r.drv.LockBlocker(p, w)
	return held, !free
}

// invoke calls the subsystem for the work step dispatched and schedules
// its completion after its service time. At Tick 0 the completion is
// applied now, and invoke reports whether the member steps on in this
// turn. A locked answer (item locks the probe found free) leaves the
// member marked ready by its dispatch: its next step probes again and
// waits on the holder, as the sequential engine retries it.
func (r *Runtime) invoke(m *member, w scheduler.Work) bool {
	d, p := r.drv, m.Proc
	res, extraLat, held := d.Invoke(p, w)
	if held.Rule != "" {
		d.Undispatch(p, w)
		return false
	}
	if r.cfg.Tick <= 0 {
		r.completions++
		return r.apply(m, w, res)
	}
	at := r.now() + time.Duration(d.Cost(w)+extraLat)*r.cfg.Tick
	r.schedule(&deadline{at: at, m: m, w: w, res: res})
	return false
}

// apply applies a completion, which marks its member ready, unless the
// write-ahead record it wrote must be durable first: then the member is
// held until a sync covers it and apply reports false.
func (r *Runtime) apply(m *member, w scheduler.Work, res *subsystem.Result) bool {
	if err := r.drv.Complete(m.Proc, w, res); err != nil {
		r.fail(err)
	}
	if m.ahead > 0 {
		r.hold(m, &deadline{m: m, w: w, res: res})
		return false
	}
	return true
}

// hold keeps a member until a sync covers its write-ahead record.
func (r *Runtime) hold(m *member, resume *deadline) {
	m.resume, m.held = resume, true
	r.held = append(r.held, m)
	r.requestSync()
}

// requestSync asks the syncer, when it is idle, for a sync covering
// every held member: the last one held wrote the last record.
func (r *Runtime) requestSync() {
	if !r.syncing && len(r.held) > 0 {
		r.syncing = true
		r.syncReq <- r.held[len(r.held)-1].ahead
	}
}

// release re-enters the transition of every held member whose record a
// sync covered up to lsn: the re-entered force-log accepts it, and
// nothing came between.
func (r *Runtime) release(lsn int64) {
	r.syncing = false
	if r.stopped() {
		return
	}
	held := r.held
	r.held = nil
	for _, m := range held {
		if m.ahead > lsn {
			r.held = append(r.held, m)
			continue
		}
		m.held = false
		if d := m.resume; d != nil {
			m.resume = nil
			r.apply(m, d.w, d.res)
		} else { // its 2PC decision: Next re-enters the commit
			r.drv.Wake(m.Proc)
		}
	}
	r.requestSync()
}

// stallDump renders the loop's state for stall diagnostics.
func (r *Runtime) stallDump() string {
	return fmt.Sprintf("members=%d pending=%d due=%d held=%d victims=%d\n%s",
		len(r.members), len(r.pending), len(r.due), len(r.held), r.victims, r.drv.Dump())
}
