// Package runtime is the concurrent execution engine for transactional
// process management: one goroutine per admitted process drives
// invocations against the (already internally locked) subsystems, while
// every scheduling decision and every protocol transition — conflict-
// predecessor checks, Lemma-1 commit deferral, Lemma-2/3 recovery
// ordering, forced-order acyclicity, completions, aborts, 2PC — is the
// shared driver's (scheduler.Driver over internal/scheduler/policy),
// called inside one serial section, as the sequential engine's loop and
// the hub are. The runtime adds what a concurrent host needs:
// goroutines, the section's mutex, the admission queue and the wait-for
// analysis.
//
// The sequential discrete-event engine (internal/scheduler) remains the
// reference oracle: both host the identical driver, so a schedule the
// runtime produces differs from the oracle's only in
// interleaving, never in admissibility. The differential test in this
// package asserts exactly that: every concurrently observed schedule is
// PRED and per-process terminal outcomes match the oracle.
//
// Concurrency structure:
//
//   - One mutex (Runtime.mu) guards the driver (process table +
//     policy.State), the live members, the pending queue, the event
//     sequence and the stall machinery. Parallelism is between
//     activities inside the subsystems, not between scheduler locks: a
//     decision costs microseconds, an invocation its service time.
//   - Admission is the sequential engine's: a submitted job, or the next
//     incarnation of a restartable abort, is an entry of a pending list
//     that admitPending scans in submission order inside the section
//     (worker cap, Serial/Conservative rule, restart backoff). A waiting
//     job is an entry, not a goroutine: no completion wakes it, and
//     throughput does not depend on the backlog.
//   - Subsystem work (Invoke + simulated service time) runs outside the
//     section; the in-flight invocation is registered first so
//     concurrent decisions see it as a survivor in the forced-order
//     graph. Lock order is Runtime.mu -> subsystem.mu.
//   - Force-logs, the 2PC coordinator's included, are written in section
//     order and synced outside it: on a log with a sync phase only a
//     write-ahead record whose commit is durable on its own waits — its
//     worker leaves the section, still in flight, until one shared sync
//     covers the record, and re-enters the transition. A store-backed
//     subsystem's commit is not: its pages follow the log's sync.
//   - The section's condition variable is broadcast after every state
//     mutation; blocked workers re-evaluate their gates. Two stall
//     breakers run: a precise park-time wait-for analysis that
//     victim-aborts a member of a closed wait cycle immediately (without
//     waiting for the rest of the run to go idle), and the quiescence
//     detector of the sequential engine as a backstop for waits with
//     incomplete edge information (recovery-step gates, denials the
//     policy cannot attribute to a predecessor), declared only when
//     every live worker has re-evaluated at the current progress
//     generation with nothing in flight.
package runtime

import (
	"context"
	"errors"
	"fmt"
	gort "runtime"
	"sync"
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
	// Mode selects the scheduling policy. The runtime supports PRED,
	// Serial, Conservative and CCOnly; the weak order of the sequential
	// engine is not implemented here.
	Mode scheduler.Mode
	// Log is the write-ahead log; defaults to an in-memory log.
	Log wal.Log
	// Workers caps the number of concurrently admitted processes
	// (admission control). 0 means unlimited.
	Workers int
	// Tick is the real duration of one virtual cost unit of service
	// time. 0 means services complete without sleeping (maximum
	// interleaving pressure, minimum wall clock).
	Tick time.Duration
	// MaxRestarts bounds per-process restarts (default 8).
	MaxRestarts int
	// MaxStalls bounds stall-resolution victim aborts (default 256).
	MaxStalls int
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
	// appends. The checkpointer runs inside the serial section, so no
	// force-log of this runtime lands in its fuzzy window; the window is
	// exercised by TestCheckpointConcurrentWithAppends only. 0 disables.
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
	// Resilience, when non-nil, routes activity invocations through a
	// resilience layer (internal/chaos) exactly as in the sequential
	// engine (scheduler.Config.Resilience): typed retries, breakers and
	// flaky transport at the invocation boundary; 2PC resolution and
	// recovery stay on the direct path.
	Resilience subsystem.ResilientInvoker
}

func (c Config) withDefaults() Config {
	if c.Log == nil {
		c.Log = wal.NewMemLog()
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 8
	}
	if c.MaxStalls == 0 {
		c.MaxStalls = 256
	}
	return c
}

// Result is the outcome of a concurrent run.
type Result struct {
	// Schedule is the observed process schedule (completion order under
	// the serial section); check it with PRED(), Serializable() and
	// ProcessRecoverable().
	Schedule *schedule.Schedule
	Metrics  scheduler.Metrics
	Outcomes map[process.ID]*scheduler.Outcome
	// Elapsed is the wall-clock duration of the run. It starts after job
	// validation (scheduler.ValidateJobs) and ends before the Result is
	// assembled, so it is shorter than the Run call.
	Elapsed time.Duration
	// ShardGroups is the number of serial sections of the run: always 1.
	// bench/ still reads it (ROADMAP item 9 retires it).
	ShardGroups int
}

// member is one live process: its protocol state (the shared driver's
// record) plus the park-time stall machinery. All fields are guarded by
// Runtime.mu (the owning worker mutates them only under it).
type member struct {
	*scheduler.Proc

	// lastEval is the progress generation at which this process
	// last found nothing to do; parked marks it blocked in cond.Wait;
	// waitAlts, when non-nil, is the complete wait-for disjunction
	// recorded at the last sWait — the process can proceed iff for SOME
	// alternative ALL listed blockers acted (terminated or released
	// their locks). nil means the wait has edges the policy cannot name
	// and only the quiescence backstop may break it.
	lastEval int64
	parked   bool
	waitAlts [][]process.ID
	// ahead is the LSN of the write-ahead record a Complete wrote and
	// refused; the worker waits for its sync and re-enters (0: none).
	ahead int64
}

// pendingProc is a submitted incarnation waiting for admission; after is
// the completion count a restarted one backs off to (0: a fresh job).
type pendingProc struct {
	*scheduler.Proc
	after int64
}

// Runtime executes processes concurrently, one goroutine per admitted
// process.
type Runtime struct {
	cfg Config
	fed *subsystem.Federation
	log wal.Log
	// glog is log when it has a sync phase; nil otherwise (a MemLog:
	// nothing ever waits for a sync).
	glog *wal.GroupAppender
	reg  *metrics.Registry

	// The serial section: the shared protocol driver over every process
	// of the run (with their policy state), admission and the stall
	// machinery. All fields down to victims are guarded by mu.
	mu   sync.Mutex
	cond *sync.Cond
	drv  *scheduler.Driver
	seq  int64 // event sequence
	// members holds the live incarnations — admitted, not terminated —
	// by origin id, the name the subsystems know a lock holder by
	// (incarnations share locks); pending the submitted ones not yet
	// admitted, in submission order. unfinished counts the jobs not yet
	// retired (terminated for good, or dropped at the run's end); done is
	// closed when it reaches zero.
	members    map[process.ID]*member
	pending    []pendingProc
	unfinished int
	done       chan struct{}
	live       int // workers currently driving a process
	inFlight   int // workers outside the section doing subsystem work
	waiting    int // workers blocked on cond (diagnostics)
	// Quiescence detection: progress increments on every state change
	// that could unblock a member; upToDate counts live members whose
	// lastEval equals the current generation. A stall is declared only
	// when every live member re-evaluated at the current generation with
	// nothing in flight.
	progress int64
	upToDate int
	// completions counts finished invocations (the clock of restart
	// backoff), victims the victim aborts spent of MaxStalls.
	completions int64
	victims     int
	// frontier is step's buffer for a process's frontier.
	frontier []int

	// err is the first run-terminating error (crash or failure), set
	// lock-free: once it is, workers drain. stopCh is closed with it.
	err      atomic.Pointer[error]
	stopCh   chan struct{}
	canceled atomic.Bool

	start time.Time
	ckpt  scheduler.Checkpointer
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
		cfg:     cfg,
		fed:     fed,
		log:     cfg.Log,
		glog:    glog,
		reg:     cfg.Metrics,
		members: make(map[process.ID]*member),
		done:    make(chan struct{}),
		stopCh:  make(chan struct{}),
	}
	coord := twopc.New(coordLog{r})
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
	r.cond = sync.NewCond(&r.mu)
	if r.reg != nil {
		coord.Metrics = r.reg
		fed.SetMetrics(r.reg)
		if il, ok := r.log.(wal.Instrumented); ok {
			il.SetMetrics(r.reg)
		}
	}
	return r, nil
}

// fail records the first run-terminating error, which flips the run
// into draining mode; called from any goroutine, with and without mu.
// Run, which holds no lock, does the waking (taking mu to broadcast
// here could deadlock).
func (r *Runtime) fail(err error) {
	if r.err.CompareAndSwap(nil, &err) {
		close(r.stopCh)
	}
}

// stopped reports that the run crashed or failed.
func (r *Runtime) stopped() bool { return r.err.Load() != nil }

// over reports that the run crashed, failed or was canceled.
func (r *Runtime) over() bool { return r.stopped() || r.canceled.Load() }

// guard runs f, converting an injected-crash sentinel panic into the
// run-terminating error every worker observes; ok is false when the
// crash tripped. Callers hold mu — the panic must not unwind past the
// critical section, so it is caught right here — except when they wait
// for a sync. Non-sentinel panics propagate.
func (r *Runtime) guard(f func()) (ok bool) {
	defer scheduler.OnInjectedCrash(func(point string) {
		r.fail(fmt.Errorf("%w (injected at %s)", scheduler.ErrCrashed, point))
	})
	f()
	return true
}

// runtimeHost is the runtime as the driver's Host; the driver calls it
// inside the serial section.
type runtimeHost struct{ r *Runtime }

func (h runtimeHost) NextSeq() int64 {
	h.r.seq++
	return h.r.seq
}

// Now converts the wall clock into virtual ticks since the run started
// (0 when Tick is unset).
func (h runtimeHost) Now() int64 {
	if h.r.cfg.Tick <= 0 {
		return 0
	}
	return int64(time.Since(h.r.start) / h.r.cfg.Tick)
}

// ForceLog writes a record unless the run already crashed.
func (h runtimeHost) ForceLog(rec wal.Record) bool {
	_, ok := h.r.forceLog(rec)
	return ok
}

// forceLog writes a record unless the run already crashed, and returns
// its LSN. The checkpointer runs inside the guard: an injected crash
// sentinel unwinds into guard's recover like any other force-log crash.
// On a log with a sync phase nothing waits for a sync here: a
// write-ahead record that must be durable first (syncFirst) is written
// and refused, its worker waits for the sync outside the section
// (awaitSync) and re-enters the transition, whose force-log accepts it.
func (r *Runtime) forceLog(rec wal.Record) (int64, bool) {
	if r.stopped() {
		return 0, false
	}
	var m *member // set for a write-ahead record that must wait
	if r.glog != nil && rec.WriteAhead() {
		m = r.members[process.ID(rec.Proc).Origin()]
		if lsn := m.ahead; lsn > 0 {
			m.ahead = 0 // the re-entry: written and synced
			return lsn, true
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
	// in another worker, whose guard has not stopped the run yet: the
	// record is not in the log.
	if !ok || lsn == 0 {
		return 0, false
	}
	if m != nil {
		m.ahead = lsn
		return lsn, false
	}
	return lsn, true
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
		for _, ptx := range m.Prepared {
			if !ptx.Sub.CommitsBehindLog() {
				return true
			}
		}
		return false
	}
	sub, ok := r.fed.Subsystem(rec.Subsystem)
	return !ok || !sub.CommitsBehindLog()
}

// errRefused is how the 2PC coordinator sees a refused force-log.
var errRefused = errors.New("runtime: force-log refused")

// coordLog is the log of the runtime's 2PC coordinator: the same
// force-log, so a resolution never waits for a sync and a decision
// waits outside the section like every other write-ahead record (the
// hub's coordinator log does the same).
type coordLog struct{ r *Runtime }

func (l coordLog) Append(rec wal.Record) (int64, error) {
	lsn, ok := l.r.forceLog(rec)
	if !ok {
		return 0, errRefused
	}
	return lsn, nil
}
func (l coordLog) Records() ([]wal.Record, error) { return l.r.log.Records() }
func (l coordLog) Close() error                   { return nil }

// awaitSync waits, outside the section and counted in flight, until a
// sync covered lsn; false when the run stopped meanwhile. Called with mu
// held.
func (r *Runtime) awaitSync(lsn int64) bool {
	r.inFlight++
	r.mu.Unlock()
	r.guard(func() {
		if err := r.glog.WaitDurable(lsn); err != nil {
			r.fail(fmt.Errorf("runtime: force-log: %w", err))
		}
	})
	r.mu.Lock()
	r.inFlight--
	return !r.stopped()
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
// real delay) lies ahead when its time comes — and waits until every
// job is retired. The context cancels the run: in-flight service time
// finishes, no new work starts, what is still pending is dropped and
// ctx.Err() is returned. A Runtime runs once.
func (r *Runtime) Run(ctx context.Context, jobs []scheduler.Job) (*Result, error) {
	if err := scheduler.ValidateJobs(r.fed, jobs); err != nil {
		return nil, err
	}
	r.start = time.Now()

	r.mu.Lock()
	r.unfinished = len(jobs) + 1 // Run's own share, until every job is handed over
	for i, j := range jobs {
		p := scheduler.NewProc(j.Proc, i, j.Proc.ID.Origin(), j.Proc.ID, 0)
		if j.Arrival > 0 && r.cfg.Tick > 0 {
			go r.arrive(ctx, p, j.Arrival)
		} else {
			r.pending = append(r.pending, pendingProc{Proc: p})
		}
	}
	r.admitPending()
	r.finished()
	r.mu.Unlock()

	// Run is its own supervisor: on cancellation or crash it drops what
	// is still pending and wakes every parked worker. The broadcast
	// happens under mu, so a worker between its over-check and cond.Wait
	// cannot miss it.
	select {
	case <-r.done:
	case <-ctx.Done():
		r.canceled.Store(true)
	case <-r.stopCh:
	}
	if r.over() {
		r.mu.Lock()
		r.admitPending()
		r.cond.Broadcast()
		r.mu.Unlock()
		<-r.done
	}
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
		m.Makespan = int64(elapsed / r.cfg.Tick)
	} else {
		m.Makespan = elapsed.Nanoseconds()
	}
	outcomes := make(map[process.ID]*scheduler.Outcome)
	var defs []*process.Process
	for _, p := range r.drv.All() {
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
	if r.canceled.Load() {
		return res, ctx.Err()
	}
	return res, nil
}

// arrive submits a job once its arrival time has come. A wait long
// enough for a kernel timer (see sleepTicks) ends with the run,
// whichever comes first, and admitPending then drops the job.
func (r *Runtime) arrive(ctx context.Context, p *scheduler.Proc, at int64) {
	if d := time.Duration(at) * r.cfg.Tick; d >= 2*time.Millisecond {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-r.stopCh:
		case <-ctx.Done():
			r.canceled.Store(true)
		}
	} else {
		r.sleepTicks(at)
	}
	r.mu.Lock()
	r.pending = append(r.pending, pendingProc{Proc: p})
	r.admitPending()
	r.mu.Unlock()
}

// admitPending is admission control, the sequential engine's admit over
// the section's state: it scans the pending queue in submission order,
// stops at the worker cap, and steps over — never queues behind — an
// entry still backing off while anything is admitted or which the
// mode's admission rule refuses. Each entry it lets in is logged,
// registered as a member and driven by a goroutine of its own; one whose
// start record does not reach the log stays pending, for the run is
// ending — and once it is over, the queue is dropped instead. Called
// with mu held after every submission, termination and completion.
func (r *Runtime) admitPending() {
	if r.over() {
		dropped := r.pending
		r.pending = nil
		for range dropped {
			r.finished()
		}
		return
	}
	keep, admitted := r.pending[:0], false
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
		m := &member{Proc: pp.Proc, lastEval: -1}
		r.members[pp.Origin] = m
		r.live++
		if pp.Restarts > 0 {
			r.drv.Metrics.Restarts++
			r.reg.Inc(metrics.ProcsRestarted)
		}
		admitted = true
		go r.drive(m)
	}
	r.pending = keep
	if admitted {
		r.bump()
	}
}

// active yields the footprints of the live members.
func (r *Runtime) active(yield func([]string) bool) {
	for _, m := range r.members {
		if !yield(m.Footprint) {
			return
		}
	}
}

// finished retires one job — its last incarnation terminated, or it was
// dropped — and ends the run with the last. Called with mu held.
func (r *Runtime) finished() {
	r.unfinished--
	if r.unfinished == 0 {
		close(r.done)
	}
}

// bump advances the progress generation after a state change that may
// unblock other members, and wakes them to re-evaluate. Called with mu
// held.
func (r *Runtime) bump() {
	r.progress++
	r.upToDate = 0
	r.cond.Broadcast()
}

// sleepTicks simulates service time. Kernel timer granularity is on
// the order of a millisecond, which would inflate every
// sub-millisecond service time several-fold and make throughput
// numbers measure timer resolution instead of scheduling — short
// waits therefore yield-spin on the monotonic clock, which keeps the
// wait accurate while still ceding the CPU to runnable workers.
func (r *Runtime) sleepTicks(n int64) {
	if r.cfg.Tick <= 0 || n <= 0 {
		return
	}
	d := time.Duration(n) * r.cfg.Tick
	if d >= 2*time.Millisecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		gort.Gosched()
	}
}

// wait blocks the process's worker on the section's condition variable
// until some state changes. Two stall breakers guard the park, both
// over the live members under mu alone:
//
//   - When the wait carries complete edge information (m.waitAlts), a
//     precise wait-for analysis fires immediately once a closed set of
//     parked members waits only on itself — no quiescence needed, so
//     victim aborts overlap with unrelated in-flight work.
//   - The quiescence backstop of the sequential engine: a stall is
//     declared only once every live member re-evaluated its gates at
//     the current progress generation and found nothing to do, with
//     nothing in flight. Merely counting parked workers
//     would race against workers that were signaled but not yet
//     rescheduled.
//
// Returns false when the run is over. Called with mu held.
func (r *Runtime) wait(m *member) bool {
	if r.over() {
		return false
	}
	if m.lastEval != r.progress {
		m.lastEval = r.progress
		r.upToDate++
	}
	if victim := r.detectDeadlock(m); victim != nil {
		r.drv.MarkVictim(victim.Proc, "wait-for cycle")
		r.bump()
		return true
	}
	if r.upToDate >= r.live && r.inFlight == 0 && !r.actionableAbortPending() {
		// Genuine stall: every gate was re-checked this generation.
		if !r.resolveStall() {
			r.fail(fmt.Errorf("runtime: unresolvable stall (mode %v)\n%s", r.cfg.Mode, r.stallDump()))
			return false
		}
		r.bump()
		return true
	}
	m.parked = true
	r.waiting++
	r.cond.Wait()
	r.waiting--
	m.parked = false
	return !r.over()
}

// detectDeadlock checks, at the moment self is about to park with
// complete wait-for information, whether it belongs to a set of parked
// members that waits only on itself: every member, in each of its wait
// alternatives, waits on at least one other member. A blocker's edges
// disappear only when the blocker acts (terminates, commits or rolls
// back prepared transactions, becomes quasi-safe) — which a parked
// process never does — so such a set can never be unblocked from outside
// and one member must be victim-aborted (the youngest abortable one, as
// in the driver's stall-victim choice). A member counts as parked only
// if it recorded complete wait-for information at the current
// progress generation: one that was signaled but not yet rescheduled is
// still marked parked, but its generation is stale, so it is never
// mistaken for stuck. Called with mu held; returns the chosen victim
// (nil: no closed set, no abortable member, or MaxStalls exhausted).
func (r *Runtime) detectDeadlock(self *member) *member {
	if self.waitAlts == nil {
		return nil
	}
	var set map[process.ID]*member
	for _, m := range r.members {
		if m.parked && m.waitAlts != nil && m.lastEval == r.progress {
			if set == nil {
				set = map[process.ID]*member{self.ID: self}
			}
			set[m.ID] = m
		}
	}
	// Greatest fixpoint: drop anyone with an escape alternative (an
	// alternative none of whose blockers is in the set — those blockers
	// can still act on their own).
	escapes := func(m *member) bool {
	alts:
		for _, alt := range m.waitAlts {
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
	if set[self.ID] == nil {
		return nil
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

// spendVictim takes one victim abort out of the run-wide MaxStalls
// budget; false when it is exhausted. Called with mu held.
func (r *Runtime) spendVictim() bool {
	if r.victims >= r.cfg.MaxStalls {
		return false
	}
	r.victims++
	return true
}

// actionableAbortPending reports whether some process holds an
// unconsumed abort request its worker can act on immediately (no queued
// recovery steps that could be gated). While one exists, declaring a
// new stall would be spurious: the woken workers merely re-blocked
// before that victim's worker consumed the flag. An abortPending
// process with gated recovery steps does NOT suppress stall handling —
// waiting on it could deadlock, so another victim may be taken
// (bounded by MaxStalls, as in the sequential engine).
func (r *Runtime) actionableAbortPending() bool {
	for _, m := range r.members {
		if m.AbortPending && len(m.Recovery) == 0 && m.Idle() {
			return true
		}
	}
	return false
}

// resolveStall is the quiescence backstop: the driver's stall-victim
// choice under the run-wide MaxStalls budget. Called with mu held.
func (r *Runtime) resolveStall() bool {
	victim := r.drv.ChooseVictim(nil)
	if victim == nil || !r.spendVictim() {
		return false
	}
	r.drv.MarkVictim(victim, "stall resolution")
	return true
}

// stepKind is the action the serial section hands a worker.
type stepKind int

const (
	sWait   stepKind = iota // nothing dispatchable; block
	sAgain                  // progressed under the lock; re-evaluate
	sInvoke                 // perform the prepared invocation outside the lock
	sDone                   // process terminated
)

// drive is the goroutine of one admitted incarnation: it runs it to
// termination, then submits the next incarnation of a restartable abort
// or retires the job, and hands the freed slot to the pending queue.
func (r *Runtime) drive(m *member) {
	r.mu.Lock()
	restart := r.driveLocked(m)
	r.live--
	r.bump()
	if restart {
		// Restart under a derived id after exponential backoff. Backoff
		// is measured in system progress, not wall time: the contention
		// that caused the abort must drain first, so re-entry waits for
		// exponentially many invocation completions by other processes
		// (or for the system to go idle). A wall-clock sleep would be
		// no backoff at all under Tick=0 — the deadlock would re-form
		// instantly with the same opponents and the same victim.
		p := m.Restarted()
		r.pending = append(r.pending, pendingProc{p, r.completions + int64(4<<p.Restarts)})
	}
	r.admitPending()
	if !restart {
		r.finished() // last: Run reads the result once every job is retired
	}
	r.mu.Unlock()
}

// driveLocked returns true when the process aborted restartably and
// should re-enter. Called with mu held; releases it around invocations.
func (r *Runtime) driveLocked(m *member) (restart bool) {
	d, p := r.drv, m.Proc
	for {
		if r.over() {
			return false
		}
		kind, item := r.step(m)
		switch kind {
		case sAgain:
			r.bump()
			continue
		case sDone:
			return p.Restartable && p.Restarts < r.cfg.MaxRestarts
		case sWait:
			if !r.wait(m) {
				return false
			}
			continue
		}
		// sInvoke: the in-flight registration happened in step(); do the
		// subsystem work unlocked (the idempotency key is allocated
		// under the lock).
		r.inFlight++
		key := d.InvokeKey(p)
		r.mu.Unlock()
		res, extraLat, locked := d.Invoke(p, item, key)
		if !locked {
			r.sleepTicks(d.Cost(item.Service) + extraLat)
		}
		r.mu.Lock()
		r.inFlight--
		if r.stopped() {
			// The run crashed while this invocation was in flight: do
			// not commit, log or apply its outcome. A prepared local
			// transaction stays in doubt with no prepared record — the
			// orphan recovery rule presumes it aborted.
			d.Undispatch(p, item)
			return false
		}
		d.Metrics.Invocations++
		if locked {
			// Lost the probe/acquire race: a conflicting local
			// transaction grabbed the item locks between step()'s probe
			// and the Invoke. Undo the registration and re-evaluate —
			// the next step() re-probes and parks with the holder's
			// identity as a wait-for edge.
			d.Undispatch(p, item)
			d.LockWait(p, item, "lost the probe/acquire race")
			r.bump()
			continue
		}
		r.completions++
		r.admitPending() // a backoff target may be reached
		for {
			if err := d.Complete(p, item, res); err != nil {
				r.fail(err)
			}
			if m.ahead == 0 {
				break
			}
			// Complete wrote its write-ahead record and stopped short
			// of the subsystem commit that follows it.
			if !r.awaitSync(m.ahead) {
				d.Undispatch(p, item) // crashed meanwhile: as above
				return false
			}
		}
		r.bump()
	}
}

// step is the serial-section decision: what should this worker do next?
// Called with mu held. Every sWait return records the wait-for edge
// information of the park in m.waitAlts (nil when the policy cannot
// name the blockers).
func (r *Runtime) step(m *member) (stepKind, scheduler.Work) {
	d, p := r.drv, m.Proc
	m.waitAlts = nil
	// Recovery steps drain strictly sequentially, before a pending
	// abort is honoured.
	if len(p.Recovery) > 0 {
		st := p.Recovery[0]
		if st.Kind == process.StepAbortPrepared {
			d.AbortPreparedStep(p)
			return sAgain, scheduler.Work{}
		}
		if !d.StepGate(p, st) {
			return sWait, scheduler.Work{}
		}
		if holder, free := r.fed.LockBlocker(string(p.Origin), st.Service); !free {
			// The single pending step is the only alternative, its lock
			// holder the only blocker.
			if cur := r.members[process.ID(holder)]; cur != nil {
				m.waitAlts = [][]process.ID{{cur.ID}}
			}
			return sWait, scheduler.Work{}
		}
		return r.register(p, p.StepWork(st))
	}
	if p.AbortPending && p.Phase != policy.Aborting {
		if err := d.BeginAbort(p); err != nil {
			r.fail(err)
			return sDone, scheduler.Work{}
		}
		return sAgain, scheduler.Work{}
	}
	if p.Phase == policy.Aborting {
		// Completion drained: roll back leftovers and terminate.
		d.RollbackLeftovers(p)
		return r.terminate(m, false), scheduler.Work{}
	}
	if p.Inst.Done() {
		if len(p.Prepared) > 0 {
			if d.Lemma1Blocked(p) {
				// Lemma 1: hold the 2PC commit. The wait resolves only
				// when every active conflict predecessor terminated —
				// one AND-alternative for the deadlock detector.
				m.waitAlts = [][]process.ID{d.Pol.ActiveConflictPreds(d, p.ID)}
				return sWait, scheduler.Work{}
			}
			if !r.commitPreparedSet(m) {
				return sWait, scheduler.Work{}
			}
		}
		return r.terminate(m, true), scheduler.Work{}
	}
	// Mid-process deferred commits (Lemma 1): successors of a prepared
	// activity stay off the frontier until the prepared set commits, so
	// a process wedges behind its own deferral unless it is resolved
	// here the moment the last active conflict predecessor terminates
	// (the sequential engine does this for every waiting process when a
	// process terminates). While predecessors are still active, the
	// deferral contributes one AND-alternative to the wait-for
	// disjunction below — parallel branches may keep executing.
	var deferAlt []process.ID
	if p.HasDeferred() {
		if d.Pol.HasActiveConflictPred(d, p.ID) {
			deferAlt = d.Pol.ActiveConflictPreds(d, p.ID)
		} else {
			if !r.commitPreparedSet(m) {
				return sWait, scheduler.Work{} // injected crash mid-2PC
			}
			return sAgain, scheduler.Work{} // successors joined the frontier
		}
	}
	// Regular forward execution. The single worker linearizes parallel
	// branches: pick the first dispatchable frontier activity.
	var blocked [][]process.ID
	complete := true
	r.frontier = p.Inst.AppendFrontier(r.frontier[:0])
	for _, local := range r.frontier {
		a := p.Def.Activity(local)
		if !p.PredsCommitted(local) {
			complete = false
			continue
		}
		if !d.MayDispatch(p, a) {
			if bs := d.Pol.DispatchBlockers(d, p.ID, a); len(bs) > 0 {
				blocked = append(blocked, bs)
			} else {
				complete = false // denial without pred-wait semantics
			}
			continue
		}
		// Probe the subsystem's item locks under the serial section: a
		// held lock means parking here, not an invocation attempt whose
		// ErrLocked bounce would wake (and be woken by) other blocked
		// workers in an endless retry storm. The holder becomes a
		// wait-for edge.
		if holder, free := r.fed.LockBlocker(string(p.Origin), a.Service); !free {
			if cur := r.members[process.ID(holder)]; cur != nil {
				blocked = append(blocked, []process.ID{cur.ID})
			} else {
				complete = false // not a live member (left in doubt by an earlier run)
			}
			continue
		}
		return r.register(p, scheduler.Work{Local: local, Service: a.Service, Kind: a.Kind})
	}
	// The park's wait-for information is complete only when EVERY
	// frontier alternative was denied by a named blocker set (conflict
	// predecessors or an item-lock holder); any alternative blocked on
	// own prepared work or non-pred rules falls back to the quiescence
	// detector.
	if deferAlt != nil {
		blocked = append(blocked, deferAlt)
	}
	if complete && len(blocked) > 0 {
		m.waitAlts = blocked
	}
	return sWait, scheduler.Work{}
}

// register passes the dispatch crash point, logs the invocation as in
// flight and hands it to the worker.
func (r *Runtime) register(p *scheduler.Proc, w scheduler.Work) (stepKind, scheduler.Work) {
	if !r.inject("runtime:dispatch") || !r.drv.Dispatch(p, w) {
		return sAgain, scheduler.Work{} // crash tripped; drive's loop head exits
	}
	return sInvoke, w
}

// commitPreparedSet runs the driver's 2PC commit under the crash guard:
// the coordinator's crash points must not unwind past the critical
// section. A decision that must be durable first is written and
// refused; the worker waits for its sync outside the section, still in
// flight, and commits again, which now accepts it — the decision is in
// the log, so nothing may come between. Called with mu held (lock order
// mu -> subsystem.mu).
func (r *Runtime) commitPreparedSet(m *member) bool {
	for {
		var ok bool
		var err error
		if !r.guard(func() { ok, err = r.drv.CommitPreparedSet(m.Proc) }) {
			return false // injected crash mid-2PC; recovery finishes the job
		}
		switch {
		case m.ahead > 0:
			if !r.awaitSync(m.ahead) {
				return false
			}
			continue
		case errors.Is(err, errRefused):
			return false // not logged: the run is ending
		case err != nil:
			r.fail(err)
		}
		return ok
	}
}

// terminate emits the terminal event and releases the admission slot
// (drive hands it on). Called with mu held.
func (r *Runtime) terminate(m *member, committed bool) stepKind {
	if !r.drv.Terminate(m.Proc, committed) {
		return sAgain // not logged: the run is ending, drive's loop head exits
	}
	delete(r.members, m.Origin)
	return sDone
}

// stallDump renders the section's state for stall diagnostics.
func (r *Runtime) stallDump() string {
	s := fmt.Sprintf("live=%d pending=%d inFlight=%d waiting=%d victims=%d progress=%d\n%s",
		r.live, len(r.pending), r.inFlight, r.waiting, r.victims, r.progress, r.drv.Dump())
	for _, m := range r.members {
		if m.parked && m.waitAlts != nil {
			s += fmt.Sprintf("  wait %s alts=%v fresh=%v\n", m.ID, m.waitAlts, m.lastEval == r.progress)
		}
	}
	return s
}
