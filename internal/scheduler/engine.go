package scheduler

import (
	"container/heap"
	"errors"
	"fmt"
	"iter"

	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
	"transproc/internal/twopc"
	"transproc/internal/wal"
)

// ErrCrashed is returned by Run when the configured crash point was
// reached; federation and log state survive for Recover.
var ErrCrashed = errors.New("scheduler: injected crash")

// OnInjectedCrash is the recover shim of every host that fires crash
// points through an Inject hook: deferred directly (`defer
// scheduler.OnInjectedCrash(func(point string) { ... })`), it hands
// the crash point of a sentinel panic to died and lets every other
// panic propagate. The sentinel is recognized by its method, not its
// type, so no host imports the package that throws it.
func OnInjectedCrash(died func(point string)) {
	v := recover()
	if v == nil {
		return
	}
	crash, ok := v.(interface{ InjectedCrash() string })
	if !ok {
		panic(v)
	}
	died(crash.InjectedCrash())
}

// maxStalls bounds the stall-resolution victim aborts of one run.
const maxStalls = 256

// pendingProc is an incarnation waiting for admission: a submitted job
// before its arrival time (or behind Serial/Conservative gating), or a
// restart serving its backoff.
type pendingProc struct {
	*Proc
	at int64 // earliest admission, in virtual ticks
}

// completion is a scheduled future event in virtual time.
type completion struct {
	Work
	at, order int64 // order breaks ties: invocation order
	proc      *Proc
	res       *subsystem.Result // nil: the local transaction aborted
}

type completionHeap []*completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].order < h[j].order
}
func (h completionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(*completion)) }
func (h *completionHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Engine executes a set of processes against a federation of
// transactional subsystems under a scheduling policy. The pure PRED
// decisions (conflict graph, forced ordering, Lemma 1-3 gates) live in
// internal/scheduler/policy and the per-process protocol transitions in
// Driver, both shared with the concurrent runtime; the engine hosts the
// driver with a discrete-event loop and virtual time and invokes the
// subsystems inline.
type Engine struct {
	cfg   Config
	fed   *subsystem.Federation
	table *conflict.Table
	log   wal.Log
	drv   *Driver
	ckpt  Checkpointer

	clock   int64
	seq     int64 // event sequence (Host.NextSeq)
	order   int64 // invocation order (completion-heap tie break)
	queue   completionHeap
	pending []pendingProc

	completions int
	crashed     bool
	err         error // first run-ending error (failed force-log, broken transition)
	outcomes    map[process.ID]*Outcome
	allProcs    []*process.Process // including restarts
}

// New creates an engine over the federation. The conflict table is
// derived from the subsystems' declared read/write sets.
func New(fed *subsystem.Federation, cfg Config) (*Engine, error) {
	table, err := fed.ConflictTable()
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.GroupCommit.Enabled() {
		cfg.Log = wal.NewGroupAppender(cfg.Log, cfg.GroupCommit, cfg.Inject)
	}
	e := &Engine{
		cfg:      cfg,
		fed:      fed,
		table:    table,
		log:      cfg.Log,
		outcomes: make(map[process.ID]*Outcome),
	}
	e.drv = &Driver{
		Host:       engineHost{e},
		Fed:        fed,
		Pol:        policy.New(table, policy.Config{Mode: cfg.Mode, BlockPivots: cfg.BlockPivots}),
		Coord:      twopc.New(cfg.Log.Append),
		Reg:        cfg.Metrics,
		Resilience: cfg.Resilience,
	}
	e.ckpt = Checkpointer{
		Every: cfg.CheckpointEvery, Limit: cfg.CheckpointLimit, Compact: cfg.CompactOnCheckpoint,
		Log: cfg.Log, Fed: fed, Conflicts: e.drv.Pol.Conflicts, Inject: cfg.Inject, Reg: cfg.Metrics,
	}
	if cfg.Metrics != nil {
		// Wire the registry through the whole stack: the coordinator
		// (prepared-set sizes), every subsystem (invocation counters,
		// in-doubt sizes) and the WAL (append/fsync totals).
		e.drv.Coord.Metrics = cfg.Metrics
		fed.SetMetrics(cfg.Metrics)
		if il, ok := e.log.(wal.Instrumented); ok {
			il.SetMetrics(cfg.Metrics)
		}
	}
	e.drv.Coord.Inject = cfg.Inject
	return e, nil
}

// engineHost is the engine as the driver's Host (kept off the exported
// Engine API).
type engineHost struct{ e *Engine }

func (h engineHost) NextSeq() int64 { h.e.seq++; return h.e.seq }
func (h engineHost) Now() int64     { return h.e.clock }

// ForceLog appends a record, bracketing the write with the configured
// crash points. A failed append ends the run with its error, and every
// later force-log is refused: no state change is applied unlogged.
func (h engineHost) ForceLog(rec wal.Record) bool {
	e := h.e
	if e.err != nil {
		return false
	}
	e.inject("sched:before-forcelog")
	if _, err := e.log.Append(rec); err != nil {
		e.fail(fmt.Errorf("scheduler: force-log: %w", err))
		return false
	}
	e.ckpt.Appended()
	e.inject("sched:after-forcelog")
	return true
}

// fail records the first run-ending error; RunJobs returns it.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// inject fires a named crash point; no-op without a configured hook.
func (e *Engine) inject(point string) {
	if e.cfg.Inject != nil {
		e.cfg.Inject(point)
	}
}

// Table returns the conflict table the engine scheduled under.
func (e *Engine) Table() *conflict.Table { return e.table }

// Log returns the engine's write-ahead log (for recovery).
func (e *Engine) Log() wal.Log { return e.log }

// Result is the outcome of a run.
type Result struct {
	// Schedule is the observed process schedule, reconstructed from the
	// finalized events; it can be checked with PRED(), Serializable()
	// and ProcessRecoverable().
	Schedule *schedule.Schedule
	Metrics  Metrics
	Outcomes map[process.ID]*Outcome
	Crashed  bool
}

// Job is a process with an arrival time in virtual ticks.
type Job struct {
	Proc    *process.Process
	Arrival int64
}

// ValidateJobs checks that the processes of a job set have guaranteed
// termination and reference only services the federation provides with
// matching kinds; the engine, the runtime and the hub run it before
// execution. Guaranteed termination is a property of the process
// structure, which process.ShapeKey encodes exactly (equal keys, equal
// verdicts), so process.ValidateGuaranteedTermination explores each
// structure once per shape per OS process and answers it from a set of
// at most 1,024 proven shapes after that; a failing job is explored on
// its own and returns at once. The service checks stay per job.
func ValidateJobs(fed *subsystem.Federation, jobs []Job) error {
	return validateJobs(fed, jobs, nil)
}

// JobProcs validates a job set (ValidateJobs) and returns each job's
// first incarnation, in job order, with the route of every activity
// resolved by the same lookup that checked it.
func JobProcs(fed *subsystem.Federation, jobs []Job) ([]*Proc, error) {
	n := 0
	for _, j := range jobs {
		n += j.Proc.Len()
	}
	routes := make([]subsystem.Route, n)
	if err := validateJobs(fed, jobs, routes); err != nil {
		return nil, err
	}
	procs := make([]*Proc, len(jobs))
	for i, j := range jobs {
		p := NewProc(j.Proc, i, j.Proc.ID.Origin(), j.Proc.ID, 0)
		p.routes, routes = routes[:j.Proc.Len():j.Proc.Len()], routes[j.Proc.Len():]
		procs[i] = p
	}
	return procs, nil
}

// validateJobs is ValidateJobs, storing each activity's route into
// routes, in job and activity order, when it is not nil.
func validateJobs(fed *subsystem.Federation, jobs []Job, routes []subsystem.Route) error {
	for _, j := range jobs {
		p := j.Proc
		if err := process.ValidateGuaranteedTermination(p); err != nil {
			return fmt.Errorf("scheduler: process %s lacks guaranteed termination: %w", p.ID, err)
		}
		for i := range p.Len() {
			a := p.ActivityAt(i)
			r, ok := fed.Route(a.Service)
			if !ok {
				return fmt.Errorf("scheduler: process %s uses unknown service %q", p.ID, a.Service)
			}
			if routes != nil {
				routes[0], routes = r, routes[1:]
			}
			spec := r.Spec()
			if spec.Kind != a.Kind {
				return fmt.Errorf("scheduler: process %s activity %d declares %v for service %q of kind %v",
					p.ID, a.Local, a.Kind, a.Service, spec.Kind)
			}
			if a.Kind == activity.Compensatable && spec.Compensation != a.Compensation {
				return fmt.Errorf("scheduler: process %s activity %d compensation %q, subsystem provides %q",
					p.ID, a.Local, a.Compensation, spec.Compensation)
			}
		}
	}
	return nil
}

// Run executes the processes to completion (or crash) and returns the
// observed schedule plus metrics; all processes arrive at time zero.
func (e *Engine) Run(procs []*process.Process) (*Result, error) {
	jobs := make([]Job, len(procs))
	for i, p := range procs {
		jobs[i] = Job{Proc: p}
	}
	return e.RunJobs(jobs)
}

// RunJobs executes the processes to completion (or crash), admitting
// each when the virtual clock reaches its arrival time. Process
// definitions must have guaranteed termination; services they reference
// must exist in the federation.
func (e *Engine) RunJobs(jobs []Job) (res *Result, err error) {
	// An armed fault plan (Config.Inject, or a fault-wrapped WAL) stops
	// the run by panicking with a crash sentinel; recover it here and
	// hand back the partial result so the caller can drive Recover over
	// the surviving log and subsystem state.
	defer OnInjectedCrash(func(point string) {
		e.crashed = true
		res = e.result()
		err = fmt.Errorf("%w (injected at %s)", ErrCrashed, point)
	})
	procs, err := JobProcs(e.fed, jobs)
	if err != nil {
		return nil, err
	}
	e.drv.Grow(len(procs))
	for i, j := range jobs {
		e.enqueue(procs[i], j.Arrival)
	}
	e.admit()

	stalls := 0
	for !e.crashed {
		e.dispatchAll()
		e.admit()
		if e.err != nil {
			return nil, e.err
		}
		if len(e.queue) == 0 {
			if e.drv.AnyReady() {
				continue
			}
			if e.allDone() {
				break
			}
			// Idle until the next arrival, if any.
			if next, ok := e.nextArrival(); ok && next > e.clock {
				e.clock = next
				continue
			}
			stalls++
			if stalls > maxStalls {
				return nil, fmt.Errorf("scheduler: stalled with active processes and no progress (mode %v)\n%s", e.cfg.Mode, e.stallDump())
			}
			if !e.resolveStall() {
				if e.err != nil {
					return nil, e.err
				}
				return nil, fmt.Errorf("scheduler: unresolvable stall (mode %v)\n%s", e.cfg.Mode, e.stallDump())
			}
			continue
		}
		// Admit arrivals that precede the next completion.
		if next, ok := e.nextArrival(); ok && next <= e.queue[0].at {
			if next > e.clock {
				e.clock = next
			}
			e.admit()
			continue
		}
		ev := heap.Pop(&e.queue).(*completion)
		if ev.at > e.clock {
			e.clock = ev.at
		}
		e.complete(ev)
		e.completions++
		if e.cfg.CrashAfterEvents > 0 && e.completions >= e.cfg.CrashAfterEvents {
			e.crashed = true
		}
	}
	if e.err != nil {
		return nil, e.err
	}
	res = e.result()
	if e.crashed {
		return res, ErrCrashed
	}
	return res, nil
}

// result materializes the observed process schedule from the finalized
// events, with the run's metrics and outcomes.
func (e *Engine) result() *Result {
	e.drv.Metrics.Makespan = e.clock
	return &Result{
		Schedule: e.drv.Pol.BuildSchedule(e.allProcs),
		Metrics:  e.drv.Metrics,
		Outcomes: e.outcomes,
		Crashed:  e.crashed,
	}
}

// enqueue registers an incarnation for admission at the given time.
func (e *Engine) enqueue(p *Proc, at int64) {
	e.allProcs = append(e.allProcs, p.Def)
	e.outcomes[p.ID] = p.Outcome
	p.Outcome.Start = e.clock
	e.pending = append(e.pending, pendingProc{p, at})
}

// admit moves pending processes into the running set per the policy.
func (e *Engine) admit() {
	var keep []pendingProc
	for _, pp := range e.pending {
		if pp.at > e.clock || !MayAdmit(e.cfg.Mode, e.table.Conflicts, pp.Footprint, e.active) || !e.drv.Admit(pp.Proc) {
			keep = append(keep, pp)
		}
	}
	e.pending = keep
}

// nextArrival returns the earliest future arrival among pending jobs.
func (e *Engine) nextArrival() (int64, bool) {
	found := false
	var min int64
	for _, pp := range e.pending {
		if pp.at > e.clock && (!found || pp.at < min) {
			min = pp.at
			found = true
		}
	}
	return min, found
}

// active yields the footprints of the admitted, unterminated processes.
func (e *Engine) active(yield func([]string) bool) {
	for _, o := range e.drv.All() {
		if o.Phase != policy.Done && !yield(o.Footprint) {
			return
		}
	}
}

// MayAdmit is the admission rule of the modes that decide at admission
// (their per-activity decisions are vacuous): Serial admits into an empty
// system, Conservative when the candidate's full service footprint
// conflicts with that of no active process. Every other mode admits.
func MayAdmit(mode Mode, conflicts func(a, b string) bool, fp []string, active iter.Seq[[]string]) bool {
	switch mode {
	case Serial:
		for range active {
			return false
		}
	case Conservative:
		for other := range active {
			for _, s1 := range fp {
				for _, s2 := range other {
					if conflicts(s1, s2) {
						return false
					}
				}
			}
		}
	}
	return true
}

// Footprint lists every service a process definition can touch,
// including compensations (used by conservative admission).
func Footprint(p *process.Process) []string {
	out := make([]string, 0, 2*p.Len())
	for i := range p.Len() {
		a := p.ActivityAt(i)
		out = append(out, a.Service)
		if a.Compensation != "" {
			out = append(out, a.Compensation)
		}
	}
	return out
}

func (e *Engine) allDone() bool {
	for range e.active {
		return false
	}
	return len(e.pending) == 0
}

// dispatchAll asks the driver what each ready process does next, in
// admission order.
func (e *Engine) dispatchAll() {
	for _, p := range e.drv.Ready() {
		if e.err != nil {
			break
		}
		if p.Phase != policy.Done {
			e.next(p)
		}
	}
}

// next runs Driver.Next for p, invoking every dispatchable activity.
// After a terminate the ready prepared sets that waited on p commit at
// once, before later processes dispatch in the same pass, and an aborted
// victim restarts.
func (e *Engine) next(p *Proc) {
	d := e.drv
	act, _, err := d.Next(p, e.invoke)
	if err != nil {
		e.fail(err)
	}
	if act != ActDone {
		return
	}
	for s := d.nextReady(0); s >= 0 && e.err == nil; s = d.nextReady(s + 1) {
		if _, err := d.settle(d.procs[s]); err != nil {
			e.fail(err)
		}
	}
	if !p.Outcome.Committed && p.Restartable && p.Restarts < e.cfg.MaxRestarts {
		e.restart(p)
	}
}

// invoke is the engine's hand in Driver.Next: it issues a subsystem
// invocation and schedules its completion, or returns the wait that
// refused it, and walks on over the frontier.
func (e *Engine) invoke(p *Proc, w Work) (Wait, bool) {
	d := e.drv
	res, extraLat, held := d.Invoke(p, w)
	if held.Rule != "" {
		return held, true
	}
	if !d.Dispatch(p, w) {
		return Wait{}, true // not logged: the prepared transaction stays in doubt for recovery, the run ends
	}
	e.order++
	heap.Push(&e.queue, &completion{
		Work: w, at: e.clock + d.Cost(w) + extraLat, order: e.order, proc: p, res: res,
	})
	return Wait{}, true
}

// complete applies one finished invocation.
func (e *Engine) complete(c *completion) {
	if err := e.drv.Complete(c.proc, c.Work, c.res); err != nil {
		e.fail(err)
	}
}

// restart re-enters an aborted process as a fresh instance under a
// derived id, admitted (and logged) after an exponential backoff so the
// contention that caused the abort can drain first.
func (e *Engine) restart(p *Proc) {
	e.drv.Metrics.Restarts++
	e.drv.Reg.Inc(metrics.ProcsRestarted)
	np := p.Restarted()
	e.enqueue(np, e.clock+int64(4<<np.Restarts))
}

// resolveStall aborts one blocked process to break a scheduling stall.
func (e *Engine) resolveStall() bool {
	victim := e.drv.ChooseVictim(nil)
	if victim == nil {
		return false
	}
	e.drv.MarkVictim(victim, "stall resolution")
	e.next(victim)
	return victim.Wait.Rule == "" // it moved
}

// stallDump renders the engine state for stall diagnostics.
func (e *Engine) stallDump() string {
	return fmt.Sprintf("clock=%d pending=%d\n%s", e.clock, len(e.pending), e.drv.Dump())
}
