package scheduler

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// RecoveryReport summarizes what crash recovery did.
type RecoveryReport struct {
	// Resolved2PC counts in-doubt transactions committed / rolled back
	// during resolution (presumed commit after a logged decision,
	// presumed abort otherwise).
	Resolved2PCCommitted int
	Resolved2PCAborted   int
	// BackwardRecovered lists processes completed by compensation.
	BackwardRecovered []process.ID
	// ForwardRecovered lists processes completed by their forward
	// recovery path.
	ForwardRecovered []process.ID
	// AlreadyTerminated lists processes the log shows as terminated.
	AlreadyTerminated []process.ID
	// Fates is the verdict on every incarnation the analysis saw: true
	// when its forward work stands (terminated committed, or an abort past
	// the pivot completed forward, F-REC), false when all of it is
	// compensated (terminated aborted, or recovered backward, B-REC). A
	// host decides from this alone which origins it may run again.
	Fates map[process.ID]bool
	// Compensations and ForwardInvocations executed during recovery.
	Compensations      int
	ForwardInvocations int
}

// Recover performs crash recovery: it analyzes the write-ahead log,
// resolves in-doubt two-phase-commit transactions, rebuilds the state of
// every active process, and executes the group abort of Definition 8.2b
// — compensating B-REC processes backward and driving F-REC processes
// forward along their retriable paths. Recovery rebuilds the process
// table and the policy state as they stood one instant before the crash
// and hosts the protocol driver (DESIGN.md §6l): every completion step
// is decided by the same Driver.Next (Lemmas 2 and 3, forced order) and
// logged and committed by the same transition as in an abort before the
// crash.
//
// The federation must be the surviving subsystem state; defs the process
// definitions known to the scheduler (by original id).
func Recover(fed *subsystem.Federation, log wal.Log, defs []*process.Process) (*RecoveryReport, error) {
	return RecoverWithMetrics(fed, log, defs, nil)
}

// RecoverWithMetrics is Recover with an observability registry attached:
// 2PC resolutions, orphan rollbacks, the group abort and the driver's
// decisions are recorded as counters and decision-trace events. A nil
// registry makes it identical to Recover.
func RecoverWithMetrics(fed *subsystem.Federation, log wal.Log, defs []*process.Process, m *metrics.Registry) (*RecoveryReport, error) {
	rep, err := recoverLog(fed, log, defs, m, false)
	if err != nil {
		return nil, err
	}
	return rep.RecoveryReport, nil
}

// recoverLog is restart recovery, the only reader and the only judge of
// the log at restart: one read and analysis, the page-level phase of
// RecoverDurable on that analysis when pages asks for it and a store is
// attached, then 2PC resolution, the group abort and the driver run.
func recoverLog(fed *subsystem.Federation, log wal.Log, defs []*process.Process, m *metrics.Registry, pages bool) (*DurableReport, error) {
	r, err := restart(fed, log, defs, m, pages)
	if err != nil {
		return nil, err
	}
	return r.groupAbort()
}

// restarted is restart recovery one instant before the group abort: the
// driver holds every interrupted process as the log rebuilds it.
type restarted struct {
	e  *Engine
	m  *metrics.Registry
	rp *wal.Replay // the log's replay view, folded
	// recs are the records of the interrupted processes followed by
	// phase 1's resolution records, pos their positions in the view.
	recs  []wal.Record
	pos   []int
	rep   *DurableReport
	pages bool
}

// restart reads and folds the log, runs the page-level phase when pages
// asks for it, resolves in-doubt transactions (phases 1 and 1b) and
// rebuilds the interrupted processes (phase 2).
func restart(fed *subsystem.Federation, log wal.Log, defs []*process.Process, m *metrics.Registry, pages bool) (*restarted, error) {
	// Phase 1b below looks up only the transactions still in doubt at the
	// subsystems, a subset of those in doubt now: the fold keeps the
	// redo-commit entries of these alone, not the whole history's.
	doubt := doubtSet(fed.InDoubt())
	// Bounded replay: the view starts from the latest valid checkpoint
	// instead of LSN 1 — its live records plus the post-horizon tail, or
	// every record when no (valid) checkpoint exists, including the
	// corrupt-checkpoint fallback. Terminated history enters as images
	// only; the interrupted processes' records are decoded in full.
	rp, err := wal.ReadReplay(log, doubt)
	if err != nil {
		return nil, err
	}
	m.Observe(metrics.HistReplayRecords, int64(rp.Len()))
	m.Observe(metrics.HistReplaySkipped, int64(rp.Skipped))
	if rp.Fallback {
		m.Inc(metrics.CheckpointFallbacks)
	}
	images := rp.Images
	rep := &DurableReport{RecoveryReport: &RecoveryReport{Fates: make(map[process.ID]bool, len(images))}}
	report := rep.RecoveryReport
	if pages = pages && fed.Durable(); pages {
		if err := restorePages(fed, rp, rep); err != nil {
			return nil, err
		}
	}
	byID := make(map[process.ID]*process.Process, len(defs))
	for _, p := range defs {
		byID[p.ID] = p
	}

	// Recovery is the sequential engine started from a recovered state:
	// same host (force-log, sequence numbers), same driver, same wiring of
	// the registry into coordinator, subsystems and log.
	e, err := New(fed, Config{Log: log, Metrics: m})
	if err != nil {
		return nil, err
	}
	d := e.drv

	// Deterministic order over processes.
	ids := slices.Sorted(maps.Keys(images))

	// Phase 1 is redo/undo of the log and has no counterpart before the
	// crash: resolve in-doubt transactions (presumed commit when a
	// decision record exists, presumed abort otherwise). The instance
	// rebuild must observe the resolution records this appends (a decided
	// prepared transaction is now committed, an undecided one rolled
	// back); recovery never checkpoints, so they extend the view.
	recs, pos, next := rp.Live, rp.Pos, rp.Len()
	for _, id := range ids {
		resolved, err := d.Coord.Resolve(fed, images[id])
		if err != nil {
			return nil, fmt.Errorf("scheduler: resolving 2PC for %s: %w", id, err)
		}
		for _, r := range resolved {
			if r.Commit {
				report.Resolved2PCCommitted++
			} else {
				report.Resolved2PCAborted++
			}
			recs, pos = append(recs, r), append(pos, next)
			next++
		}
	}

	// Phase 1b: orphaned in-doubt transactions. An invocation may have
	// been dispatched (locks acquired, transaction prepared at the
	// subsystem) without its outcome reaching the log before the crash.
	// The log then has no prepared record, so the coordinator presumes
	// abort: any subsystem in-doubt transaction not known to the log is
	// rolled back — the classical "no prepare record → abort" rule.
	//
	// Redo rule: the log may show a transaction as committed (a step
	// outcome or resolution record carrying its id) while the crash hit
	// before the subsystem commit was applied. Such transactions are
	// in doubt at the subsystem with no prepared record, but they must
	// be committed, not presumed aborted — the log is the authority.
	inDoubt := fed.InDoubt()
	doubt = doubtSet(inDoubt)
	known, redo := make(map[txKey]bool), make(map[txKey]bool)
	for _, img := range images {
		for _, ptx := range img.Prepared {
			if doubt.Has(ptx.Subsystem, ptx.Tx) {
				known[txKey{ptx.Subsystem, ptx.Tx}] = true
			}
		}
		for _, ptx := range img.RedoCommit {
			if doubt.Has(ptx.Subsystem, ptx.Tx) {
				redo[txKey{ptx.Subsystem, ptx.Tx}] = true
			}
		}
	}
	for subName, recsInDoubt := range inDoubt {
		sub, _ := fed.Subsystem(subName)
		for _, r := range recsInDoubt {
			if known[txKey{subName, int64(r.Tx)}] {
				continue
			}
			if redo[txKey{subName, int64(r.Tx)}] {
				if err := sub.CommitPrepared(r.Tx); err != nil {
					return nil, fmt.Errorf("scheduler: redoing commit of transaction %d at %s: %w", r.Tx, subName, err)
				}
				report.Resolved2PCCommitted++
				m.Inc(metrics.DeferredCommitted2PC)
				m.Trace(metrics.TCommit, 0, "", int(r.Tx), "", "logged as committed: redo")
				continue
			}
			if err := sub.AbortPrepared(r.Tx); err != nil {
				return nil, fmt.Errorf("scheduler: aborting orphaned transaction %d at %s: %w", r.Tx, subName, err)
			}
			report.Resolved2PCAborted++
			m.Inc(metrics.RollbacksOrphaned)
			m.Trace(metrics.TRollback, 0, "", int(r.Tx), "", "no prepare record: presumed abort")
		}
	}

	// Phase 2, analysis: the driver's state one instant before the crash.
	// Event sequence numbers are log positions, so what the driver appends
	// from here on sorts after everything the log already holds.
	e.seq = int64(next)
	for _, id := range ids {
		if img := images[id]; img.Terminated {
			report.AlreadyTerminated = append(report.AlreadyTerminated, process.ID(id))
			report.Fates[process.ID(id)] = img.Stands
			continue
		}
		def := byID[process.ID(id).Origin()]
		if def == nil {
			return nil, fmt.Errorf("scheduler: recovery found unknown process %q in the log", id)
		}
		def = def.WithID(process.ID(id)) // a restart incarnation runs under a derived id
		d.Add(NewProc(def, -1, def.ID.Origin(), def.ID, 0))
	}
	if err := rebuild(d, recs, pos); err != nil {
		return nil, err
	}
	for _, p := range d.All() {
		// Past its pivot (F-REC) the abort completes forward: the terminate
		// record will read aborted, but the work stands.
		report.Fates[p.ID] = p.Inst.Mode() != process.BREC
		if report.Fates[p.ID] {
			report.ForwardRecovered = append(report.ForwardRecovered, p.ID)
		} else {
			report.BackwardRecovered = append(report.BackwardRecovered, p.ID)
		}
	}
	return &restarted{e: e, m: m, rp: rp, recs: recs, pos: pos, rep: rep, pages: pages}, nil
}

// txKey names a transaction at a subsystem.
type txKey struct {
	sub string
	tx  int64
}

// doubtSet indexes the transactions a federation holds in doubt.
func doubtSet(inDoubt map[string][]subsystem.InDoubtRecord) wal.TxSet {
	set := make(wal.TxSet)
	for sub, recs := range inDoubt {
		for _, r := range recs {
			set.Add(sub, int64(r.Tx))
		}
	}
	return set
}

// groupAbort is phase 3: the group abort of every rebuilt process, run by
// the driver to quiescence, and the recovered image made durable.
func (r *restarted) groupAbort() (*DurableReport, error) {
	e, m, rep := r.e, r.m, r.rep
	d, fed, report := e.drv, e.fed, rep.RecoveryReport
	if len(d.All()) > 0 {
		// One group abort covers all interrupted processes
		// (Definition 8.2b): each one's completion becomes its recovery
		// queue.
		m.Inc(metrics.GroupAborts)
		m.Trace(metrics.TGroupAbort, 0, "", len(d.All()), "", "")
	}
	forward := false
	for _, p := range d.All() {
		if err := d.BeginAbort(p); err != nil {
			e.fail(err)
		}
		for _, st := range p.Recovery {
			forward = forward || st.Kind == process.StepInvoke
		}
	}

	// The committed, uncompensated activities of the log enter the policy
	// state at their commit positions, so that BaseSeq and the step gates
	// answer as they would have before the crash. Without a forward step
	// in any completion only the recovering processes' own activities
	// matter (a terminated process never holds back a compensation). A
	// forward step appends a new event after everything in the log and
	// must be ordered against all of it, also through processes that
	// terminated in between: then the terminated processes' activities
	// enter too, or — replaying from a checkpoint that summarized them —
	// its closure edges and, at the horizon, its shadow services
	// (policy.State.SeedSummary).
	keep := func(proc string) bool { return d.Get(process.ID(proc)) != nil }
	recs, pos := r.recs, r.pos
	if forward {
		// Every record of the view, then phase 1's: the history's commits
		// too, which only the fold's images summarized.
		view, err := r.rp.Records()
		if err != nil {
			return nil, err
		}
		recs = append(slices.Clip(view), recs[len(r.rp.Live):]...)
		pos, keep = nil, nil
	}
	seed := func(evs []int) {
		for _, i := range evs {
			seq := i + 1 // with forward, recs is the whole view
			if pos != nil {
				seq = pos[i] + 1
			}
			// Kind only feeds BuildSchedule, which recovery never calls.
			d.Pol.AppendEvent(&policy.Event{
				Seq: int64(seq), Proc: process.ID(recs[i].Proc), Local: recs[i].Local,
				Service: recs[i].Service, Typ: schedule.Invoke,
			})
		}
	}
	evs := wal.EffectiveCommits(recs, keep)
	if ckpt := r.rp.Checkpoint; forward && ckpt != nil {
		horizon := sort.SearchInts(evs, len(ckpt.Live))
		seed(evs[:horizon])
		d.Pol.SeedSummary(ckpt.Edges, ckpt.Shadow, int64(len(ckpt.Live)))
		evs = evs[horizon:]
	}
	seed(evs)

	// Phase 3: run the driver to quiescence. What a step does and whether
	// it may run now is the driver's (Next), asked of the ready processes
	// only; which of the head steps that pass their gate goes next is the
	// host's, so exec only claims them.
	// The log's judge wants the compensations of the whole group abort in
	// strictly decreasing order of their bases' commit positions,
	// conflicting or not (fault.CheckRecovered, invariant 4) — more than
	// Lemma 2 gives: so the compensation with the latest base goes first,
	// and a forward step only when no compensation can.
	claim := func(*Proc, Work) (Wait, bool) { return Wait{}, false }
	for !e.allDone() && e.err == nil {
		var pick *Proc
		var step Work
		var latest int64
		for _, p := range d.Ready() {
			if p.Phase == policy.Done {
				continue
			}
			act, w, err := d.Next(p, claim)
			if err != nil {
				e.fail(err)
			}
			if act == ActInvoke {
				var base int64 // a forward step: after every compensation
				if w.Step.Kind == process.StepCompensate {
					base = d.Pol.BaseSeq(p.ID, w.Local)
				}
				if pick == nil || base > latest {
					pick, step, latest = p, w, base
				}
			}
		}
		if pick == nil {
			// Nothing to invoke. A rollback phase 1 already resolved that
			// settled, or a drained abort that concluded, marked whom it may
			// release; with no one marked and the group not done, no gate
			// will clear.
			if e.err == nil && !d.AnyReady() && !e.allDone() {
				return nil, fmt.Errorf("scheduler: recovery stalled: no step of the group abort passes its gate\n%s", d.Dump())
			}
			continue
		}
		if _, ok := fed.Owner(step.Service); !ok {
			return nil, fmt.Errorf("scheduler: recovery found unknown service %q", step.Service)
		}
		// Invoke, dispatch and complete, one step at a time. A refused
		// force-log ends recovery (e.err) before the step commits: the
		// prepared transaction stays in doubt, the next recovery presumes
		// it aborted and re-executes the step.
		res, _, held := d.Invoke(pick, step)
		if held.Rule != "" {
			// Lock conflicts cannot persist here: phase 1 released the
			// in-doubt locks and no other step is in flight.
			return nil, fmt.Errorf("scheduler: recovery invoking %s for %s: item locks held", step.Service, pick.ID)
		}
		if !d.Dispatch(pick, step) {
			continue
		}
		if err := d.Complete(pick, step, res); err != nil {
			e.fail(err)
		}
		switch {
		case res == nil || e.err != nil: // transient failure (the driver retries), or not logged
		case step.Step.Kind == process.StepCompensate:
			report.Compensations++
			m.Inc(metrics.RecoveryCompensations)
		default:
			report.ForwardInvocations++
			m.Inc(metrics.RecoveryForwardInvokes)
		}
	}
	if e.err != nil {
		return nil, e.err
	}
	if r.pages {
		// The recovered image becomes the base a second crash replays from.
		for _, sub := range fed.Subsystems() {
			n, err := sub.FlushStore()
			if err != nil {
				return nil, fmt.Errorf("scheduler: flushing %s after recovery: %w", sub.Name(), err)
			}
			rep.FlushedPages += n
		}
	}
	return rep, nil
}

// rebuild replays the records of the driver's processes into their fresh
// instances, all in one pass, and sets each one's arrival to the view
// position (pos) of its first record (its age).
func rebuild(d *Driver, recs []wal.Record, pos []int) error {
	if len(d.All()) == 0 {
		return nil
	}
	for i, r := range recs {
		p := d.Get(process.ID(r.Proc))
		if p == nil {
			continue
		}
		if p.Arrival < 0 {
			p.Arrival = pos[i]
		}
		// (record, status) -> transition; anything else leaves the instance
		// as it is (a redo-commit's second resolution, an outcome of an
		// abandoned branch).
		inst := p.Inst
		var err error
		switch st := inst.Status(r.Local); {
		case r.Type == wal.RecOutcome && r.Outcome == "committed" && (st == process.Pending || st == process.Prepared),
			r.Type == wal.RecResolved && r.Commit && st == process.Prepared:
			err = inst.MarkCommitted(r.Local)
		case r.Type == wal.RecOutcome && r.Outcome == "prepared" && st == process.Pending:
			err = inst.MarkPrepared(r.Local)
		case r.Type == wal.RecResolved && !r.Commit && st == process.Prepared:
			// Presumed abort rolled the local transaction back without
			// failing the process: the activity returns to pending so a
			// forward-recovery completion can re-invoke it (an
			// aborted-prepared activity would poison the F-REC path).
			err = inst.ResetPrepared(r.Local)
		case r.Type == wal.RecFailed && st == process.Pending:
			_, err = inst.MarkFailed(r.Local)
		case r.Type == wal.RecCompensate && st == process.Committed:
			err = inst.MarkCompensated(r.Local)
		}
		if err != nil {
			return fmt.Errorf("scheduler: rebuilding %s: %w", p.ID, err)
		}
	}
	return nil
}
