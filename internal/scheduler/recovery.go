package scheduler

import (
	"errors"
	"fmt"
	"sort"

	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/subsystem"
	"transproc/internal/twopc"
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
	// Compensations and ForwardInvocations executed during recovery.
	Compensations      int
	ForwardInvocations int
}

// Recover performs crash recovery: it analyzes the write-ahead log,
// resolves in-doubt two-phase-commit transactions, rebuilds the state of
// every active process, and executes the group abort of Definition 8.2b
// — compensating B-REC processes backward and driving F-REC processes
// forward along their retriable paths. Compensations across processes
// run in reverse global order of their base activities (Lemma 2) and
// before conflicting forward invocations (Lemma 3).
//
// The federation must be the surviving subsystem state; defs the process
// definitions known to the scheduler (by original id).
func Recover(fed *subsystem.Federation, log wal.Log, defs []*process.Process) (*RecoveryReport, error) {
	return RecoverWithMetrics(fed, log, defs, nil)
}

// RecoverWithMetrics is Recover with an observability registry attached:
// 2PC resolutions, orphan rollbacks, the group abort and every recovery
// step are recorded as counters and decision-trace events. A nil
// registry makes it identical to Recover.
func RecoverWithMetrics(fed *subsystem.Federation, log wal.Log, defs []*process.Process, m *metrics.Registry) (*RecoveryReport, error) {
	raw, err := log.Records()
	if err != nil {
		return nil, err
	}
	// Bounded replay: start from the latest valid checkpoint instead of
	// LSN 1. Expand yields the checkpoint's live records plus the
	// post-horizon tail — or the full record list when no (valid)
	// checkpoint exists, including the corrupt-checkpoint fallback.
	exp := wal.Expand(raw)
	m.Observe(metrics.HistReplayRecords, int64(len(exp.Records)))
	m.Observe(metrics.HistReplaySkipped, int64(exp.Skipped))
	if exp.Fallback {
		m.Inc(metrics.CheckpointFallbacks)
	}
	ckpt := exp.Checkpoint
	recs := exp.Records
	images, err := wal.Analyze(recs)
	if err == wal.ErrNoLog {
		return &RecoveryReport{}, nil
	}
	if err != nil {
		return nil, err
	}
	byID := make(map[process.ID]*process.Process, len(defs))
	for _, p := range defs {
		byID[p.ID] = p
	}

	coord := twopc.New(log)
	coord.Metrics = m
	if m != nil {
		fed.SetMetrics(m)
		if il, ok := log.(wal.Instrumented); ok {
			il.SetMetrics(m)
		}
	}
	report := &RecoveryReport{}

	// Deterministic order over processes.
	var ids []string
	for id := range images {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	// Phase 1: resolve in-doubt transactions (presumed commit when a
	// decision record exists, presumed abort otherwise).
	for _, id := range ids {
		img := images[id]
		c, a, err := coord.Resolve(fed, img)
		if err != nil {
			return nil, fmt.Errorf("scheduler: resolving 2PC for %s: %w", id, err)
		}
		report.Resolved2PCCommitted += c
		report.Resolved2PCAborted += a
	}

	// Phase 1b: orphaned in-doubt transactions. An invocation may have
	// been dispatched (locks acquired, transaction prepared at the
	// subsystem) without its outcome reaching the log before the crash.
	// The log then has no prepared record, so the coordinator presumes
	// abort: any subsystem in-doubt transaction not known to the log is
	// rolled back — the classical "no prepare record → abort" rule.
	known := make(map[string]map[int64]bool) // subsystem -> tx set
	for _, img := range images {
		for _, ptx := range img.Prepared {
			if known[ptx.Subsystem] == nil {
				known[ptx.Subsystem] = make(map[int64]bool)
			}
			known[ptx.Subsystem][ptx.Tx] = true
		}
	}
	// Redo rule: the log may show a transaction as committed (a step
	// outcome or resolution record carrying its id) while the crash hit
	// before the subsystem commit was applied. Such transactions are
	// in doubt at the subsystem with no prepared record, but they must
	// be committed, not presumed aborted — the log is the authority.
	redo := make(map[string]map[int64]bool) // subsystem -> tx set
	for _, img := range images {
		for _, ptx := range img.RedoCommit {
			if redo[ptx.Subsystem] == nil {
				redo[ptx.Subsystem] = make(map[int64]bool)
			}
			redo[ptx.Subsystem][ptx.Tx] = true
		}
	}
	for subName, recsInDoubt := range fed.InDoubt() {
		sub, _ := fed.Subsystem(subName)
		for _, r := range recsInDoubt {
			if known[subName][int64(r.Tx)] {
				continue
			}
			if redo[subName][int64(r.Tx)] {
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

	// Re-read the log: phase 1 appended resolution records that the
	// instance rebuild must observe (a decided prepared transaction is
	// now committed, an undecided one rolled back). Recovery never
	// checkpoints, so the expansion's checkpoint is unchanged and the
	// new records land in its tail.
	raw, err = log.Records()
	if err != nil {
		return nil, err
	}
	recs = wal.Expand(raw).Records

	// Phase 2: rebuild instances of active processes and compute their
	// completions.
	type pendingCompletion struct {
		id    process.ID
		def   *process.Process
		inst  *process.Instance
		steps []process.Step
		// seqOf maps a local id to the WAL position of its commit, for
		// the global reverse ordering of compensations.
		seqOf map[int]int
	}
	var completions []*pendingCompletion
	for _, id := range ids {
		img := images[id]
		if img.Terminated {
			report.AlreadyTerminated = append(report.AlreadyTerminated, process.ID(id))
			continue
		}
		def := byID[resolveOrigin(process.ID(id))]
		if def == nil {
			return nil, fmt.Errorf("scheduler: recovery found unknown process %q in the log", id)
		}
		if def.ID != process.ID(id) {
			def = def.WithID(process.ID(id))
		}
		inst, seqOf, err := rebuildInstance(def, recs)
		if err != nil {
			return nil, fmt.Errorf("scheduler: rebuilding %s: %w", id, err)
		}
		mode := inst.Mode()
		steps, err := inst.Abort()
		if err != nil {
			return nil, fmt.Errorf("scheduler: completion of %s: %w", id, err)
		}
		completions = append(completions, &pendingCompletion{
			id: process.ID(id), def: def, inst: inst, steps: steps, seqOf: seqOf,
		})
		if mode == process.BREC {
			report.BackwardRecovered = append(report.BackwardRecovered, process.ID(id))
			m.Inc(metrics.BackwardRecoveries)
			m.Trace(metrics.TBackward, 0, id, 0, "", "group abort: B-REC")
		} else {
			report.ForwardRecovered = append(report.ForwardRecovered, process.ID(id))
			m.Inc(metrics.ForwardRecoveries)
			m.Trace(metrics.TForward, 0, id, 0, "", "group abort: F-REC")
		}
	}
	if len(completions) > 0 {
		// One group abort covers all interrupted processes
		// (Definition 8.2b).
		m.Inc(metrics.GroupAborts)
		m.Trace(metrics.TGroupAbort, 0, "", len(completions), "", "")
	}

	// Phase 3: execute the group abort. First all rollbacks of leftover
	// prepared transactions (no effects), then all compensations in
	// reverse global order of their bases (Lemma 2), then the forward
	// invocations per process in order (after conflicting compensations,
	// Lemma 3 — trivially satisfied by running all compensations first).
	type globalStep struct {
		pc   *pendingCompletion
		st   process.Step
		base int // WAL position of the base commit (compensations)
	}
	var rollbacks, comps, forwards []globalStep
	for _, pc := range completions {
		for _, st := range pc.steps {
			switch st.Kind {
			case process.StepAbortPrepared:
				rollbacks = append(rollbacks, globalStep{pc: pc, st: st})
			case process.StepCompensate:
				comps = append(comps, globalStep{pc: pc, st: st, base: pc.seqOf[st.Local]})
			case process.StepInvoke:
				forwards = append(forwards, globalStep{pc: pc, st: st})
			}
		}
	}
	sort.SliceStable(comps, func(i, j int) bool { return comps[i].base > comps[j].base })

	exec := func(gs globalStep) error {
		switch gs.st.Kind {
		case process.StepAbortPrepared:
			// Already handled in phase 1 (presumed abort resolved the
			// in-doubt transaction); just update the instance.
			return gs.pc.inst.ApplyStep(gs.st)
		case process.StepCompensate, process.StepInvoke:
			// Prepare, force-log the outcome with the transaction id,
			// then commit. A crash between the log write and the commit
			// leaves an in-doubt transaction the next recovery redoes
			// via RedoCommit (exactly-once); a crash before the log
			// write leaves an orphan the next recovery presumes aborted
			// and the step is simply re-executed.
			var res *subsystem.Result
			for {
				var err error
				res, err = fed.Invoke(string(resolveOrigin(gs.pc.id)), gs.st.Service, subsystem.Prepare)
				if err == nil {
					break
				}
				if errors.Is(err, subsystem.ErrAborted) {
					continue // retriable: re-invoke
				}
				// Lock conflicts cannot persist here: recovery runs
				// sequentially and phase 1 released in-doubt locks.
				return fmt.Errorf("scheduler: recovery invoking %s: %w", gs.st.Service, err)
			}
			sub, ok := fed.Owner(gs.st.Service)
			if !ok {
				return fmt.Errorf("scheduler: recovery found unknown service %q", gs.st.Service)
			}
			rec := wal.Record{
				Type: wal.RecCompensate, Proc: string(gs.pc.id), Local: gs.st.Local,
				Service: gs.st.Service, Subsystem: sub.Name(), Tx: int64(res.Tx),
			}
			if gs.st.Kind == process.StepCompensate {
				report.Compensations++
				m.Inc(metrics.RecoveryCompensations)
				m.Trace(metrics.TCompensate, 0, string(gs.pc.id), gs.st.Local, gs.st.Service, "recovery")
			} else {
				report.ForwardInvocations++
				m.Inc(metrics.RecoveryForwardInvokes)
				m.Trace(metrics.TRecoveryStep, 0, string(gs.pc.id), gs.st.Local, gs.st.Service, "recovery")
				rec.Type, rec.Outcome = wal.RecOutcome, "committed"
			}
			// An unlogged step must not commit: the next recovery would
			// not know it ran and would repeat it.
			if _, err := log.Append(rec); err != nil {
				return fmt.Errorf("scheduler: recovery logging %s: %w", gs.st.Service, err)
			}
			if err := sub.CommitPrepared(res.Tx); err != nil {
				return fmt.Errorf("scheduler: recovery committing %s: %w", gs.st.Service, err)
			}
			return gs.pc.inst.ApplyStep(gs.st)
		}
		return nil
	}
	for _, gs := range rollbacks {
		if err := exec(gs); err != nil {
			return nil, err
		}
	}
	for _, gs := range comps {
		if err := exec(gs); err != nil {
			return nil, err
		}
	}
	// Forward completion invocations append new committed events after
	// everything already in the log, so any conflict with an earlier
	// committed activity orders that activity's process first. Live,
	// the dispatch gates keep such edges acyclic; here they are gone,
	// so run the forward steps in a topological order of the
	// serialization edges the log witnesses (built after the
	// compensations ran: a compensated base no longer constrains).
	if len(forwards) > 0 {
		rawNow, err := log.Records()
		if err != nil {
			return nil, err
		}
		recsNow := wal.Expand(rawNow).Records
		fwSteps := make(map[process.ID][]string)
		for _, gs := range forwards {
			fwSteps[gs.pc.id] = append(fwSteps[gs.pc.id], gs.st.Service)
		}
		rank, err := commitSerializationRanks(fed, recsNow, fwSteps, ckpt)
		if err != nil {
			return nil, err
		}
		sort.SliceStable(forwards, func(i, j int) bool {
			return rank[forwards[i].pc.id] < rank[forwards[j].pc.id]
		})
	}
	for _, gs := range forwards {
		if err := exec(gs); err != nil {
			return nil, err
		}
	}
	for _, pc := range completions {
		pc.inst.MarkTerminated(false)
		if _, err := log.Append(wal.Record{Type: wal.RecTerminate, Proc: string(pc.id), Committed: false}); err != nil {
			return nil, fmt.Errorf("scheduler: recovery logging termination of %s: %w", pc.id, err)
		}
	}
	return report, nil
}

// commitSerializationRanks orders the log's processes consistently with
// the serialization edges the recovered schedule will contain: P
// precedes Q when a committed, uncompensated activity of P conflicts
// with a later one of Q, and also when such an activity of P conflicts
// with a forward completion step Q has yet to run (the step is appended
// after everything in the log, so that edge is mandatory — mirroring
// Schedule.completionRank). Committed activities sit at their *commit*
// position: immediate commits at the committed outcome record,
// 2PC-deferred commits at the RecResolved record (Lemma 1). The result
// is a deterministic topological order (ties broken by first-commit
// position, then id). A correct log cannot contain a cycle; should one
// appear anyway, the remaining processes fall back to the tie-break
// order.
//
// When recovery replays from a checkpoint (ckpt non-nil), the records
// of summarized processes are gone — edges that ran through them are
// re-created from the checkpoint's closure (Edges, live→live paths the
// build already resolved) and its Shadow sets (summarized committed
// services reachable from each live process, conflict-checked against
// post-horizon events and the pending forward steps). Both encode only
// paths that truly existed, so no spurious cycle can appear.
func commitSerializationRanks(fed *subsystem.Federation, recs []wal.Record, fwSteps map[process.ID][]string, ckpt *wal.Checkpoint) (map[process.ID]int, error) {
	table, err := fed.ConflictTable()
	if err != nil {
		return nil, err
	}
	compensated := make(map[string]bool) // "proc/local"
	for _, r := range recs {
		if r.Type == wal.RecCompensate {
			compensated[fmt.Sprintf("%s/%d", r.Proc, r.Local)] = true
		}
	}
	type commEv struct {
		proc process.ID
		svc  string
		lsn  int64
	}
	var evs []commEv
	first := make(map[process.ID]int)
	nodes := make(map[process.ID]bool)
	emitted := make(map[string]bool) // "proc/local" (redo-commit dedup)
	for i, r := range recs {
		if r.Proc != "" {
			nodes[process.ID(r.Proc)] = true
		}
		committed := (r.Type == wal.RecOutcome && r.Outcome == "committed") ||
			(r.Type == wal.RecResolved && r.Commit)
		key := fmt.Sprintf("%s/%d", r.Proc, r.Local)
		if !committed || compensated[key] || emitted[key] {
			continue
		}
		emitted[key] = true
		p := process.ID(r.Proc)
		if _, ok := first[p]; !ok {
			first[p] = i
		}
		evs = append(evs, commEv{proc: p, svc: r.Service, lsn: r.LSN})
	}
	succ := make(map[process.ID]map[process.ID]bool)
	indeg := make(map[process.ID]int)
	addEdge := func(a, b process.ID) {
		if a == b || succ[a][b] {
			return
		}
		if succ[a] == nil {
			succ[a] = make(map[process.ID]bool)
		}
		succ[a][b] = true
		indeg[b]++
	}
	for i := 0; i < len(evs); i++ {
		for j := i + 1; j < len(evs); j++ {
			if table.Conflicts(evs[i].svc, evs[j].svc) {
				addEdge(evs[i].proc, evs[j].proc)
			}
		}
		for q, steps := range fwSteps {
			if q == evs[i].proc {
				continue
			}
			for _, svc := range steps {
				if table.Conflicts(evs[i].svc, svc) {
					addEdge(evs[i].proc, q)
					break
				}
			}
		}
	}
	if ckpt != nil {
		// Closure edges among live processes, resolved at build time.
		for _, ed := range ckpt.Edges {
			a, b := process.ID(ed[0]), process.ID(ed[1])
			if nodes[a] && nodes[b] {
				addEdge(a, b)
			}
		}
		// Shadow services: committed work of summarized processes
		// reachable from a live one. A conflict with an event the
		// build could not see (past the horizon) or with a pending
		// forward step re-creates the transitive edge.
		for p, svcs := range ckpt.Shadow {
			pid := process.ID(p)
			if !nodes[pid] {
				continue
			}
			for _, s := range svcs {
				for _, e := range evs {
					if e.lsn > ckpt.Horizon && e.proc != pid && table.Conflicts(s, e.svc) {
						addEdge(pid, e.proc)
					}
				}
				for q, steps := range fwSteps {
					if q == pid {
						continue
					}
					for _, svc := range steps {
						if table.Conflicts(s, svc) {
							addEdge(pid, q)
							break
						}
					}
				}
			}
		}
	}
	order := make([]process.ID, 0, len(nodes))
	for p := range nodes {
		order = append(order, p)
	}
	sort.Slice(order, func(i, j int) bool {
		fi, oki := first[order[i]]
		fj, okj := first[order[j]]
		if oki && okj && fi != fj {
			return fi < fj
		}
		if oki != okj {
			return oki // processes with committed work first
		}
		return order[i] < order[j]
	})
	rank := make(map[process.ID]int, len(order))
	placed := make(map[process.ID]bool)
	for len(rank) < len(order) {
		var pick process.ID
		found := false
		for _, p := range order {
			if !placed[p] && indeg[p] == 0 {
				pick, found = p, true
				break
			}
		}
		if !found {
			for _, p := range order {
				if !placed[p] {
					placed[p] = true
					rank[p] = len(rank)
				}
			}
			break
		}
		placed[pick] = true
		rank[pick] = len(rank)
		for q := range succ[pick] {
			indeg[q]--
		}
	}
	return rank, nil
}

// Origin strips an incarnation id's restart suffixes ("P1+r2",
// "P1+r2+r1" -> "P1"): the identity under which subsystems track the
// process's locks and deterministic failure rules. Engines resolve
// every admitted job through it, so work re-submitted under a derived
// id (restart recovery, the ingestion server's resume set) stays the
// same process to the federation.
func Origin(id process.ID) process.ID { return resolveOrigin(id) }

// resolveOrigin strips a restart suffix ("P1+r2" -> "P1").
func resolveOrigin(id process.ID) process.ID {
	s := string(id)
	for i := 0; i < len(s); i++ {
		if s[i] == '+' {
			return process.ID(s[:i])
		}
	}
	return id
}

// rebuildInstance replays a process's WAL records into a fresh instance
// and returns it together with the WAL position of each commit.
func rebuildInstance(def *process.Process, recs []wal.Record) (*process.Instance, map[int]int, error) {
	inst := process.NewInstance(def)
	seqOf := make(map[int]int)
	for i, r := range recs {
		if r.Proc != string(def.ID) {
			continue
		}
		switch r.Type {
		case wal.RecOutcome:
			switch r.Outcome {
			case "committed":
				if st := inst.Status(r.Local); st == process.Pending || st == process.Prepared {
					if err := inst.MarkCommitted(r.Local); err != nil {
						return nil, nil, err
					}
					seqOf[r.Local] = i
				}
			case "prepared":
				if inst.Status(r.Local) == process.Pending {
					if err := inst.MarkPrepared(r.Local); err != nil {
						return nil, nil, err
					}
					seqOf[r.Local] = i
				}
			}
		case wal.RecResolved:
			if r.Commit {
				if inst.Status(r.Local) == process.Prepared {
					if err := inst.MarkCommitted(r.Local); err != nil {
						return nil, nil, err
					}
					seqOf[r.Local] = i
				}
			} else if inst.Status(r.Local) == process.Prepared {
				// Presumed abort rolled the local transaction back without
				// failing the process: the activity returns to pending so a
				// forward-recovery completion can re-invoke it (an
				// aborted-prepared activity would poison the F-REC path).
				if err := inst.ResetPrepared(r.Local); err != nil {
					return nil, nil, err
				}
			}
		case wal.RecFailed:
			if inst.Status(r.Local) == process.Pending {
				if _, err := inst.MarkFailed(r.Local); err != nil {
					return nil, nil, err
				}
			}
		case wal.RecCompensate:
			if inst.Status(r.Local) == process.Committed {
				if err := inst.MarkCompensated(r.Local); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return inst, seqOf, nil
}
