package scheduler

import (
	"fmt"
	"maps"
	"slices"

	"transproc/internal/activity"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// DurableReport is RecoveryReport plus what the page-level phase did.
type DurableReport struct {
	*RecoveryReport
	// RestoredInDoubt counts prepared transactions re-created from the
	// log because the crash took their durable intent records.
	RestoredInDoubt int
	// RedoItems / UndoItems count data items the reconciliation forced
	// forward (logged as committed, missing from the pages) or rolled
	// back (on the pages, never committed in the log).
	RedoItems int
	UndoItems int
	// FlushedPages counts pages written when making the recovered
	// image durable.
	FlushedPages int
}

// RecoverDurable is Recover for a federation whose subsystems persist
// their state in heap-file stores (subsystem.AttachStore): a crash
// kills scheduler state *and* subsystem pages, and a restart reopens
// the stores — whose images may be stale (dirty pages never flushed),
// ahead (applied transactions whose log record the crash cut off), or
// missing 2PC bookkeeping. Before the normal composed recovery it
// therefore:
//
//  1. raises every subsystem's transaction-id floor past the ids the
//     log names, so restarted subsystems never recycle them;
//  2. restores in-doubt transactions the log shows as prepared but the
//     reopened subsystem has no memory of — neither a durable intent
//     nor a fate (without this, 2PC resolution cannot tell "never
//     happened" from "lost") — so presumed abort/commit finds them;
//  3. reconciles each store's data items against the expected image
//     derived from the log (page-level redo/undo): baselines, plus
//     checkpoint-summarized committed work, plus the committed and
//     compensating events of the expanded log — excluding work phase 1
//     will apply through restored in-doubt transactions, and adding
//     work whose durable fate survived but whose log record did not.
//
// Then recovery runs as usual (its invocations write through to the
// stores), and the recovered image is flushed so a second crash replays
// from a consistent base. The federation's subsystems must have their
// stores attached already; with no store attached anywhere this is
// exactly RecoverWithMetrics.
func RecoverDurable(fed *subsystem.Federation, log wal.Log, defs []*process.Process, m *metrics.Registry) (*DurableReport, error) {
	return recoverLog(fed, log, defs, m, true)
}

// restorePages is the page-level phase (steps 1–3 above) over the
// replay view and images recovery already holds, with one more walk over
// the view.
func restorePages(fed *subsystem.Federation, rp *wal.Replay, rep *DurableReport) error {
	images := rp.Images
	// The walk: each subsystem's highest transaction id (step 1) and the
	// log's committed work (step 3): one entry per committed (proc,
	// local) — a redo-commit's RecResolved does not double a committed
	// outcome already in the log — plus every compensation. The walk's
	// strings share the log image and do not outlive this call.
	type procLocal struct {
		proc  string
		local int
	}
	floors := make(map[string]int64)
	var work []logged
	seen := make(map[procLocal]bool)
	if err := rp.Each(func(r *wal.Record) {
		if r.Subsystem != "" && r.Tx > floors[r.Subsystem] {
			floors[r.Subsystem] = r.Tx
		}
		if r.Commits() {
			if k := (procLocal{r.Proc, r.Local}); !seen[k] {
				seen[k] = true
				work = append(work, logged{r.Service, r.Tx})
			}
		} else if r.Type == wal.RecCompensate {
			work = append(work, logged{r.Service, r.Tx})
		}
	}); err != nil {
		return err
	}

	// 1. Transaction-id floors.
	for name, tx := range floors {
		if sub, ok := fed.Subsystem(name); ok {
			sub.EnsureTxFloor(subsystem.TxID(tx))
		}
	}

	// 2. Restore log-prepared transactions the reopened subsystems have
	// no record of. A durable fate means the transaction was resolved
	// pre-crash and phase 1 must consult that fate, not a resurrected
	// intent; an in-doubt transaction (intent survived) needs nothing.
	for _, id := range slices.Sorted(maps.Keys(images)) {
		img := images[id]
		for _, local := range slices.Sorted(maps.Keys(img.Prepared)) {
			if img.Resolved[local] {
				continue
			}
			ptx := img.Prepared[local]
			sub, ok := fed.Subsystem(ptx.Subsystem)
			if !ok {
				return fmt.Errorf("scheduler: log prepares at unknown subsystem %q", ptx.Subsystem)
			}
			if sub.DurableStore() == nil {
				continue
			}
			tx := subsystem.TxID(ptx.Tx)
			if _, known := sub.TxFate(tx); known {
				continue
			}
			if inDoubtTx(sub, tx) {
				continue
			}
			if err := sub.RestorePrepared(tx, string(process.ID(id).Origin()), ptx.Service); err != nil {
				return fmt.Errorf("scheduler: restoring prepared tx %d: %w", ptx.Tx, err)
			}
			rep.RestoredInDoubt++
		}
	}

	// 3. Page-level redo/undo against the log-derived expected image.
	for _, sub := range fed.Subsystems() {
		if sub.DurableStore() == nil {
			continue
		}
		expected, err := expectedDurableImage(fed, sub, rp.Checkpoint, work, images)
		if err != nil {
			return err
		}
		redo, undo, err := sub.ReconcileDurable(expected)
		if err != nil {
			return fmt.Errorf("scheduler: reconciling %s: %w", sub.Name(), err)
		}
		rep.RedoItems += redo
		rep.UndoItems += undo
	}
	return nil
}

// inDoubtTx reports whether tx is currently in doubt at sub.
func inDoubtTx(sub *subsystem.Subsystem, tx subsystem.TxID) bool {
	for _, r := range sub.InDoubt() {
		if r.Tx == tx {
			return true
		}
	}
	return false
}

// logged is one committed or compensating step of the log: its service
// and its transaction.
type logged struct {
	service string
	tx      int64
}

// expectedDurableImage computes, for one subsystem, the data-item image
// its pages must show *before* the normal recovery runs: exactly the
// committed work of the replay view (work: each one's service and
// transaction, as restorePages collects them; mirroring the exactly-once
// accounting of fault.CheckRecovered) and of the checkpoint it starts
// from, minus the work recovery's 2PC resolution will itself apply
// through in-doubt transactions, plus the work whose durable fate
// survived the crash but whose log record did not (phase 1 re-logs those
// from TxFate without re-applying).
func expectedDurableImage(fed *subsystem.Federation, sub *subsystem.Subsystem, ckpt *wal.Checkpoint, work []logged, images map[string]*wal.ProcImage) (map[string]int64, error) {
	expected := make(map[string]int64)
	for item, v := range sub.Baselines() {
		expected[item] = v
	}
	doubt := make(map[int64]bool)
	for _, r := range sub.InDoubt() {
		doubt[int64(r.Tx)] = true
	}
	addSvc := func(service string, n int64) error {
		spec, ok := fed.Spec(service)
		if !ok {
			return fmt.Errorf("scheduler: log uses unknown service %q", service)
		}
		if spec.Kind == activity.Compensation {
			n = -n
		}
		for _, item := range spec.WriteSet {
			expected[item] += n
		}
		return nil
	}
	owns := func(service string) bool {
		owner, ok := fed.Owner(service)
		return ok && owner == sub
	}
	if ckpt != nil {
		for svc, n := range ckpt.AppliedSvc {
			if !owns(svc) {
				continue
			}
			if err := addSvc(svc, n); err != nil {
				return nil, err
			}
		}
	}
	contributing := make(map[int64]bool) // txs the log already accounts
	for _, r := range work {
		if !owns(r.service) {
			continue
		}
		if r.tx != 0 {
			contributing[r.tx] = true
			if doubt[r.tx] {
				continue
			}
		}
		if err := addSvc(r.service, 1); err != nil {
			return nil, err
		}
	}
	// Durable fates without a log record: the crash hit between the
	// subsystem-side resolution and its log write. The effects are (or
	// will be reconciled) on the pages, and phase 1 re-logs the fate via
	// TxFate without re-applying — so the expected image must include
	// them.
	for _, img := range images {
		for local, ptx := range img.Prepared {
			if img.Resolved[local] || ptx.Subsystem != sub.Name() {
				continue
			}
			if contributing[ptx.Tx] || doubt[ptx.Tx] {
				continue
			}
			if committed, known := sub.TxFate(subsystem.TxID(ptx.Tx)); known && committed {
				if err := addSvc(ptx.Service, 1); err != nil {
					return nil, err
				}
			}
		}
	}
	return expected, nil
}
