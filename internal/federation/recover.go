package federation

import (
	"fmt"

	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// ReopenReport is the result of a hub reopen: the stitched history the
// recovery pass consumed and extended, the pre-crash boundary, the
// recovery report, and the re-stamped recovery tail.
type ReopenReport struct {
	// Log is the stitched pre-crash history with the recovery-appended
	// tail (tail records carry stamp zero here, exactly as a single-node
	// recovery pass leaves them — a battery's recovery judge consumes it
	// with Pre as the boundary).
	Log *wal.MemLog
	// Pre is the pre-crash record count.
	Pre int
	// Report is the composed recovery's report.
	Report *scheduler.RecoveryReport
	// Tail holds copies of the recovery-appended records re-stamped with
	// fresh post-reopen stamps, so a later stitch across the whole
	// multi-incarnation run sorts them after every pre-crash record and
	// before every new-session record. The cluster files them as one
	// more log in its stitch set.
	Tail []wal.Record
}

// ReopenHub rebuilds a coordination hub after kill -9 of the previous
// incarnation, from what survived: the nodes' force-logged WALs, the
// subsystem federation (its own durable state), and the hub journal.
// The reopen is stop-the-world — it runs the composed crash recovery
// over the stitched history, which settles EVERY non-terminal process
// (in-doubt 2PC resolved by presumed abort/commit, group aborts
// compensated in reverse global order, orphaned subsystem transactions
// aborted), so the new incarnation starts with an empty policy state
// that the recovered history provably does not constrain. Nodes then
// re-hello and learn each in-flight process's settled fate through
// MsgReattach.
//
// The journal contributes the two facts the WALs cannot: the stamp
// lease floor (the counter resumes above every stamp the dead hub may
// have issued, acked or not) and the epoch (bumped, so stale frames
// bounce); who owned what is not among them — re-attachment is driven
// by the nodes. A nil journal falls back to the highest stitched stamp
// — safe only when no issued-but-unacked stamp can exist, i.e. outside
// torture runs.
func ReopenHub(fed *subsystem.Federation, defs []*process.Process, logs []wal.Log, cfg HubConfig) (*Hub, *ReopenReport, error) {
	var jst JournalState
	if cfg.Journal != nil {
		entries, err := cfg.Journal.Entries()
		if err != nil {
			return nil, nil, fmt.Errorf("federation: reopen journal replay: %w", err)
		}
		jst = FoldJournal(entries)
	}

	// Stitch the per-node WALs into the single global history the
	// existing recovery machinery consumes unchanged.
	log, all, err := stitchedLog(logs)
	if err != nil {
		return nil, nil, fmt.Errorf("federation: reopen stitch: %w", err)
	}
	pre := len(all)
	var maxStamp int64
	if pre > 0 {
		maxStamp = all[pre-1].Stamp
	}

	report, err := scheduler.Recover(fed, log, defs)
	if err != nil {
		return nil, nil, fmt.Errorf("federation: reopen recovery: %w", err)
	}

	// New incarnation: epoch bumped (journaled first, so a second crash
	// cannot resurrect this epoch either), stamp counter resumed above
	// everything the dead hub may have handed out.
	cfg.Epoch = jst.Epoch + 1
	h, err := NewHub(fed, defs, cfg)
	if err != nil {
		return nil, nil, err
	}
	h.stamp = maxStamp
	if jst.LeaseFloor > h.stamp {
		h.stamp = jst.LeaseFloor
	}
	h.leaseFloor = jst.LeaseFloor
	if h.journal != nil {
		if err := h.journal.Append(JEntry{Kind: jEpoch, Node: cfg.Epoch}); err != nil {
			return nil, nil, fmt.Errorf("federation: reopen epoch journal: %w", err)
		}
	}

	// Re-stamp the recovery tail into the new incarnation's stamp space:
	// the full-run stitched order becomes [pre-crash | recovery tail |
	// new session], which is exactly the order the composed final
	// recovery (and the judges) must see the effects in.
	recs, err := log.Records()
	if err != nil {
		return nil, nil, err
	}
	tail := make([]wal.Record, len(recs)-pre)
	copy(tail, recs[pre:])
	for i := range tail {
		tail[i].Stamp = h.next()
	}

	// Recovered fates (recovery's verdict on every incarnation in the
	// history, all terminal now) and the restart-suffix floor, so
	// post-reopen grants never collide with pre-crash incarnation ids.
	h.fates = report.Fates
	for id := range h.fates {
		h.maxSuffix[string(id.Origin())] = max(h.maxSuffix[string(id.Origin())], id.Lineage())
	}
	h.reg.Inc(metrics.FedHubReopens)

	return h, &ReopenReport{Log: log, Pre: pre, Report: report, Tail: tail}, nil
}
