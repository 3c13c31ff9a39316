package fault

import (
	"fmt"
	"maps"
	"reflect"
	"slices"

	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// CheckInput is everything CheckRecovered needs about a finished
// crash-recovery cycle.
type CheckInput struct {
	// Fed is the surviving federation recovery ran against.
	Fed *subsystem.Federation
	// Log is the (unwrapped) write-ahead log after recovery.
	Log wal.Log
	// Defs are the original process definitions (by origin id).
	Defs []*process.Process
	// PreCrashRecords is the number of log records that were durable
	// when the (final) crash hit; everything after is recovery's tail.
	// When the log carries checkpoints, the count is in *expanded*
	// coordinates (len(wal.Expand(preRecs).Records)) — every invariant
	// is evaluated over the expanded replay view.
	PreCrashRecords int
	// PreCrashFull is the same boundary in full-log coordinates (the
	// non-checkpoint record count at crash time); only the
	// checkpoint-vs-full differential sub-check needs it.
	PreCrashFull int
	// Compacted marks a log whose summarized history may have been
	// physically truncated; the full-replay differential is then
	// impossible and skipped (the checkpointed path is still fully
	// checked).
	Compacted bool
	// PriorCrashLSNs are the boundary LSNs of EARLIER crash/recovery
	// epochs the log carries (a server that crashed, recovered, re-ran
	// and crashed again). The schedule reconstruction needs them to
	// synthesize crash aborts for the earlier epochs' interrupted
	// processes too — the positional PreCrashRecords boundary only
	// describes the final crash. Empty for a single-crash log.
	PriorCrashLSNs []int64
}

// reconstruct builds the observed schedule from a record list with the
// final crash at positional boundary, folding in any earlier epochs'
// crash boundaries (PriorCrashLSNs). The positional boundary is mapped
// to its LSN so a single epoch-aware reconstruction covers both.
func (in CheckInput) reconstruct(table *conflict.Table, recs []wal.Record, boundary int) (*schedule.Schedule, error) {
	if len(in.PriorCrashLSNs) == 0 {
		return ScheduleFromWAL(table, in.Defs, recs, boundary)
	}
	lsns := append([]int64(nil), in.PriorCrashLSNs...)
	if boundary > 0 && boundary <= len(recs) {
		lsns = append(lsns, recs[boundary-1].LSN)
	}
	return ScheduleFromWALEpochs(table, in.Defs, recs, lsns)
}

// CheckRecovered asserts the paper's recovery guarantees over the
// post-recovery state:
//
//  1. every process the log mentions reached a terminal state (no lost
//     pivots, guaranteed termination through the group abort);
//  2. no in-doubt transaction survives at any subsystem;
//  3. the combined pre-crash + recovery schedule reconstructed from
//     the log is prefix-reducible (PRED, Theorem 1);
//  4. recovery's compensations ran in reverse global order of their
//     base activities (Lemma 2);
//  5. subsystem state equals the deltas of exactly the committed
//     activities in that schedule — nothing lost, nothing applied
//     twice (exactly-once across the crash);
//  6. a further Recover over the same state is a no-op (idempotent
//     recovery);
//  7. with the full history on disk, checkpointed recovery equals a
//     full replay;
//  8. every prepared set committed atomically: its participants all
//     committed or all aborted (Section 3.5's 2PC).
//
// The returned error describes the first violated invariant.
func CheckRecovered(in CheckInput) error {
	raw, err := in.Log.Records()
	if err != nil {
		return fmt.Errorf("reading log: %w", err)
	}
	// All invariants run over the expanded replay view — what recovery
	// itself saw: the latest checkpoint's live records plus the
	// post-horizon tail (identical to the raw log when no checkpoint
	// exists). Checkpoint-summarized terminated work enters invariant 5
	// through the checkpoint's per-service counts.
	exp := wal.Expand(raw)
	recs := exp.Records
	images, err := wal.Analyze(recs)
	if err == wal.ErrNoLog {
		images = nil
	} else if err != nil {
		return fmt.Errorf("analyzing log: %w", err)
	}

	// 1. Terminal states.
	for id, img := range images {
		if !img.Terminated {
			return fmt.Errorf("process %s not terminal after recovery", id)
		}
	}

	// 2. No in-doubt transactions.
	if doubt := in.Fed.InDoubt(); len(doubt) > 0 {
		return fmt.Errorf("in-doubt transactions survive recovery: %v", doubt)
	}

	// 3. PRED over the combined schedule.
	table, err := in.Fed.ConflictTable()
	if err != nil {
		return fmt.Errorf("conflict table: %w", err)
	}
	sched, err := in.reconstruct(table, recs, in.PreCrashRecords)
	if err != nil {
		return fmt.Errorf("reconstructing schedule: %w", err)
	}
	ok, at, _, err := sched.PRED()
	if err != nil {
		return fmt.Errorf("PRED check: %w", err)
	}
	if !ok {
		return fmt.Errorf("combined schedule not prefix-reducible (prefix %d):\n%s", at, sched)
	}

	// 4. Lemma 2 over recovery's tail: the group abort compensates in
	// strictly decreasing order of the base activities' commit
	// positions — also across interrupted recovery passes, since a
	// later pass only re-plans compensations whose bases precede the
	// last one the interrupted pass logged.
	base := make(map[string]int) // "proc/local" -> commit position
	for i, r := range recs {
		committed := (r.Type == wal.RecResolved && r.Commit) ||
			(r.Type == wal.RecOutcome && r.Outcome == "committed")
		if committed {
			base[fmt.Sprintf("%s/%d", r.Proc, r.Local)] = i
		}
	}
	last := -1
	for i := in.PreCrashRecords; i < len(recs); i++ {
		r := recs[i]
		if r.Type != wal.RecCompensate {
			continue
		}
		b, known := base[fmt.Sprintf("%s/%d", r.Proc, r.Local)]
		if !known {
			return fmt.Errorf("recovery compensated %s/%d whose base commit is not in the log", r.Proc, r.Local)
		}
		if last >= 0 && b >= last {
			return fmt.Errorf("Lemma 2 violated: recovery compensation of %s/%d (base @%d) after base @%d", r.Proc, r.Local, b, last)
		}
		last = b
	}

	// 5. Exactly-once effects: replay the committed invocations'
	// write-set deltas and compare with the subsystems' stores. Work
	// the checkpoint summarized away is accounted through its
	// per-service committed counts (compensations carry their own
	// service name, so the spec lookup assigns the -1 sign as usual).
	want := make(map[string]int64)
	if exp.Checkpoint != nil {
		for svc, n := range exp.Checkpoint.AppliedSvc {
			spec, ok := in.Fed.Spec(svc)
			if !ok {
				return fmt.Errorf("checkpoint summarizes unknown service %q", svc)
			}
			delta := n
			if spec.Kind == activity.Compensation {
				delta = -n
			}
			sub, _ := in.Fed.Owner(svc)
			for _, item := range spec.WriteSet {
				want[sub.Name()+"/"+item] += delta
			}
		}
	}
	for _, ev := range sched.Events() {
		if ev.Type != schedule.Invoke {
			continue
		}
		spec, ok := in.Fed.Spec(ev.Service)
		if !ok {
			return fmt.Errorf("schedule uses unknown service %q", ev.Service)
		}
		delta := int64(1)
		if spec.Kind == activity.Compensation {
			delta = -1
		}
		sub, _ := in.Fed.Owner(ev.Service)
		for _, item := range spec.WriteSet {
			want[sub.Name()+"/"+item] += delta
		}
	}
	got := in.Fed.Snapshot()
	for item, v := range got {
		if v < 0 {
			return fmt.Errorf("item %s negative after recovery (%d)", item, v)
		}
		if v != want[item] {
			return fmt.Errorf("item %s: subsystem has %d, log-committed work accounts for %d", item, v, want[item])
		}
	}
	for item, v := range want {
		if v != 0 && got[item] != v {
			return fmt.Errorf("item %s: log-committed work accounts for %d, subsystem has %d", item, v, got[item])
		}
	}

	// 6. Idempotence: a second recovery changes nothing. Counted over
	// the raw log — recovery never checkpoints, so any append shows up
	// there (the expanded view renumbers across a checkpoint and cannot
	// be compared directly).
	before := len(raw)
	report, err := scheduler.Recover(in.Fed, in.Log, in.Defs)
	if err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	after, err := in.Log.Records()
	if err != nil {
		return fmt.Errorf("re-reading log: %w", err)
	}
	if len(after) != before {
		return fmt.Errorf("second recovery appended %d records (want 0)", len(after)-before)
	}
	if report.Compensations != 0 || report.ForwardInvocations != 0 ||
		report.Resolved2PCCommitted != 0 || report.Resolved2PCAborted != 0 {
		return fmt.Errorf("second recovery did work: %+v", report)
	}

	// 7. Differential: when the full history is still on disk (a
	// checkpointed but uncompacted log), checkpoint-based recovery must
	// be state- and outcome-identical to a full-log replay — same
	// per-process images for every live process, terminated-only
	// summaries, a prefix-reducible full schedule and the same
	// exactly-once accounting without the checkpoint's summary counts.
	if exp.Checkpoint != nil && !in.Compacted {
		if err := checkFullReplayEquivalence(in, raw, images, got); err != nil {
			return fmt.Errorf("checkpoint/full-replay differential: %w", err)
		}
	}

	// 8. Atomic commitment.
	return checkAtomicCommitment(in, recs)
}

// checkFullReplayEquivalence replays the complete (checkpoint-free)
// history and cross-checks it against the expanded-view results: the
// checkpoint must be a lossless summary.
func checkFullReplayEquivalence(in CheckInput, raw []wal.Record, expImages map[string]*wal.ProcImage, got map[string]int64) error {
	var full []wal.Record
	for _, r := range raw {
		if r.Type != wal.RecCheckpoint {
			full = append(full, r)
		}
	}
	fullImages, err := wal.Analyze(full)
	if err != nil && err != wal.ErrNoLog {
		return fmt.Errorf("analyzing full log: %w", err)
	}
	// Every process the expanded view knows must have the exact same
	// image under full replay; processes only the full log knows must
	// be terminated (that is what licensed summarizing them away).
	for id, img := range expImages {
		fimg := fullImages[id]
		if fimg == nil {
			return fmt.Errorf("process %s exists in the expanded view but not under full replay", id)
		}
		if !reflect.DeepEqual(img, fimg) {
			return fmt.Errorf("process %s: expanded image %+v != full-replay image %+v", id, img, fimg)
		}
	}
	for id, fimg := range fullImages {
		if expImages[id] != nil {
			continue
		}
		if !fimg.Terminated {
			return fmt.Errorf("process %s was summarized by the checkpoint but is not terminated under full replay", id)
		}
	}
	// The full combined schedule is prefix-reducible too.
	table, err := in.Fed.ConflictTable()
	if err != nil {
		return fmt.Errorf("conflict table: %w", err)
	}
	fullSched, err := in.reconstruct(table, full, in.PreCrashFull)
	if err != nil {
		return fmt.Errorf("reconstructing full schedule: %w", err)
	}
	ok, at, _, err := fullSched.PRED()
	if err != nil {
		return fmt.Errorf("full PRED check: %w", err)
	}
	if !ok {
		return fmt.Errorf("full-replay schedule not prefix-reducible (prefix %d)", at)
	}
	// Exactly-once from the full history alone (no checkpoint counts)
	// must match the same subsystem state.
	want := make(map[string]int64)
	for _, ev := range fullSched.Events() {
		if ev.Type != schedule.Invoke {
			continue
		}
		spec, ok := in.Fed.Spec(ev.Service)
		if !ok {
			return fmt.Errorf("full schedule uses unknown service %q", ev.Service)
		}
		delta := int64(1)
		if spec.Kind == activity.Compensation {
			delta = -1
		}
		sub, _ := in.Fed.Owner(ev.Service)
		for _, item := range spec.WriteSet {
			want[sub.Name()+"/"+item] += delta
		}
	}
	for item, v := range got {
		if v != want[item] {
			return fmt.Errorf("item %s: subsystem has %d, full-replay committed work accounts for %d", item, v, want[item])
		}
	}
	for item, v := range want {
		if v != 0 && got[item] != v {
			return fmt.Errorf("item %s: full-replay committed work accounts for %d, subsystem has %d", item, v, got[item])
		}
	}
	return nil
}

// checkAtomicCommitment asserts invariant 8: the participants of every
// prepared set share one fate. A prepared set is the non-compensatable
// transactions of a process prepared and still unresolved together where
// a 2PC decision is logged, or where the crash left them for recovery to
// resolve as one (compensatable activities commit at completion and are
// never part of one). A participant's fate is its subsystem's when the
// subsystem knows it, else the log's resolution record.
func checkAtomicCommitment(in CheckInput, recs []wal.Record) error {
	type part struct {
		proc, sub string
		local     int
		tx        int64
	}
	open := make(map[string][]part) // by process, in prepare order
	var sets [][]part
	take := func(proc string) {
		if len(open[proc]) > 1 {
			sets = append(sets, slices.Clone(open[proc]))
		}
	}
	drop := func(proc string, local int) {
		open[proc] = slices.DeleteFunc(open[proc], func(p part) bool { return p.local == local })
	}
	logged := make(map[part]bool) // by proc and local: the last resolution
	for i, r := range recs {
		if i == in.PreCrashRecords {
			for _, proc := range slices.Sorted(maps.Keys(open)) {
				take(proc)
			}
		}
		switch r.Type {
		case wal.RecOutcome:
			if spec, ok := in.Fed.Spec(r.Service); ok && r.Outcome == "prepared" && spec.Kind != activity.Compensatable {
				drop(r.Proc, r.Local)
				open[r.Proc] = append(open[r.Proc], part{r.Proc, r.Subsystem, r.Local, r.Tx})
			}
		case wal.RecDecision:
			take(r.Proc)
		case wal.RecResolved:
			drop(r.Proc, r.Local)
			logged[part{proc: r.Proc, local: r.Local}] = r.Commit
		}
	}
	for _, set := range sets {
		fates := make(map[bool]part)
		for _, p := range set {
			committed, known := false, false
			if sub, ok := in.Fed.Subsystem(p.sub); ok {
				committed, known = sub.TxFate(subsystem.TxID(p.tx))
			}
			if !known {
				committed, known = logged[part{proc: p.proc, local: p.local}]
			}
			if known { // one still in doubt is invariant 2's
				fates[committed] = p
			}
		}
		if len(fates) > 1 {
			return fmt.Errorf("prepared set of %s split: %d committed, %d aborted", set[0].proc, fates[true].local, fates[false].local)
		}
	}
	return nil
}
