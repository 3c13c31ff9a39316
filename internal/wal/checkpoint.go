// Fuzzy checkpointing and log compaction. A checkpoint record
// summarizes everything the log said before its horizon — the full
// record set of every live process, the per-service effect counts of
// terminated work, and the serialization edges terminated processes
// mediated — so that recovery can replay checkpoint + tail instead of
// the whole history, and compaction can rewrite the log to exactly
// that. The checkpoint is fuzzy in the ARIES sense: appends may race
// the build, and any record whose LSN lies past the horizon is simply
// replayed from the tail regardless of where it sits in the file.
package wal

import (
	"fmt"
	"sort"

	"transproc/internal/chunk"
	"transproc/internal/metrics"
)

// Crash points fired inside checkpointing and compaction when an
// inject hook is supplied (mirroring internal/fault's naming scheme;
// the constants live here so the fault package can reference them
// without a dependency cycle).
const (
	// PointCheckpointBuild fires before the checkpoint is built from
	// the log snapshot; PointCheckpointAppend after the build, right
	// before the checkpoint record is appended.
	PointCheckpointBuild  = "wal:ckpt-build"
	PointCheckpointAppend = "wal:ckpt-append"
	// PointCompactRename fires after the compacted temp file is
	// written and fsynced, right before the atomic rename;
	// PointCompactDirSync between the rename and the parent-directory
	// fsync that makes it durable.
	PointCompactRename  = "wal:compact-rename"
	PointCompactDirSync = "wal:compact-dirsync"
)

// maxCheckpointGraphEvents bounds the pairwise conflict-graph
// construction of BuildCheckpoint. A build over more committed events
// than this skips the Edges/Shadow computation (marking the checkpoint
// Truncated) instead of going quadratic; recovery's step gates then do
// not see the ordering constraints that ran through summarized
// processes. Engine-driven checkpoints (every CheckpointEvery appends,
// folding the previous checkpoint) stay far below this bound.
const maxCheckpointGraphEvents = 4096

// Checkpoint is the payload of a RecCheckpoint record: a fuzzy summary
// of the log up to Horizon.
type Checkpoint struct {
	// Horizon is the highest LSN the checkpoint covers. Every record
	// with a larger LSN — wherever it sits in the file, including the
	// fuzzy window between the build's snapshot and the checkpoint
	// append — must be replayed from the tail.
	Horizon int64 `json:"horizon"`
	// Live holds every record (≤ Horizon) of every process that had
	// not terminated at the horizon, verbatim and in log order, so
	// recovery rebuilds live instances exactly as a full replay would.
	Live []Record `json:"live,omitempty"`
	// AppliedSvc counts, per service, the committed invocations of
	// processes that had terminated at the horizon (compensations count
	// under the compensation service's own name). It replaces the
	// dropped records in the exactly-once accounting.
	AppliedSvc map[string]int64 `json:"applied,omitempty"`
	// Edges is the live×live reachability closure of the commit
	// serialization graph at the horizon: [P, Q] means some chain of
	// conflicting committed activities — possibly running through
	// processes summarized away — orders P before Q.
	Edges [][2]string `json:"edges,omitempty"`
	// Shadow maps each live process to the committed services of
	// summarized (terminated) processes reachable from it; at recovery
	// a conflict between a shadow service and a post-horizon event or a
	// forward completion step re-creates the transitive edge.
	Shadow map[string][]string `json:"shadow,omitempty"`
	// Procs is the live process count; Dropped the number of records
	// the checkpoint summarized away (cumulative across checkpoints).
	Procs   int `json:"procs"`
	Dropped int `json:"dropped"`
	// Truncated marks a build that skipped the Edges/Shadow graph
	// because it exceeded maxCheckpointGraphEvents.
	Truncated bool `json:"truncated,omitempty"`
}

// valid is the structural acceptance test recovery applies before
// trusting a decoded checkpoint; a checkpoint that fails it is ignored
// and recovery falls back to the previous checkpoint or a full replay.
func (c *Checkpoint) valid() bool {
	if c == nil || c.Horizon < 0 {
		return false
	}
	for _, r := range c.Live {
		if r.LSN <= 0 || r.LSN > c.Horizon || r.Type == RecCheckpoint {
			return false
		}
	}
	for _, n := range c.AppliedSvc {
		if n < 0 {
			return false
		}
	}
	return true
}

// Expansion is the replay view of a raw record list (replay.go).
type Expansion struct {
	// Records is what recovery replays: the latest valid checkpoint's
	// live records followed by every non-checkpoint record past the
	// horizon, in log order. Without a usable checkpoint it is simply
	// every non-checkpoint record. When the log holds no checkpoint
	// record at all it is Expand's input itself, sharing its backing
	// array: callers only read it.
	Records []Record
	// Checkpoint is the checkpoint the view is based on; nil means
	// full replay.
	Checkpoint *Checkpoint
	// Skipped counts the records the checkpoint summarized away
	// (replay work avoided relative to a full-history replay).
	Skipped int
	// Fallback is set when a checkpoint record was present but invalid
	// or undecodable, forcing the fall back to an earlier checkpoint or
	// a full replay.
	Fallback bool
}

// Expand turns a raw record list (as returned by Log.Records, from a
// compacted or uncompacted log) into the bounded replay view: the view's
// slice source. It never fails: a corrupt checkpoint only widens the
// replay window.
func Expand(recs []Record) Expansion {
	v := viewOf(recs)
	return Expansion{Records: v.head, Checkpoint: v.Checkpoint, Skipped: v.Skipped, Fallback: v.Fallback}
}

// BuildCheckpoint computes a fuzzy checkpoint over a log snapshot,
// folding any earlier checkpoint the snapshot contains. conflicts is
// the federation's service conflict predicate (used for the Edges and
// Shadow serialization summaries); nil skips the graph entirely.
func BuildCheckpoint(recs []Record, conflicts func(a, b string) bool) *Checkpoint {
	exp := Expand(recs)
	base, old := exp.Records, exp.Checkpoint
	cp := &Checkpoint{AppliedSvc: make(map[string]int64)}
	for _, r := range recs {
		if r.LSN > cp.Horizon {
			cp.Horizon = r.LSN
		}
	}

	terminated := make(map[string]bool)
	known := make(map[string]bool)
	for _, r := range base {
		if r.Proc == "" {
			continue
		}
		known[r.Proc] = true
		if r.Type == RecTerminate {
			terminated[r.Proc] = true
		}
	}
	live := func(proc string) bool { return known[proc] && !terminated[proc] }

	for _, r := range base {
		if live(r.Proc) {
			cp.Live = append(cp.Live, r)
		}
	}

	// Exactly-once accounting for the records being summarized: one
	// count per committed (proc, local) — a redo-commit's RecResolved
	// does not double a committed outcome already in the log — plus
	// every compensation under its own service.
	counted := make(map[string]bool)
	for _, r := range base {
		if live(r.Proc) {
			continue
		}
		switch {
		case r.Type == RecCompensate:
			cp.AppliedSvc[r.Service]++
		case r.Commits():
			key := fmt.Sprintf("%s/%d", r.Proc, r.Local)
			if !counted[key] {
				counted[key] = true
				cp.AppliedSvc[r.Service]++
			}
		}
	}
	if old != nil {
		for svc, n := range old.AppliedSvc {
			cp.AppliedSvc[svc] += n
		}
		cp.Truncated = old.Truncated
	}

	for p := range known {
		if !terminated[p] {
			cp.Procs++
		}
	}
	cp.Dropped = len(base) - len(cp.Live) + exp.Skipped

	if conflicts != nil {
		buildCheckpointGraph(cp, base, old, live, conflicts)
	}
	return cp
}

// EffectiveCommits returns, in log order, the indices of the records
// that commit an activity whose effect still stands: a committed outcome
// or a committing resolution — the activity's *commit* position, for a
// 2PC-deferred one the RecResolved record (Lemma 1) — of an activity no
// RecCompensate undoes. An activity is reported once: a redo-commit's
// resolution does not repeat a commit already in the log. keep, when
// non-nil, restricts the result to the processes it accepts.
func EffectiveCommits(recs []Record, keep func(proc string) bool) []int {
	type key struct {
		proc  string
		local int
	}
	compensated := make(map[key]bool)
	for _, r := range recs {
		if r.Type == RecCompensate && (keep == nil || keep(r.Proc)) {
			compensated[key{r.Proc, r.Local}] = true
		}
	}
	var out []int
	emitted := make(map[key]bool)
	for i, r := range recs {
		if !r.Commits() || (keep != nil && !keep(r.Proc)) {
			continue
		}
		k := key{r.Proc, r.Local}
		if compensated[k] || emitted[k] {
			continue
		}
		emitted[k] = true
		out = append(out, i)
	}
	return out
}

// buildCheckpointGraph computes Edges (live×live reachability through
// the commit serialization graph) and Shadow (summarized committed
// services reachable from each live process) over EffectiveCommits — the
// event set restart recovery seeds its policy state with.
func buildCheckpointGraph(cp *Checkpoint, base []Record, old *Checkpoint, live func(string) bool, conflicts func(a, b string) bool) {
	var evs []Record
	for _, i := range EffectiveCommits(base, nil) {
		evs = append(evs, base[i])
	}
	if len(evs) > maxCheckpointGraphEvents {
		cp.Truncated = true
		if old != nil {
			cp.Edges = old.Edges
			cp.Shadow = old.Shadow
		}
		return
	}

	succ := make(map[string]map[string]bool)
	addEdge := func(a, b string) {
		if a == b {
			return
		}
		if succ[a] == nil {
			succ[a] = make(map[string]bool)
		}
		succ[a][b] = true
	}
	// Direct edges: an earlier committed event conflicting with a later
	// one orders the processes. perSvc keeps, per service, the set of
	// processes that have emitted it so far — O(events × services)
	// instead of O(events²).
	perSvc := make(map[string]map[string]bool)
	for _, e := range evs {
		for svc, procs := range perSvc {
			if !conflicts(svc, e.Service) {
				continue
			}
			for p := range procs {
				addEdge(p, e.Proc)
			}
		}
		if perSvc[e.Service] == nil {
			perSvc[e.Service] = make(map[string]bool)
		}
		perSvc[e.Service][e.Proc] = true
	}
	// Fold the previous checkpoint: its closure edges become direct
	// edges, and its shadow services conflict-check against the events
	// it could not see (past its horizon).
	if old != nil {
		for _, ed := range old.Edges {
			addEdge(ed[0], ed[1])
		}
		for p, svcs := range old.Shadow {
			for _, s := range svcs {
				for _, e := range evs {
					if e.LSN > old.Horizon && conflicts(s, e.Service) {
						addEdge(p, e.Proc)
					}
				}
			}
		}
	}

	// Committed services of the processes being summarized away.
	termSvc := make(map[string]map[string]bool)
	for _, e := range evs {
		if live(e.Proc) {
			continue
		}
		if termSvc[e.Proc] == nil {
			termSvc[e.Proc] = make(map[string]bool)
		}
		termSvc[e.Proc][e.Service] = true
	}
	oldShadow := map[string][]string{}
	if old != nil {
		oldShadow = old.Shadow
	}

	var liveProcs []string
	seen := make(map[string]bool)
	collect := func(p string) {
		if !seen[p] && live(p) {
			seen[p] = true
			liveProcs = append(liveProcs, p)
		}
	}
	for _, e := range evs {
		collect(e.Proc)
	}
	for _, r := range base {
		if r.Proc != "" {
			collect(r.Proc)
		}
	}
	sort.Strings(liveProcs)

	shadow := make(map[string][]string)
	for _, p := range liveProcs {
		reach := make(map[string]bool)
		queue := []string{p}
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			for n := range succ[q] {
				if !reach[n] {
					reach[n] = true
					queue = append(queue, n)
				}
			}
		}
		svcSet := make(map[string]bool)
		for _, s := range oldShadow[p] {
			svcSet[s] = true
		}
		var targets []string
		for q := range reach {
			if live(q) {
				targets = append(targets, q)
				for _, s := range oldShadow[q] {
					svcSet[s] = true
				}
				continue
			}
			for s := range termSvc[q] {
				svcSet[s] = true
			}
			for _, s := range oldShadow[q] {
				svcSet[s] = true
			}
		}
		sort.Strings(targets)
		for _, q := range targets {
			cp.Edges = append(cp.Edges, [2]string{p, q})
		}
		if len(svcSet) > 0 {
			svcs := make([]string, 0, len(svcSet))
			for s := range svcSet {
				svcs = append(svcs, s)
			}
			sort.Strings(svcs)
			shadow[p] = svcs
		}
	}
	if len(shadow) > 0 {
		cp.Shadow = shadow
	}
}

// TakeCheckpoint snapshots the log, builds a fuzzy checkpoint and
// appends its record. inject, when non-nil, fires the named crash
// points around the build and the append; m records the checkpoint
// counters (nil is a no-op).
func TakeCheckpoint(l Log, conflicts func(a, b string) bool, inject func(string), m *metrics.Registry) (*Checkpoint, error) {
	if inject != nil {
		inject(PointCheckpointBuild)
	}
	recs, err := l.Records()
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint snapshot: %w", err)
	}
	cp := BuildCheckpoint(recs, conflicts)
	if inject != nil {
		inject(PointCheckpointAppend)
	}
	if _, err := l.Append(Record{Type: RecCheckpoint, Checkpoint: cp}); err != nil {
		return nil, fmt.Errorf("wal: appending checkpoint: %w", err)
	}
	m.Inc(metrics.Checkpoints)
	m.Observe(metrics.HistCheckpointLive, int64(len(cp.Live)))
	return cp, nil
}

// Compactor is a log that can atomically rewrite itself as its latest
// checkpoint plus the post-horizon tail, truncating summarized
// history. inject, when non-nil, fires the compaction crash points.
type Compactor interface {
	Compact(inject func(point string)) error
}

// Compact implements Compactor: the in-memory record list is replaced
// by [latest valid checkpoint record, post-horizon tail]. A log
// without a usable checkpoint is left untouched.
func (l *MemLog) Compact(inject func(string)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := compacted(l.recs.AppendTo(nil))
	if kept == nil {
		return nil
	}
	if inject != nil {
		inject(PointCompactRename)
		inject(PointCompactDirSync)
	}
	l.recs = chunk.List[Record]{}
	for _, r := range kept {
		l.recs.Append(r)
	}
	l.m.Inc(metrics.Compactions)
	return nil
}

// Compact implements Compactor: the file is atomically rewritten
// (FrameFile.Rewrite) as [latest valid checkpoint record, post-horizon
// tail]. The LSN counter is preserved (compaction renumbers nothing;
// the log simply gains a gap). A log without a usable checkpoint is
// left untouched.
func (l *FileLog) Compact(inject func(string)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs, err := l.recordsLocked()
	if err != nil {
		return err
	}
	kept := compacted(recs)
	if kept == nil {
		return nil
	}
	payloads := make([][]byte, len(kept))
	for i := range kept {
		if payloads[i], err = encodeRecord(&kept[i]); err != nil {
			return err
		}
	}
	if err := l.ff.Rewrite(payloads, inject); err != nil {
		return err
	}
	l.m.Inc(metrics.Compactions)
	return nil
}

// compacted returns [latest valid checkpoint record, post-horizon
// tail] of recs, or nil without a usable checkpoint.
func compacted(recs []Record) []Record {
	v, idx, _ := startOf(recs)
	if idx < 0 {
		return nil
	}
	kept := []Record{recs[idx]}
	for i := range recs {
		if v.holds(&recs[i]) {
			kept = append(kept, recs[i])
		}
	}
	return kept
}
