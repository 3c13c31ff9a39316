package process

import (
	"fmt"
	"iter"
	"slices"
	"sort"

	"transproc/internal/activity"
)

// Status is the runtime state of one activity within a process instance.
type Status int

const (
	// Pending: not yet invoked.
	Pending Status = iota
	// Prepared: the local transaction executed successfully but its
	// commit is deferred (two phase commit, Lemma 1). Prepared
	// activities satisfy intra-process precedence but are revocable.
	Prepared
	// Committed: the activity (local transaction) committed.
	Committed
	// Failed: the activity failed permanently (Definition 4).
	Failed
	// Compensated: the activity committed and was later compensated.
	Compensated
	// AbortedPrepared: the activity was prepared and then rolled back.
	AbortedPrepared
	// Abandoned: the activity was on an execution path that was given
	// up in favour of an alternative, and was never invoked.
	Abandoned
)

// String returns a short status label.
func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Prepared:
		return "prepared"
	case Committed:
		return "committed"
	case Failed:
		return "failed"
	case Compensated:
		return "compensated"
	case AbortedPrepared:
		return "aborted-prepared"
	case Abandoned:
		return "abandoned"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Mode is the recovery state of a process (Section 3.1): a process with
// guaranteed termination is backward-recoverable until its
// state-determining activity s_{i_0} has committed, and
// forward-recoverable afterwards.
type Mode int

const (
	// BREC: backward recovery applies; the completion consists only of
	// compensating activities.
	BREC Mode = iota
	// FREC: forward recovery is guaranteed; the completion consists of
	// local backward recovery to a state-determining element plus
	// retriable activities.
	FREC
)

// String returns the paper's notation for the mode.
func (m Mode) String() string {
	if m == BREC {
		return "B-REC"
	}
	return "F-REC"
}

// StepKind classifies a recovery step.
type StepKind int

const (
	// StepCompensate executes the compensating activity a⁻¹ of a
	// committed compensatable activity.
	StepCompensate StepKind = iota
	// StepAbortPrepared rolls back a prepared (not yet committed) local
	// transaction; by atomicity of subsystem transactions this leaves
	// no effects and needs no compensation.
	StepAbortPrepared
	// StepInvoke invokes an activity of the forward recovery path
	// (always retriable in a process with guaranteed termination).
	StepInvoke
)

// String returns a short step-kind label.
func (k StepKind) String() string {
	switch k {
	case StepCompensate:
		return "compensate"
	case StepAbortPrepared:
		return "abort-prepared"
	case StepInvoke:
		return "invoke"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Step is one element of a recovery plan or completion C(P). Steps are
// ordered: compensations in reverse precedence order of their base
// activities, forward invocations in precedence order.
type Step struct {
	Kind    StepKind
	Local   int    // the activity the step refers to
	Service string // service to invoke (compensating service for StepCompensate)
}

// String renders the step.
func (s Step) String() string {
	return fmt.Sprintf("%s(a_%d:%s)", s.Kind, s.Local, s.Service)
}

// chainKey addresses one alternative chain: the idx-th chain leaving the
// activity at position node.
type chainKey struct {
	node, idx int
}

// altPos records that a chain's chosen alternative moved past its
// preferred one.
type altPos struct {
	key chainKey
	idx int
}

// actState is an instance's state of one activity. An Instance keeps
// one per activity, at the activity's position in the process's order.
type actState struct {
	status Status
	// rank orders the committed activities by when they committed (1,
	// 2, …; 0 for never): two activities ≪ leaves unordered are
	// compensated in the reverse of it.
	rank int
	// comp marks an activity whose compensation is outstanding.
	comp bool
	// sel marks an activity on the currently chosen execution path.
	sel bool
}

// Instance is the mutable execution state of a single process. It is the
// control-flow oracle shared by schedulers, the schedule checker (for
// replay) and the validators. Instance is not safe for concurrent use;
// callers serialize access.
type Instance struct {
	p    *Process
	acts []actState
	// statusGen counts the writes to a status: a reader that caches
	// something derived from the status vector (the scheduler's
	// potential-completion masks) compares it instead of recomputing.
	statusGen uint64
	// alts holds the chains whose alternative index is past 0, the
	// preferred alternative; it stays empty on a failure-free run.
	alts    []altPos
	commits int // activities committed so far
	// pendingComps counts the activities whose compensation is
	// outstanding (actState.comp).
	pendingComps int

	// pendingAdvance holds, while a failure recovery is in progress, the
	// chain to advance once the branch's compensations have been applied.
	pendingAdvance *chainKey

	aborting   bool // Abort was requested; completion in progress
	terminated bool
	committed  bool // terminated with (overall) commit of the chosen path
}

// NewInstance returns a fresh instance for the process.
func NewInstance(p *Process) *Instance {
	in := &Instance{p: p, acts: make([]actState, len(p.acts))}
	in.selectPath()
	return in
}

// Process returns the process definition.
func (in *Instance) Process() *Process { return in.p }

// Status returns the status of an activity (Pending for an unknown one).
func (in *Instance) Status(local int) Status {
	if i, ok := in.p.index(local); ok {
		return in.acts[i].status
	}
	return Pending
}

// PredsCommitted reports whether every direct ≪-predecessor of the
// activity is committed.
func (in *Instance) PredsCommitted(local int) bool {
	i, ok := in.p.index(local)
	if !ok {
		return true
	}
	for _, j := range in.p.preds[i] {
		if in.acts[j].status != Committed {
			return false
		}
	}
	return true
}

// StatusGen changes whenever an activity's status does, and with it
// possibly Mode and PotentialRecoveryServices.
func (in *Instance) StatusGen() uint64 { return in.statusGen }

// set is the one writer of the status vector after construction; i is
// a position.
func (in *Instance) set(i int, st Status) {
	in.acts[i].status = st
	in.statusGen++
}

// alt returns the index of the chosen alternative of a chain.
func (in *Instance) alt(key chainKey) int {
	for _, a := range in.alts {
		if a.key == key {
			return a.idx
		}
	}
	return 0
}

// advance moves a chain to its next alternative and recomputes the
// chosen execution path.
func (in *Instance) advance(key chainKey) {
	i := slices.IndexFunc(in.alts, func(a altPos) bool { return a.key == key })
	if i < 0 {
		in.alts = append(in.alts, altPos{key: key})
		i = len(in.alts) - 1
	}
	in.alts[i].idx++
	in.selectPath()
}

// selectPath marks the activities on the currently chosen execution
// path. The path depends only on the alternative indexes, so it is
// recomputed when one of them moves, never on a read.
func (in *Instance) selectPath() {
	for i := range in.acts {
		in.acts[i].sel = false
	}
	for _, r := range in.p.roots {
		in.selectFrom(r)
	}
}

func (in *Instance) selectFrom(n int) {
	st := &in.acts[n]
	if st.sel {
		return
	}
	st.sel = true
	for ci, chain := range in.p.chains[n] {
		if k := in.alt(chainKey{n, ci}); k < len(chain) {
			in.selectFrom(chain[k])
		}
	}
}

// Terminated reports whether the process has reached a terminal state.
func (in *Instance) Terminated() bool { return in.terminated }

// Aborting reports whether an abort (completion) is in progress.
func (in *Instance) Aborting() bool { return in.aborting }

// CommittedOutcome reports whether the terminated process ended with C_i
// after a regular (non-abort) execution path.
func (in *Instance) CommittedOutcome() bool { return in.terminated && in.committed }

// Mode returns B-REC or F-REC: the process is forward-recoverable once a
// non-compensatable activity has committed (the state-determining
// activity s_{i_0} is by construction the first such activity).
func (in *Instance) Mode() Mode {
	for i := range in.acts {
		if in.acts[i].status == Committed && in.p.acts[i].Kind.NonCompensatable() {
			return FREC
		}
	}
	return BREC
}

// Frontier returns the local ids of activities that are ready to be
// invoked: pending, on the selected path, with every predecessor
// committed, and with no recovery outstanding on their selecting chain.
// A merely *prepared* predecessor does not enable its successors: its
// commit is deferred and it may still be rolled back, and a rolled-back
// activity must never have committed successors. The result is sorted.
func (in *Instance) Frontier() []int { return in.AppendFrontier(nil) }

// AppendFrontier appends Frontier to dst and returns the extended slice,
// so a caller that keeps a buffer reads the frontier without allocating.
func (in *Instance) AppendFrontier(dst []int) []int {
	// While compensations of an abandoned branch are outstanding nothing
	// is ready: all activities succeeding the abandoned alternative must
	// have been compensated before the next alternative executes
	// (Section 3.1).
	if in.terminated || in.aborting || in.pendingComps > 0 {
		return dst
	}
	for i, id := range in.p.order {
		if st := in.acts[i]; st.status != Pending || !st.sel {
			continue
		}
		ready := true
		for _, h := range in.p.preds[i] {
			if in.acts[h].status != Committed {
				ready = false
				break
			}
		}
		if ready {
			dst = append(dst, id) // p.order is ascending
		}
	}
	return dst
}

// Done reports whether the selected path has fully executed (nothing
// pending on it and no recovery outstanding). A done, non-aborting
// process is ready for its commit C_i.
func (in *Instance) Done() bool {
	if in.terminated {
		return true
	}
	if in.pendingComps > 0 || in.pendingAdvance != nil {
		return false
	}
	for _, st := range in.acts {
		if st.sel && st.status == Pending {
			return false
		}
	}
	return true
}

// PreparedSet returns the prepared (deferred-commit) activities, sorted.
func (in *Instance) PreparedSet() []int {
	var out []int
	for i, id := range in.p.order {
		if in.acts[i].status == Prepared {
			out = append(out, id)
		}
	}
	return out
}

// MarkPrepared records that the activity's local transaction executed
// successfully with its commit deferred (non-compensatable activities
// under Lemma 1).
func (in *Instance) MarkPrepared(local int) error {
	_, err := in.transition(local, Pending, Prepared)
	return err
}

// MarkCommitted records the commit of the activity's local transaction.
// Pending activities commit directly (no deferral); prepared activities
// commit when the two phase commit protocol completes.
func (in *Instance) MarkCommitted(local int) error {
	i, ok := in.p.index(local)
	if !ok {
		return fmt.Errorf("process %s: unknown activity %d", in.p.ID, local)
	}
	st := &in.acts[i]
	if s := st.status; s != Pending && s != Prepared && !((s == Abandoned || s == AbortedPrepared) && in.aborting) {
		// Abandoned and rolled-back activities may still commit during
		// an abort: the forward recovery path re-activates the
		// lowest-priority retriable alternative and re-invokes
		// rolled-back retriables.
		return fmt.Errorf("process %s: activity %d cannot commit from %v", in.p.ID, local, s)
	}
	in.set(i, Committed)
	in.commits++ // an activity commits at most once
	st.rank = in.commits
	return nil
}

// MarkCompensated records that the compensating activity of local has
// committed. When all compensations of an abandoned branch have been
// applied, the next alternative becomes executable.
func (in *Instance) MarkCompensated(local int) error {
	i, err := in.transition(local, Committed, Compensated)
	if err != nil {
		return err
	}
	if st := &in.acts[i]; st.comp {
		st.comp = false
		in.pendingComps--
		if in.pendingComps == 0 && in.pendingAdvance != nil {
			in.advance(*in.pendingAdvance)
			in.pendingAdvance = nil
		}
	}
	return nil
}

// expectCompensation marks the compensation of the activity at position
// i as outstanding.
func (in *Instance) expectCompensation(i int) {
	if st := &in.acts[i]; !st.comp {
		st.comp = true
		in.pendingComps++
	}
}

// MarkAbortedPrepared records the rollback of a prepared activity.
func (in *Instance) MarkAbortedPrepared(local int) error {
	_, err := in.transition(local, Prepared, AbortedPrepared)
	return err
}

// ResetPrepared returns a prepared activity to pending: its local
// transaction was rolled back for reasons that are not a failure of the
// process (recovery presumed the in-doubt transaction aborted) and it
// will simply be re-invoked.
func (in *Instance) ResetPrepared(local int) error {
	_, err := in.transition(local, Prepared, Pending)
	return err
}

// MarkTerminated records the terminal event of the process. committed is
// true for C_i after a regular path, false only for pure backward
// recovery (in the completed schedule even aborts end as C_i, Def. 8.2c).
func (in *Instance) MarkTerminated(committed bool) {
	in.terminated = true
	in.committed = committed
}

// transition moves an activity from one status to another and returns
// its position.
func (in *Instance) transition(local int, from, to Status) (int, error) {
	i, ok := in.p.index(local)
	if !ok {
		return 0, fmt.Errorf("process %s: unknown activity %d", in.p.ID, local)
	}
	if st := in.acts[i].status; st != from {
		return 0, fmt.Errorf("process %s: activity %d is %v, want %v", in.p.ID, local, st, from)
	}
	in.set(i, to)
	return i, nil
}

// FailurePlan is the reaction to the permanent failure of an activity
// (or to an abort): compensations and rollbacks to perform, and either
// the head of the alternative path that becomes executable afterwards,
// or the fact that the process aborts.
type FailurePlan struct {
	// Steps to execute, in order: compensations of committed activities
	// of the abandoned branch in reverse precedence order, and rollbacks
	// of prepared activities.
	Steps []Step
	// NextAlt is the activity that heads the alternative execution path
	// (0 when the process aborts instead).
	NextAlt int
	// Abort is true when no alternative exists and the process performs
	// backward recovery (only possible in B-REC).
	Abort bool
}

// MarkFailed records the permanent failure of a compensatable or pivot
// activity and computes the recovery plan per the preference order ◁: the
// nearest enclosing choice point with an untried alternative is located,
// every committed activity of the abandoned branch is scheduled for
// compensation (they are all compensatable in a process with guaranteed
// termination), and the next alternative is activated once those
// compensations have been applied. Without such a choice point, a B-REC
// process aborts; for an F-REC process this would violate guaranteed
// termination and is reported as an error.
func (in *Instance) MarkFailed(local int) (FailurePlan, error) {
	i, ok := in.p.index(local)
	if !ok {
		return FailurePlan{}, fmt.Errorf("process %s: unknown activity %d", in.p.ID, local)
	}
	if in.p.acts[i].Kind.GuaranteedToCommit() {
		return FailurePlan{}, fmt.Errorf("process %s: retriable activity %d cannot fail permanently (Definition 3)", in.p.ID, local)
	}
	if st := in.acts[i].status; st != Pending {
		return FailurePlan{}, fmt.Errorf("process %s: activity %d is %v, cannot fail", in.p.ID, local, st)
	}
	in.set(i, Failed)

	key, branchHead, ok := in.findChoicePoint(i)
	if !ok {
		if in.Mode() == FREC {
			return FailurePlan{}, fmt.Errorf("process %s: activity %d failed in F-REC with no alternative: guaranteed termination violated", in.p.ID, local)
		}
		plan := in.backwardRecoveryPlan()
		in.beginAbort()
		return plan, nil
	}

	// Abandon the branch rooted at branchHead: compensate its committed
	// activities (reverse precedence order), roll back its prepared
	// ones, abandon its pending ones.
	steps, err := in.abandonNodes(in.p.appendSubtree(nil, branchHead))
	if err != nil {
		return FailurePlan{}, err
	}
	next := in.p.order[in.p.chains[key.node][key.idx][in.alt(key)+1]]
	if in.pendingComps == 0 {
		in.advance(key)
	} else {
		k := key
		in.pendingAdvance = &k
	}
	return FailurePlan{Steps: steps, NextAlt: next}, nil
}

// findChoicePoint locates the nearest enclosing (node, chain) whose
// current alternative's branch contains the failed activity and which has
// an untried later alternative not blocked by a committed
// non-compensatable activity inside the branch. "Nearest" means the
// branch head is maximal in the precedence order. Activities are
// positions.
func (in *Instance) findChoicePoint(failed int) (chainKey, int, bool) {
	type cand struct {
		key  chainKey
		head int
	}
	var cands []cand
	for node, chains := range in.p.chains {
		for ci, chain := range chains {
			key := chainKey{node, ci}
			k := in.alt(key)
			if k >= len(chain)-1 {
				continue // no later alternative
			}
			head := chain[k]
			if head != failed && !in.p.before(head, failed) {
				continue // failed activity not inside this branch
			}
			// A committed non-compensatable inside the branch pins it:
			// the branch cannot be abandoned (compensation unavailable).
			if !in.branchPinned(head) {
				cands = append(cands, cand{key, head})
			}
		}
	}
	if len(cands) == 0 {
		return chainKey{}, 0, false
	}
	// Nearest: branch head maximal in ≪; ties broken by id for
	// determinism.
	sort.Slice(cands, func(i, j int) bool {
		if in.p.before(cands[j].head, cands[i].head) {
			return true
		}
		if in.p.before(cands[i].head, cands[j].head) {
			return false
		}
		return cands[i].head > cands[j].head
	})
	return cands[0].key, cands[0].head, true
}

// abandonNodes marks the activities at the given positions
// abandoned/compensating and returns the recovery steps (compensations in
// reverse precedence order first, then rollbacks of prepared activities).
func (in *Instance) abandonNodes(nodes []int) ([]Step, error) {
	var comp, rollback []int
	for _, n := range nodes {
		switch in.acts[n].status {
		case Committed:
			if in.p.acts[n].Kind.NonCompensatable() {
				return nil, fmt.Errorf("process %s: cannot abandon committed non-compensatable activity %d", in.p.ID, in.p.order[n])
			}
			comp = append(comp, n)
		case Prepared:
			rollback = append(rollback, n)
		case Pending:
			in.set(n, Abandoned)
		}
	}
	in.sortReverseOrder(comp)
	steps := make([]Step, 0, len(comp)+len(rollback))
	for _, n := range comp {
		in.expectCompensation(n)
		steps = append(steps, in.step(StepCompensate, n))
	}
	for _, n := range rollback {
		in.set(n, AbortedPrepared)
		steps = append(steps, in.step(StepAbortPrepared, n))
	}
	return steps, nil
}

// step is the recovery step of the given kind for the activity at
// position i: a compensation invokes its compensating service, anything
// else its service.
func (in *Instance) step(kind StepKind, i int) Step {
	a := &in.p.acts[i]
	if kind == StepCompensate {
		return Step{Kind: kind, Local: a.Local, Service: a.Compensation}
	}
	return Step{Kind: kind, Local: a.Local, Service: a.Service}
}

// sortReverseOrder sorts positions so that ≪-later activities come
// first (compensating activities must be executed in reverse order of the
// original activities, Lemma 2); activities ≪ leaves unordered come in
// the reverse of the order they committed in, which is the order of the
// schedule they are part of.
func (in *Instance) sortReverseOrder(pos []int) {
	sort.Slice(pos, func(i, j int) bool {
		a, b := pos[i], pos[j]
		if in.p.before(b, a) {
			return true
		}
		if in.p.before(a, b) {
			return false
		}
		if ra, rb := in.acts[a].rank, in.acts[b].rank; ra != rb {
			return ra > rb
		}
		return a > b
	})
}

// backwardRecoveryPlan compensates every committed activity (all
// compensatable in B-REC) in reverse precedence order and rolls back
// every prepared activity.
func (in *Instance) backwardRecoveryPlan() FailurePlan {
	steps := in.completionBackward()
	// Prepared activities are rolled back first: they may be
	// non-compensatable activities whose locks would otherwise block the
	// compensations, and rollback is always safe (atomicity).
	for _, s := range steps {
		i, _ := in.p.index(s.Local)
		if s.Kind == StepAbortPrepared {
			in.set(i, AbortedPrepared)
		} else {
			in.expectCompensation(i)
		}
	}
	return FailurePlan{Abort: true, Steps: steps}
}

func (in *Instance) beginAbort() {
	in.aborting = true
	for i := range in.acts {
		if in.acts[i].status == Pending {
			in.set(i, Abandoned)
		}
	}
}

// Completion computes C(P): the set of activities to be executed for
// recovery purposes from the current state (Section 3.1). In B-REC it
// consists only of compensating activities (plus rollbacks of prepared
// activities); in F-REC it consists of local backward recovery to the
// latest committed state-determining element followed by the retriable
// activities of the forward recovery path (the alternative with lowest
// priority, which consists only of retriable activities).
func (in *Instance) Completion() ([]Step, error) {
	if in.terminated {
		return nil, nil
	}
	if in.Mode() == BREC {
		plan := in.completionBackward()
		return plan, nil
	}
	return in.completionForward()
}

// completionBackward rolls back every prepared activity and compensates
// every committed one, both in reverse precedence order.
func (in *Instance) completionBackward() []Step {
	var comp, rollback []int
	for i := range in.acts {
		switch in.acts[i].status {
		case Committed:
			comp = append(comp, i)
		case Prepared:
			rollback = append(rollback, i)
		}
	}
	in.sortReverseOrder(comp)
	in.sortReverseOrder(rollback)
	steps := make([]Step, 0, len(comp)+len(rollback))
	for _, n := range rollback {
		steps = append(steps, in.step(StepAbortPrepared, n))
	}
	for _, n := range comp {
		steps = append(steps, in.step(StepCompensate, n))
	}
	return steps
}

// completionForward computes the F-REC completion: determine the forward
// recovery path (continuing past committed non-compensatable anchors and
// otherwise switching to the lowest-priority alternative at every choice
// point), compensate committed compensatable activities that are not
// needed by that path, and invoke the path's remaining activities.
func (in *Instance) completionForward() ([]Step, error) {
	keep := make([]bool, len(in.acts))    // committed work the path builds on
	visited := make([]bool, len(in.acts)) // walked by the path
	var invoke []int                      // pending activities of the forward path
	var rollback []int                    // prepared activities to roll back
	local := in.p.order

	var walk func(n int) error
	walk = func(n int) error {
		if visited[n] {
			return nil
		}
		visited[n] = true
		for ci, chain := range in.p.chains[n] {
			key := chainKey{n, ci}
			k := in.alt(key)
			if k >= len(chain) {
				continue
			}
			// The current alternative is pinned if its branch contains a
			// committed non-compensatable activity; otherwise the abort
			// jumps to the lowest-priority alternative.
			j := len(chain) - 1
			if in.branchPinned(chain[k]) {
				j = k
			}
			m := chain[j]
			switch st := in.acts[m].status; st {
			case Committed:
				keep[m] = true
			case Prepared:
				// Prepared work beyond the anchors is rolled back unless
				// it is itself pinned below (it cannot be: pinning only
				// considers committed activities). Roll it back and
				// re-invoke if it is retriable and on the path.
				rollback = append(rollback, m)
				if in.p.acts[m].Kind == activity.Retriable {
					invoke = append(invoke, m)
				} else {
					return fmt.Errorf("process %s: prepared non-retriable activity %d on forward recovery path", in.p.ID, local[m])
				}
			case Pending, Abandoned:
				if in.p.acts[m].Kind != activity.Retriable {
					return fmt.Errorf("process %s: forward recovery path contains non-retriable activity %d: guaranteed termination violated", in.p.ID, local[m])
				}
				invoke = append(invoke, m)
			case Failed, Compensated, AbortedPrepared:
				return fmt.Errorf("process %s: forward recovery path reaches activity %d in state %v", in.p.ID, local[m], st)
			}
			if err := walk(m); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range in.p.roots {
		switch in.acts[r].status {
		case Committed:
			keep[r] = true
		case Prepared:
			rollback = append(rollback, r)
		default:
			// Root never ran: in F-REC this means a parallel root branch
			// has not started; it is not required for the completion.
			continue
		}
		if err := walk(r); err != nil {
			return nil, err
		}
	}

	// keep must be closed under predecessors: committed work the path's
	// activities depend on is retained.
	var closeUp func(n int)
	closeUp = func(n int) {
		for _, h := range in.p.preds[n] {
			if in.acts[h].status == Committed && !keep[h] {
				keep[h] = true
				closeUp(h)
			}
		}
	}
	for i := range keep {
		if keep[i] {
			closeUp(i)
		}
	}
	for _, i := range invoke {
		closeUp(i)
	}

	var comp []int
	for i := range in.acts {
		switch in.acts[i].status {
		case Committed:
			if !keep[i] {
				if in.p.acts[i].Kind.NonCompensatable() {
					return nil, fmt.Errorf("process %s: committed non-compensatable activity %d off the forward recovery path", in.p.ID, local[i])
				}
				comp = append(comp, i)
			}
		case Prepared:
			if !slices.Contains(rollback, i) {
				rollback = append(rollback, i)
			}
		}
	}
	in.sortReverseOrder(comp)
	in.sortReverseOrder(rollback)
	// Order the invocations in precedence order.
	sort.Slice(invoke, func(i, j int) bool {
		a, b := invoke[i], invoke[j]
		if in.p.before(a, b) {
			return true
		}
		if in.p.before(b, a) {
			return false
		}
		return a < b
	})

	steps := make([]Step, 0, len(comp)+len(rollback)+len(invoke))
	for _, i := range rollback {
		steps = append(steps, in.step(StepAbortPrepared, i))
	}
	for _, i := range comp {
		steps = append(steps, in.step(StepCompensate, i))
	}
	for _, i := range invoke {
		steps = append(steps, in.step(StepInvoke, i))
	}
	return steps, nil
}

// branchPinned reports whether the branch rooted at position head
// contains a committed non-compensatable activity (which makes the branch
// impossible to abandon).
func (in *Instance) branchPinned(head int) bool {
	for i := range in.acts {
		if (i == head || in.p.before(head, i)) && in.acts[i].status == Committed && in.p.acts[i].Kind.NonCompensatable() {
			return true
		}
	}
	return false
}

// Abort requests the termination of the process for recovery purposes
// (the abort A_i, or the group abort of Definition 8.2b for an active
// process). It returns the completion C(P_i) as an executable plan and
// moves the instance into the aborting state; the caller executes the
// steps and finally calls MarkTerminated.
func (in *Instance) Abort() ([]Step, error) {
	if in.terminated {
		return nil, fmt.Errorf("process %s: already terminated", in.p.ID)
	}
	steps, err := in.Completion()
	if err != nil {
		return nil, err
	}
	in.beginAbort()
	return steps, nil
}

// ApplyStep records the effect of an executed recovery step on the
// instance state.
func (in *Instance) ApplyStep(s Step) error {
	switch s.Kind {
	case StepCompensate:
		return in.MarkCompensated(s.Local)
	case StepAbortPrepared:
		if in.Status(s.Local) == AbortedPrepared {
			return nil // already recorded by the plan computation
		}
		return in.MarkAbortedPrepared(s.Local)
	case StepInvoke:
		return in.MarkCommitted(s.Local)
	default:
		return fmt.Errorf("process %s: unknown step kind %v", in.p.ID, s.Kind)
	}
}

// PotentialRecoveryServices returns the set of services that might still
// be invoked by or for this process: services of activities not yet
// committed (on any alternative path) and compensating services of
// committed compensatable activities that could appear in some future
// completion (those not strictly before every committed
// non-compensatable anchor). A scheduler uses this set to decide whether
// another process may safely conflict with this one while it is active:
// if none of these services conflicts with the other activity, no
// completion of this process can ever close a conflict cycle through it
// (the "quasi commit" exploitation of Example 10).
func (in *Instance) PotentialRecoveryServices() map[string]bool {
	out := make(map[string]bool)
	for i, comp := range in.PotentialRecoverySeq() {
		if a := &in.p.acts[i]; comp {
			out[a.Compensation] = true
		} else {
			out[a.Service] = true
		}
	}
	return out
}

// PotentialRecoverySeq yields the set of PotentialRecoveryServices by
// activity position, without building it: the position, and whether the
// service is the activity's compensation rather than its own. A position
// comes at most once.
func (in *Instance) PotentialRecoverySeq() iter.Seq2[int, bool] {
	return func(yield func(int, bool) bool) {
		for i := range in.acts {
			switch in.acts[i].status {
			case Pending, Abandoned, Prepared, AbortedPrepared:
				// Might (re-)execute on some path or during completion.
				if !yield(i, false) {
					return
				}
			case Committed:
				// Compensation possible unless the activity is locked in
				// before a committed non-compensatable anchor.
				if in.p.acts[i].Kind == activity.Compensatable && !in.beforeAnchor(i) && !yield(i, true) {
					return
				}
			}
		}
	}
}

// beforeAnchor reports whether the activity at position i is ≪-before a
// committed non-compensatable activity.
func (in *Instance) beforeAnchor(i int) bool {
	for j := range in.acts {
		if in.acts[j].status == Committed && in.p.acts[j].Kind.NonCompensatable() && in.p.before(i, j) {
			return true
		}
	}
	return false
}

// Snapshot returns a copy of the per-activity statuses, for reporting.
func (in *Instance) Snapshot() map[int]Status {
	out := make(map[int]Status, len(in.acts))
	for i, id := range in.p.order {
		out[id] = in.acts[i].status
	}
	return out
}

// Clone returns a deep copy of the instance (used by exhaustive
// validators).
func (in *Instance) Clone() *Instance {
	cp := *in
	cp.acts = slices.Clone(in.acts)
	cp.alts = slices.Clone(in.alts)
	if in.pendingAdvance != nil {
		k := *in.pendingAdvance
		cp.pendingAdvance = &k
	}
	return &cp
}
