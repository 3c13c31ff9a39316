package process_test

import (
	"fmt"
	"sort"

	"transproc/internal/activity"
	"transproc/internal/process"
)

// refInstance is the map-based Instance the slice-based one replaced,
// kept as the oracle of TestInstanceMatchesReference: per-activity state
// in maps keyed by local id, the selected path rebuilt as a fresh map on
// every Frontier and Done, the potential recovery services collected
// into a fresh set. It reads the process only through its exported
// accessors. Comments on the algorithms are in instance.go.
type refInstance struct {
	p           *process.Process
	ids         []int
	status      map[int]process.Status
	statusGen   uint64
	altIdx      map[[2]int]int // (node, chain index) -> alternative
	commitRank  map[int]int
	pendingAdv  *[2]int
	pendingComp map[int]bool
	aborting    bool
	terminated  bool
	committed   bool
}

func newRefInstance(p *process.Process) *refInstance {
	in := &refInstance{
		p:           p,
		status:      make(map[int]process.Status),
		altIdx:      make(map[[2]int]int),
		commitRank:  make(map[int]int),
		pendingComp: make(map[int]bool),
	}
	for _, a := range p.Activities() {
		in.ids = append(in.ids, a.Local)
		in.status[a.Local] = process.Pending
	}
	return in
}

func (in *refInstance) set(local int, st process.Status) {
	in.status[local] = st
	in.statusGen++
}

func (in *refInstance) Mode() process.Mode {
	for id, st := range in.status {
		if st == process.Committed && in.p.Activity(id).Kind.NonCompensatable() {
			return process.FREC
		}
	}
	return process.BREC
}

func (in *refInstance) selected() map[int]bool {
	sel := make(map[int]bool, len(in.ids))
	var visit func(n int)
	visit = func(n int) {
		if sel[n] {
			return
		}
		sel[n] = true
		for ci, chain := range in.p.Chains(n) {
			if k := in.altIdx[[2]int{n, ci}]; k < len(chain) {
				visit(chain[k])
			}
		}
	}
	for _, r := range in.p.Roots() {
		visit(r)
	}
	return sel
}

func (in *refInstance) Frontier() []int {
	if in.terminated || in.aborting {
		return nil
	}
	sel := in.selected()
	var out []int
	for _, id := range in.ids {
		if in.status[id] != process.Pending || !sel[id] {
			continue
		}
		ready := true
		for _, h := range in.p.Preds(id) {
			if in.status[h] != process.Committed {
				ready = false
				break
			}
		}
		if ready && len(in.pendingComp) == 0 {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func (in *refInstance) Done() bool {
	if in.terminated {
		return true
	}
	if len(in.pendingComp) > 0 || in.pendingAdv != nil {
		return false
	}
	for id, isSel := range in.selected() {
		if isSel && in.status[id] == process.Pending {
			return false
		}
	}
	return true
}

func (in *refInstance) PreparedSet() []int {
	var out []int
	for id, st := range in.status {
		if st == process.Prepared {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func (in *refInstance) MarkPrepared(local int) error {
	return in.transition(local, process.Pending, process.Prepared)
}

func (in *refInstance) MarkCommitted(local int) error {
	st, ok := in.status[local]
	if !ok {
		return fmt.Errorf("process %s: unknown activity %d", in.p.ID, local)
	}
	if st != process.Pending && st != process.Prepared && !((st == process.Abandoned || st == process.AbortedPrepared) && in.aborting) {
		return fmt.Errorf("process %s: activity %d cannot commit from %v", in.p.ID, local, st)
	}
	in.set(local, process.Committed)
	in.commitRank[local] = len(in.commitRank) + 1
	return nil
}

func (in *refInstance) MarkCompensated(local int) error {
	if err := in.transition(local, process.Committed, process.Compensated); err != nil {
		return err
	}
	if in.pendingComp[local] {
		delete(in.pendingComp, local)
		if len(in.pendingComp) == 0 && in.pendingAdv != nil {
			in.altIdx[*in.pendingAdv]++
			in.pendingAdv = nil
		}
	}
	return nil
}

func (in *refInstance) MarkAbortedPrepared(local int) error {
	return in.transition(local, process.Prepared, process.AbortedPrepared)
}

func (in *refInstance) ResetPrepared(local int) error {
	return in.transition(local, process.Prepared, process.Pending)
}

func (in *refInstance) MarkTerminated(committed bool) {
	in.terminated = true
	in.committed = committed
}

func (in *refInstance) transition(local int, from, to process.Status) error {
	st, ok := in.status[local]
	if !ok {
		return fmt.Errorf("process %s: unknown activity %d", in.p.ID, local)
	}
	if st != from {
		return fmt.Errorf("process %s: activity %d is %v, want %v", in.p.ID, local, st, from)
	}
	in.set(local, to)
	return nil
}

func (in *refInstance) MarkFailed(local int) (process.FailurePlan, error) {
	a := in.p.Activity(local)
	if a == nil {
		return process.FailurePlan{}, fmt.Errorf("process %s: unknown activity %d", in.p.ID, local)
	}
	if a.Kind.GuaranteedToCommit() {
		return process.FailurePlan{}, fmt.Errorf("process %s: retriable activity %d cannot fail permanently (Definition 3)", in.p.ID, local)
	}
	if st := in.status[local]; st != process.Pending {
		return process.FailurePlan{}, fmt.Errorf("process %s: activity %d is %v, cannot fail", in.p.ID, local, st)
	}
	in.set(local, process.Failed)
	key, branchHead, ok := in.findChoicePoint(local)
	if !ok {
		if in.Mode() == process.FREC {
			return process.FailurePlan{}, fmt.Errorf("process %s: activity %d failed in F-REC with no alternative: guaranteed termination violated", in.p.ID, local)
		}
		plan := in.backwardRecoveryPlan()
		in.beginAbort()
		return plan, nil
	}
	steps, err := in.abandonNodes(in.p.Subtree(branchHead))
	if err != nil {
		return process.FailurePlan{}, err
	}
	next := in.p.Chains(key[0])[key[1]][in.altIdx[key]+1]
	if len(in.pendingComp) == 0 {
		in.altIdx[key]++
	} else {
		k := key
		in.pendingAdv = &k
	}
	return process.FailurePlan{Steps: steps, NextAlt: next}, nil
}

func (in *refInstance) findChoicePoint(failed int) ([2]int, int, bool) {
	type cand struct {
		key  [2]int
		head int
	}
	var cands []cand
	for _, node := range in.ids {
		for ci, chain := range in.p.Chains(node) {
			key := [2]int{node, ci}
			k := in.altIdx[key]
			if k >= len(chain)-1 {
				continue
			}
			head := chain[k]
			if head != failed && !in.p.Before(head, failed) {
				continue
			}
			if !in.branchPinned(head) {
				cands = append(cands, cand{key, head})
			}
		}
	}
	if len(cands) == 0 {
		return [2]int{}, 0, false
	}
	sort.Slice(cands, func(i, j int) bool {
		if in.p.Before(cands[j].head, cands[i].head) {
			return true
		}
		if in.p.Before(cands[i].head, cands[j].head) {
			return false
		}
		return cands[i].head > cands[j].head
	})
	return cands[0].key, cands[0].head, true
}

func (in *refInstance) abandonNodes(nodes []int) ([]process.Step, error) {
	var comp, rollback []int
	for _, n := range nodes {
		switch in.status[n] {
		case process.Committed:
			if in.p.Activity(n).Kind.NonCompensatable() {
				return nil, fmt.Errorf("process %s: cannot abandon committed non-compensatable activity %d", in.p.ID, n)
			}
			comp = append(comp, n)
		case process.Prepared:
			rollback = append(rollback, n)
		case process.Pending:
			in.set(n, process.Abandoned)
		}
	}
	in.sortReverseOrder(comp)
	steps := make([]process.Step, 0, len(comp)+len(rollback))
	for _, n := range comp {
		in.pendingComp[n] = true
		steps = append(steps, process.Step{Kind: process.StepCompensate, Local: n, Service: in.p.Activity(n).Compensation})
	}
	for _, n := range rollback {
		in.set(n, process.AbortedPrepared)
		steps = append(steps, process.Step{Kind: process.StepAbortPrepared, Local: n, Service: in.p.Activity(n).Service})
	}
	return steps, nil
}

func (in *refInstance) sortReverseOrder(locals []int) {
	sort.Slice(locals, func(i, j int) bool {
		a, b := locals[i], locals[j]
		if in.p.Before(b, a) {
			return true
		}
		if in.p.Before(a, b) {
			return false
		}
		if ra, rb := in.commitRank[a], in.commitRank[b]; ra != rb {
			return ra > rb
		}
		return a > b
	})
}

// committedAndPrepared returns the committed and the prepared activities
// in reverse precedence order.
func (in *refInstance) committedAndPrepared() (comp, rollback []int) {
	for _, id := range in.ids {
		switch in.status[id] {
		case process.Committed:
			comp = append(comp, id)
		case process.Prepared:
			rollback = append(rollback, id)
		}
	}
	in.sortReverseOrder(comp)
	in.sortReverseOrder(rollback)
	return comp, rollback
}

func (in *refInstance) backwardRecoveryPlan() process.FailurePlan {
	comp, rollback := in.committedAndPrepared()
	steps := make([]process.Step, 0, len(comp)+len(rollback))
	for _, n := range rollback {
		in.set(n, process.AbortedPrepared)
		steps = append(steps, process.Step{Kind: process.StepAbortPrepared, Local: n, Service: in.p.Activity(n).Service})
	}
	for _, n := range comp {
		in.pendingComp[n] = true
		steps = append(steps, process.Step{Kind: process.StepCompensate, Local: n, Service: in.p.Activity(n).Compensation})
	}
	return process.FailurePlan{Abort: true, Steps: steps}
}

func (in *refInstance) beginAbort() {
	in.aborting = true
	for _, id := range in.ids {
		if in.status[id] == process.Pending {
			in.set(id, process.Abandoned)
		}
	}
}

func (in *refInstance) Completion() ([]process.Step, error) {
	if in.terminated {
		return nil, nil
	}
	if in.Mode() == process.BREC {
		comp, rollback := in.committedAndPrepared()
		steps := make([]process.Step, 0, len(comp)+len(rollback))
		for _, n := range rollback {
			steps = append(steps, process.Step{Kind: process.StepAbortPrepared, Local: n, Service: in.p.Activity(n).Service})
		}
		for _, n := range comp {
			steps = append(steps, process.Step{Kind: process.StepCompensate, Local: n, Service: in.p.Activity(n).Compensation})
		}
		return steps, nil
	}
	return in.completionForward()
}

func (in *refInstance) completionForward() ([]process.Step, error) {
	keep := make(map[int]bool)
	var invoke, rollback []int
	visited := make(map[int]bool)
	var walk func(n int) error
	walk = func(n int) error {
		if visited[n] {
			return nil
		}
		visited[n] = true
		for ci, chain := range in.p.Chains(n) {
			k := in.altIdx[[2]int{n, ci}]
			if k >= len(chain) {
				continue
			}
			j := len(chain) - 1
			if in.branchPinned(chain[k]) {
				j = k
			}
			m := chain[j]
			switch in.status[m] {
			case process.Committed:
				keep[m] = true
			case process.Prepared:
				rollback = append(rollback, m)
				if in.p.Activity(m).Kind != activity.Retriable {
					return fmt.Errorf("process %s: prepared non-retriable activity %d on forward recovery path", in.p.ID, m)
				}
				invoke = append(invoke, m)
			case process.Pending, process.Abandoned:
				if in.p.Activity(m).Kind != activity.Retriable {
					return fmt.Errorf("process %s: forward recovery path contains non-retriable activity %d: guaranteed termination violated", in.p.ID, m)
				}
				invoke = append(invoke, m)
			case process.Failed, process.Compensated, process.AbortedPrepared:
				return fmt.Errorf("process %s: forward recovery path reaches activity %d in state %v", in.p.ID, m, in.status[m])
			}
			if err := walk(m); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range in.p.Roots() {
		switch in.status[r] {
		case process.Committed:
			keep[r] = true
		case process.Prepared:
			rollback = append(rollback, r)
		case process.Pending:
			continue
		}
		if in.status[r] == process.Committed || in.status[r] == process.Prepared {
			if err := walk(r); err != nil {
				return nil, err
			}
		}
	}
	keepClosed := make(map[int]bool)
	var closeUp func(n int)
	closeUp = func(n int) {
		for _, h := range in.p.Preds(n) {
			if in.status[h] == process.Committed && !keepClosed[h] {
				keepClosed[h] = true
				closeUp(h)
			}
		}
	}
	for n := range keep {
		keepClosed[n] = true
		closeUp(n)
	}
	for _, n := range invoke {
		closeUp(n)
	}
	var comp []int
	for _, id := range in.ids {
		switch in.status[id] {
		case process.Committed:
			if !keepClosed[id] {
				if in.p.Activity(id).Kind.NonCompensatable() {
					return nil, fmt.Errorf("process %s: committed non-compensatable activity %d off the forward recovery path", in.p.ID, id)
				}
				comp = append(comp, id)
			}
		case process.Prepared:
			found := false
			for _, r := range rollback {
				if r == id {
					found = true
					break
				}
			}
			if !found {
				rollback = append(rollback, id)
			}
		}
	}
	in.sortReverseOrder(comp)
	in.sortReverseOrder(rollback)
	sort.Slice(invoke, func(i, j int) bool {
		a, b := invoke[i], invoke[j]
		if in.p.Before(a, b) {
			return true
		}
		if in.p.Before(b, a) {
			return false
		}
		return a < b
	})
	steps := make([]process.Step, 0, len(comp)+len(rollback)+len(invoke))
	for _, n := range rollback {
		steps = append(steps, process.Step{Kind: process.StepAbortPrepared, Local: n, Service: in.p.Activity(n).Service})
	}
	for _, n := range comp {
		steps = append(steps, process.Step{Kind: process.StepCompensate, Local: n, Service: in.p.Activity(n).Compensation})
	}
	for _, n := range invoke {
		steps = append(steps, process.Step{Kind: process.StepInvoke, Local: n, Service: in.p.Activity(n).Service})
	}
	return steps, nil
}

func (in *refInstance) branchPinned(head int) bool {
	for _, n := range in.p.Subtree(head) {
		if in.status[n] == process.Committed && in.p.Activity(n).Kind.NonCompensatable() {
			return true
		}
	}
	return false
}

func (in *refInstance) Abort() ([]process.Step, error) {
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

func (in *refInstance) ApplyStep(s process.Step) error {
	switch s.Kind {
	case process.StepCompensate:
		return in.MarkCompensated(s.Local)
	case process.StepAbortPrepared:
		if in.status[s.Local] == process.AbortedPrepared {
			return nil
		}
		return in.MarkAbortedPrepared(s.Local)
	case process.StepInvoke:
		return in.MarkCommitted(s.Local)
	default:
		return fmt.Errorf("process %s: unknown step kind %v", in.p.ID, s.Kind)
	}
}

func (in *refInstance) PotentialRecoveryServices() map[string]bool {
	out := make(map[string]bool)
	var anchors []int
	for _, id := range in.ids {
		if in.status[id] == process.Committed && in.p.Activity(id).Kind.NonCompensatable() {
			anchors = append(anchors, id)
		}
	}
	for _, id := range in.ids {
		a := in.p.Activity(id)
		switch in.status[id] {
		case process.Pending, process.Abandoned, process.Prepared, process.AbortedPrepared:
			out[a.Service] = true
		case process.Committed:
			if a.Kind != activity.Compensatable {
				continue
			}
			locked := false
			for _, anc := range anchors {
				if in.p.Before(id, anc) {
					locked = true
					break
				}
			}
			if !locked {
				out[a.Compensation] = true
			}
		}
	}
	return out
}

func (in *refInstance) Clone() *refInstance {
	cp := *in
	cp.status = make(map[int]process.Status, len(in.status))
	for k, v := range in.status {
		cp.status[k] = v
	}
	cp.altIdx = make(map[[2]int]int, len(in.altIdx))
	for k, v := range in.altIdx {
		cp.altIdx[k] = v
	}
	cp.commitRank = make(map[int]int, len(in.commitRank))
	for k, v := range in.commitRank {
		cp.commitRank[k] = v
	}
	cp.pendingComp = make(map[int]bool, len(in.pendingComp))
	for k, v := range in.pendingComp {
		cp.pendingComp[k] = v
	}
	if in.pendingAdv != nil {
		k := *in.pendingAdv
		cp.pendingAdv = &k
	}
	return &cp
}
