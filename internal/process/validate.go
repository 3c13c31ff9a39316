package process

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"transproc/internal/activity"
)

// ExecEvent is one event of a single-process execution trace, used by the
// enumeration of valid executions (Figure 3 of the paper).
type ExecEvent struct {
	Local   int
	Service string
	// Kind of the event: "commit", "fail", "compensate".
	What string
}

// String renders the event in the paper's notation.
func (e ExecEvent) String() string {
	switch e.What {
	case "commit":
		return fmt.Sprintf("a%d", e.Local)
	case "fail":
		return fmt.Sprintf("a%d✗", e.Local)
	case "compensate":
		return fmt.Sprintf("a%d⁻¹", e.Local)
	default:
		return fmt.Sprintf("a%d?%s", e.Local, e.What)
	}
}

// Execution is one terminal execution of a process: its event trace and
// whether it ended with the process performing effective work (at least
// one activity remains committed) or as an effect-free backward recovery.
type Execution struct {
	Events    []ExecEvent
	Completed bool // finished a full execution path (C_i after forward work)
	Effective bool // at least one activity remains committed
}

// String renders the execution as ⟨e1 e2 …⟩.
func (e Execution) String() string {
	parts := make([]string, len(e.Events))
	for i, ev := range e.Events {
		parts[i] = ev.String()
	}
	suffix := "A"
	if e.Completed {
		suffix = "C"
	}
	return "⟨" + strings.Join(parts, " ") + "⟩" + suffix
}

// Key returns a canonical identity for deduplication.
func (e Execution) Key() string { return e.String() }

// Executions enumerates all terminal executions of the process under
// every failure scenario: each compensatable or pivot activity either
// commits or fails permanently on its invocation; retriable activities
// always (eventually) commit. Activities are dispatched in canonical
// (smallest-local-id-first) order. The result is sorted and
// deduplicated. It returns an error if any scenario violates guaranteed
// termination.
func Executions(p *Process) ([]Execution, error) {
	var out []Execution
	seen := make(map[string]bool)
	var explore func(in *Instance, trace []ExecEvent) error
	explore = func(in *Instance, trace []ExecEvent) error {
		if in.Terminated() || (in.Done() && !in.Aborting()) {
			effective := false
			for local, st := range in.Snapshot() {
				_ = local
				if st == Committed {
					effective = true
					break
				}
			}
			ex := Execution{
				Events:    append([]ExecEvent(nil), trace...),
				Completed: !in.Aborting(),
				Effective: effective,
			}
			if !seen[ex.Key()] {
				seen[ex.Key()] = true
				out = append(out, ex)
			}
			return nil
		}
		frontier := in.Frontier()
		if len(frontier) == 0 {
			return fmt.Errorf("process %s: stuck state with no frontier and not done", p.ID)
		}
		next := frontier[0]
		a := p.Activity(next)

		// Branch 1: the invocation commits.
		{
			c := in.Clone()
			if err := c.MarkCommitted(next); err != nil {
				return err
			}
			t := append(append([]ExecEvent(nil), trace...), ExecEvent{next, a.Service, "commit"})
			if err := explore(c, t); err != nil {
				return err
			}
		}
		// Branch 2: the invocation fails permanently (not possible for
		// retriable activities, Definition 3).
		if !a.Kind.GuaranteedToCommit() {
			c := in.Clone()
			plan, err := c.MarkFailed(next)
			if err != nil {
				return err
			}
			t := append(append([]ExecEvent(nil), trace...), ExecEvent{next, a.Service, "fail"})
			for _, s := range plan.Steps {
				switch s.Kind {
				case StepCompensate:
					if err := c.ApplyStep(s); err != nil {
						return err
					}
					t = append(t, ExecEvent{s.Local, s.Service, "compensate"})
				case StepAbortPrepared:
					if err := c.ApplyStep(s); err != nil {
						return err
					}
				}
			}
			if plan.Abort {
				c.MarkTerminated(false)
			}
			if err := explore(c, t); err != nil {
				return err
			}
		}
		return nil
	}
	if err := explore(NewInstance(p), nil); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// ValidateGuaranteedTermination verifies the guaranteed termination
// property (the generalization of all-or-nothing atomicity, Section 3.1)
// by exhaustive exploration of failure scenarios:
//
//  1. Every failure scenario terminates: either a complete execution
//     path is effected, or backward recovery leaves the process
//     effect-free.
//  2. In every reachable state the completion C(P) is computable: an
//     abort (or a crash followed by the group abort) can always be
//     resolved by pure compensation (B-REC) or by local backward
//     recovery plus a retriable forward path (F-REC).
//  3. Backward recovery never needs to compensate a non-compensatable
//     activity.
//
// The property belongs to the process's structure, which ShapeKey
// encodes exactly: processes with equal keys get the same verdict. So
// each shape is proven once per OS process: a key found in the package's
// set of proven shapes answers at once, without allocating, and only an
// exploration that succeeds adds its key, so a failing process is
// explored on its own and reports its own names. The set is shared by
// every caller, safe for concurrent use, and empties when it reaches
// provenCap keys.
//
// The exploration is exponential in the number of non-retriable
// activities and intended for process definitions of realistic size
// (tens of activities).
func ValidateGuaranteedTermination(p *Process) error {
	var buf [256]byte
	key := p.AppendShapeKey(buf[:0])
	proven.Lock()
	_, ok := proven.keys[string(key)]
	proven.Unlock()
	if ok {
		return nil
	}
	if err := exploreTermination(p); err != nil {
		return err
	}
	recordProven(key)
	return nil
}

// provenCap bounds the set of proven shapes. It is far above the 16
// shapes a generated workload draws, and a set that reaches it empties
// rather than grows, so a stream of distinct shapes holds at most
// provenCap keys of a few dozen bytes each.
const provenCap = 1024

// proven is the set of ShapeKeys whose guaranteed termination
// exploreTermination proved.
var proven = struct {
	sync.Mutex
	keys map[string]struct{}
}{keys: make(map[string]struct{})}

// recordProven adds a proven key, emptying the set first when it is full.
func recordProven(key []byte) {
	proven.Lock()
	if len(proven.keys) >= provenCap {
		clear(proven.keys)
	}
	proven.keys[string(key)] = struct{}{}
	proven.Unlock()
}

// ResetProvenShapes empties the set of proven shapes, so that the next
// validation of every shape explores it again: for tests and benchmarks
// of the first proof.
func ResetProvenShapes() {
	proven.Lock()
	clear(proven.keys)
	proven.Unlock()
}

// exploreTermination is ValidateGuaranteedTermination's exploration,
// depth first with the commit of each invocation before its failure. At
// a state that branches it explores the commit on a clone and then
// continues the failure on the instance it was given, which nothing
// reads afterwards; a retriable activity commits in place. One frontier
// buffer serves the whole exploration.
func exploreTermination(p *Process) error {
	var frontier []int
	var explore func(in *Instance) error
	explore = func(in *Instance) error {
		for {
			if _, err := in.Completion(); err != nil {
				return fmt.Errorf("completion not computable: %w", err)
			}
			if in.Terminated() || (in.Done() && !in.Aborting()) {
				return nil
			}
			if frontier = in.AppendFrontier(frontier[:0]); len(frontier) == 0 {
				return fmt.Errorf("process %s: stuck non-terminal state", p.ID)
			}
			next := frontier[0]
			if p.Activity(next).Kind.GuaranteedToCommit() {
				if err := in.MarkCommitted(next); err != nil {
					return err
				}
				continue
			}
			c := in.Clone()
			if err := c.MarkCommitted(next); err != nil {
				return err
			}
			if err := explore(c); err != nil {
				return err
			}
			plan, err := in.MarkFailed(next)
			if err != nil {
				return err
			}
			for _, s := range plan.Steps {
				if err := in.ApplyStep(s); err != nil {
					return err
				}
			}
			if plan.Abort {
				// Backward recovery must leave no committed activities.
				for i := range in.acts {
					if in.acts[i].status == Committed {
						return fmt.Errorf("process %s: backward recovery left activity %d committed", p.ID, p.order[i])
					}
				}
				in.MarkTerminated(false)
			}
		}
	}
	return explore(NewInstance(p))
}

// IsWellFormedFlex structurally checks the recursive well-formed flex
// structure of [ZNBB94] on processes whose precedence order is a chain
// with alternative branches: a (possibly empty) prefix of compensatable
// activities, then a pivot, then either retriable activities only, or a
// nested well-formed structure provided an alternative consisting only
// of retriable activities exists for it. Processes consisting only of
// compensatable and retriable activities in c*·r* shape are accepted as
// the degenerate case. For structures beyond this grammar (parallel
// branches), use ValidateGuaranteedTermination.
func IsWellFormedFlex(p *Process) (bool, string) {
	// Reject non-chain precedence: a node with more than one chain or a
	// chain head with external joins.
	for i, id := range p.order {
		if len(p.chains[i]) > 1 {
			return false, fmt.Sprintf("activity %d has parallel successors; grammar check applies to chains only", id)
		}
		if len(p.preds[i]) > 1 {
			return false, fmt.Sprintf("activity %d has multiple predecessors; grammar check applies to chains only", id)
		}
	}
	if len(p.roots) != 1 {
		return false, "grammar check requires a single root"
	}
	ok, why := p.wellFormedFrom(p.roots[0], false)
	return ok, why
}

// wellFormedFrom checks the grammar starting at position n. afterPivot
// marks that a pivot committed earlier on this path.
func (p *Process) wellFormedFrom(n int, afterPivot bool) (bool, string) {
	for {
		switch p.acts[n].Kind {
		case activity.Compensatable:
			// fine in any position before the next pivot
		case activity.Retriable:
			// Once retriable activities start, only retriables may follow
			// on this branch (basic structure ...p r*). We simply require
			// the rest of the branch to be retriable.
			return p.allRetriableFrom(n)
		case activity.Pivot:
			// The pivot may be followed by retriables only, or by a
			// nested well-formed structure that has an all-retriable
			// lowest-priority alternative.
			chains := p.chains[n]
			if len(chains) == 0 {
				return true, "" // pivot terminates the process
			}
			chain := chains[0]
			if len(chain) == 1 {
				// Single continuation: must be all retriable.
				if ok, _ := p.allRetriableFrom(chain[0]); ok {
					return true, ""
				}
				return false, fmt.Sprintf("pivot %d is followed by a non-retriable continuation without an alternative", p.order[n])
			}
			// Alternatives exist: the last must be all-retriable, the
			// earlier ones nested well-formed structures.
			last := chain[len(chain)-1]
			if ok, why := p.allRetriableFrom(last); !ok {
				return false, fmt.Sprintf("lowest-priority alternative after pivot %d is not all-retriable: %s", p.order[n], why)
			}
			for _, alt := range chain[:len(chain)-1] {
				if ok, why := p.wellFormedFrom(alt, true); !ok {
					return false, why
				}
			}
			return true, ""
		case activity.Compensation:
			return false, fmt.Sprintf("activity %d is a compensation", p.order[n])
		}
		chains := p.chains[n]
		if len(chains) == 0 {
			// Path of compensatables only: effect-free abort is always
			// possible; accept.
			return true, ""
		}
		chain := chains[0]
		if len(chain) > 1 {
			// A choice point on a compensatable prefix: every alternative
			// must itself be well formed; the last one needs to be
			// all-retriable only if a pivot precedes it.
			last := chain[len(chain)-1]
			if afterPivot {
				if ok, why := p.allRetriableFrom(last); !ok {
					return false, fmt.Sprintf("lowest-priority alternative after %d must be all-retriable: %s", p.order[n], why)
				}
				for _, alt := range chain[:len(chain)-1] {
					if ok, why := p.wellFormedFrom(alt, true); !ok {
						return false, why
					}
				}
				return true, ""
			}
			for _, alt := range chain {
				if ok, why := p.wellFormedFrom(alt, afterPivot); !ok {
					return false, why
				}
			}
			return true, ""
		}
		n = chain[0]
	}
}

// allRetriableFrom checks that position n and everything reachable from
// it is retriable.
func (p *Process) allRetriableFrom(n int) (bool, string) {
	for _, m := range p.appendSubtree(nil, n) {
		if k := p.acts[m].Kind; k != activity.Retriable {
			return false, fmt.Sprintf("activity %d is %v", p.order[m], k)
		}
	}
	return true, ""
}
