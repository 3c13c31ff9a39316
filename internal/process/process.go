// Package process implements the transactional process model of
// Definition 5 of the paper: a process P is a triple (A, ≪, ◁) where A is
// a set of activities, ≪ is a partial (precedence) order over A, and ◁ is
// a preference order over ≪ establishing alternative execution paths.
//
// Processes with well-formed flex structure have the guaranteed
// termination property (Section 3.1): at least one of the valid
// executions specified by the alternatives is effected, or the process
// aborts leaving no effects. The package provides the structure itself,
// validation of guaranteed termination (both structurally and by
// exhaustive failure exploration), the B-REC/F-REC process states, and
// the completion C(P) used to build completed process schedules.
package process

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"transproc/internal/activity"
)

// ID identifies a process, e.g. "P1". An aborted process re-enters as a
// restart incarnation under a derived id, origin(+rN)*: "P1+r2" is the
// second restart of P1, "P1+r2+r1" the first restart an engine gave the
// job it was handed as "P1+r2". A '+' never occurs in an origin.
type ID string

// Restart returns the id of the n-th restart incarnation of id.
func (id ID) Restart(n int) ID { return id + ID("+r"+strconv.Itoa(n)) }

// Origin strips every restart suffix ("P1+r2+r1" -> "P1"): the identity
// under which subsystems track the process's locks and deterministic
// failure rules, and under which a host folds its incarnations' fates.
func (id ID) Origin() ID {
	origin, _, _ := strings.Cut(string(id), "+")
	return ID(origin)
}

// Lineage is the number of the first restart suffix ("P1+r2+r1" -> 2,
// zero for an origin). Whoever restarts an origin numbers past the
// highest lineage it has seen; the restarts an engine nests below a job
// it was handed stay in that job's lineage.
func (id ID) Lineage() int {
	rest, _ := strings.CutPrefix(string(id[len(id.Origin()):]), "+r")
	rest, _, _ = strings.Cut(rest, "+")
	n, _ := strconv.Atoi(rest) // not a number: not a restart suffix
	return n
}

// Activity is one activity a_{i_k} of a process: an invocation of a
// service with a given termination guarantee. Local ids follow the
// paper's subscript notation and are unique within the process.
type Activity struct {
	Local   int
	Service string
	Kind    activity.Kind
	// Compensation names the compensating service for compensatable
	// activities. Defaults to Service + "⁻¹" when built via Builder.
	Compensation string
}

// String renders the activity in the paper's a_{i_k}^kind notation.
func (a *Activity) String() string {
	return fmt.Sprintf("a_%d^%s(%s)", a.Local, a.Kind, a.Service)
}

// Process is an immutable process definition P_i = (A, ≪, ◁). Build one
// with a Builder. The precedence order is a DAG over activities; the
// preference order is represented as "chains": for a node h, each chain
// is a ◁-totally-ordered list of alternative successors (the first is
// preferred; later entries are executed only after the earlier
// alternative failed and was compensated). A node may have several
// chains; the heads of all chains are activated in parallel (AND-split).
type Process struct {
	ID ID
	// acts holds the activities by position: acts[i] is the activity
	// with local id order[i]. pos is the lookup from local id to
	// position; an Instance keeps its per-activity state in slices
	// indexed the same way.
	acts  []Activity
	pos   map[int]int
	order []int // local ids in deterministic (sorted) order

	chains map[int][][]int // node -> list of alternative chains
	preds  map[int][]int   // direct precedence predecessors
	succs  map[int][]int   // direct precedence successors (all alternatives)
	roots  []int           // nodes with no predecessor

	// reach[a] is the set of nodes reachable from a via succs (excluding
	// a itself); precomputed for alternative-subtree bookkeeping.
	reach map[int]map[int]bool
}

// Activities returns the activities in ascending local-id order.
func (p *Process) Activities() []*Activity {
	out := make([]*Activity, len(p.acts))
	for i := range p.acts {
		out[i] = &p.acts[i]
	}
	return out
}

// Activity returns the activity with the given local id, or nil.
func (p *Process) Activity(local int) *Activity {
	if i, ok := p.pos[local]; ok {
		return &p.acts[i]
	}
	return nil
}

// Len returns the number of activities.
func (p *Process) Len() int { return len(p.order) }

// Roots returns the local ids of activities without predecessors.
func (p *Process) Roots() []int { return append([]int(nil), p.roots...) }

// Chains returns the alternative chains leaving node h. The first entry
// of each chain is the preferred successor.
func (p *Process) Chains(h int) [][]int {
	out := make([][]int, len(p.chains[h]))
	for i, c := range p.chains[h] {
		out[i] = append([]int(nil), c...)
	}
	return out
}

// Preds returns the direct precedence predecessors of a node.
func (p *Process) Preds(local int) []int { return append([]int(nil), p.preds[local]...) }

// Succs returns all direct precedence successors of a node, across all
// chains and chain positions.
func (p *Process) Succs(local int) []int { return append([]int(nil), p.succs[local]...) }

// Before reports whether a ≪ b in the precedence order (strictly).
func (p *Process) Before(a, b int) bool {
	return p.reach[a][b]
}

// Subtree returns a plus every node reachable from a, in ascending order.
func (p *Process) Subtree(a int) []int {
	out := []int{a}
	for n := range p.reach[a] {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// StateDetermining returns the local id of the state-determining activity
// s_{i_0}: the first non-compensatable activity of the process in the
// precedence order (i.e., a non-compensatable activity all of whose
// proper ≪-predecessors are compensatable). For processes consisting
// only of compensatable activities it returns 0 and false.
func (p *Process) StateDetermining() (int, bool) {
	candidates := make([]int, 0, 2)
	for i, id := range p.order {
		if p.acts[i].Kind == activity.Compensatable {
			continue
		}
		first := true
		for j, other := range p.order {
			if other != id && p.Before(other, id) && p.acts[j].Kind != activity.Compensatable {
				first = false
				break
			}
		}
		if first {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	sort.Ints(candidates)
	return candidates[0], true
}

// Subsystems returns the distinct service names used by the process,
// sorted; useful for conservative locking baselines.
func (p *Process) Services() []string {
	set := make(map[string]bool)
	for i := range p.acts {
		set[p.acts[i].Service] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// String renders the process compactly.
func (p *Process) String() string {
	s := fmt.Sprintf("%s{", p.ID)
	for i := range p.acts {
		if i > 0 {
			s += " "
		}
		s += p.acts[i].String()
	}
	return s + "}"
}

// ShapeKey is a canonical encoding of exactly what the guaranteed-
// termination explorer reads of the process: the local ids in ascending
// order with their kinds, and each node's alternative chains in
// declaration order. It leaves out the process id, the service names and
// the compensation names, so processes with equal keys get the same
// verdict from ValidateGuaranteedTermination; only the names in an error
// text differ.
func (p *Process) ShapeKey() string {
	b := make([]byte, 0, 4*len(p.order))
	b = binary.AppendUvarint(b, uint64(len(p.order)))
	for i, id := range p.order {
		b = binary.AppendUvarint(b, uint64(id))
		b = append(b, byte(p.acts[i].Kind))
	}
	for _, id := range p.order {
		b = binary.AppendUvarint(b, uint64(len(p.chains[id])))
		for _, chain := range p.chains[id] {
			b = binary.AppendUvarint(b, uint64(len(chain)))
			for _, t := range chain {
				b = binary.AppendUvarint(b, uint64(t))
			}
		}
	}
	return string(b)
}

// DefaultCompensationName derives the compensating service name used when
// none is given explicitly: the paper's a⁻¹ notation.
func DefaultCompensationName(service string) string { return service + "⁻¹" }

// WithID returns a view of the process under a different id. The
// structural data is shared (Process is immutable after Build), so the
// operation is cheap; it exists for process restarts, which re-enter a
// schedule as a fresh process.
func (p *Process) WithID(id ID) *Process {
	cp := *p
	cp.ID = id
	return &cp
}

// Builder assembles a Process. The zero value is not usable; use New.
type Builder struct {
	id     ID
	acts   map[int]*Activity
	chains map[int][][]int
	errs   []error
}

// NewBuilder returns a builder for process id.
func NewBuilder(id ID) *Builder {
	return &Builder{
		id:     id,
		acts:   make(map[int]*Activity),
		chains: make(map[int][][]int),
	}
}

// Add declares activity with the given local id, service and kind. For
// compensatable activities the compensating service defaults to
// DefaultCompensationName(service).
func (b *Builder) Add(local int, service string, kind activity.Kind) *Builder {
	return b.AddComp(local, service, kind, "")
}

// AddComp is Add with an explicit compensating service name.
func (b *Builder) AddComp(local int, service string, kind activity.Kind, compensation string) *Builder {
	switch {
	case local <= 0:
		b.errs = append(b.errs, fmt.Errorf("process %s: local id %d must be positive", b.id, local))
	case b.acts[local] != nil:
		b.errs = append(b.errs, fmt.Errorf("process %s: duplicate local id %d", b.id, local))
	case service == "":
		b.errs = append(b.errs, fmt.Errorf("process %s: activity %d has empty service", b.id, local))
	case kind == activity.Compensation:
		b.errs = append(b.errs, fmt.Errorf("process %s: activity %d: compensations cannot be declared directly", b.id, local))
	case !kind.Valid():
		b.errs = append(b.errs, fmt.Errorf("process %s: activity %d has invalid kind", b.id, local))
	default:
		if kind == activity.Compensatable && compensation == "" {
			compensation = DefaultCompensationName(service)
		}
		if kind != activity.Compensatable && compensation != "" {
			b.errs = append(b.errs, fmt.Errorf("process %s: activity %d (%v) cannot have a compensation", b.id, local, kind))
			return b
		}
		b.acts[local] = &Activity{Local: local, Service: service, Kind: kind, Compensation: compensation}
	}
	return b
}

// Seq declares the precedence a ≪ b with no alternatives: a single-entry
// chain from a containing b. Multiple Seq calls from the same node create
// parallel (AND) successors.
func (b *Builder) Seq(a, c int) *Builder { return b.Chain(a, c) }

// Chain declares a ◁-ordered alternative chain from node h: alt[0] is the
// preferred successor, alt[1] is executed only if the execution path via
// alt[0] failed (and its committed activities were compensated), and so
// on. A node may own several chains; their heads run in parallel.
func (b *Builder) Chain(h int, alts ...int) *Builder {
	if len(alts) == 0 {
		b.errs = append(b.errs, fmt.Errorf("process %s: empty chain from %d", b.id, h))
		return b
	}
	b.chains[h] = append(b.chains[h], append([]int(nil), alts...))
	return b
}

// Build validates the structure and returns the immutable process.
func (b *Builder) Build() (*Process, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.acts) == 0 {
		return nil, fmt.Errorf("process %s: no activities", b.id)
	}
	p := &Process{
		ID:     b.id,
		acts:   make([]Activity, 0, len(b.acts)),
		pos:    make(map[int]int, len(b.acts)),
		order:  make([]int, 0, len(b.acts)),
		chains: make(map[int][][]int, len(b.chains)),
		preds:  make(map[int][]int),
		succs:  make(map[int][]int),
		reach:  make(map[int]map[int]bool),
	}
	for id := range b.acts {
		p.order = append(p.order, id)
	}
	sort.Ints(p.order)
	for i, id := range p.order {
		p.acts = append(p.acts, *b.acts[id])
		p.pos[id] = i
	}

	seenEdge := make(map[[2]int]bool)
	for h, chains := range b.chains {
		if p.Activity(h) == nil {
			return nil, fmt.Errorf("process %s: chain from undeclared activity %d", b.id, h)
		}
		for _, chain := range chains {
			for _, t := range chain {
				if p.Activity(t) == nil {
					return nil, fmt.Errorf("process %s: chain from %d references undeclared activity %d", b.id, h, t)
				}
				if t == h {
					return nil, fmt.Errorf("process %s: self edge on %d", b.id, h)
				}
				e := [2]int{h, t}
				if seenEdge[e] {
					return nil, fmt.Errorf("process %s: duplicate edge %d->%d", b.id, h, t)
				}
				seenEdge[e] = true
				p.succs[h] = append(p.succs[h], t)
				p.preds[t] = append(p.preds[t], h)
			}
			p.chains[h] = append(p.chains[h], append([]int(nil), chain...))
		}
	}
	for _, id := range p.order {
		sort.Ints(p.succs[id])
		sort.Ints(p.preds[id])
		if len(p.preds[id]) == 0 {
			p.roots = append(p.roots, id)
		}
	}
	if err := p.computeReach(); err != nil {
		return nil, err
	}
	if err := p.validateAlternatives(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error, for fixtures.
func (b *Builder) MustBuild() *Process {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// computeReach computes transitive reachability and rejects cycles: both
// ≪ and ◁ are irreflexive, transitive and acyclic (Section 3.1).
func (p *Process) computeReach() error {
	// Kahn topological sort to detect cycles.
	indeg := make(map[int]int, len(p.order))
	for _, id := range p.order {
		indeg[id] = len(p.preds[id])
	}
	queue := append([]int(nil), p.roots...)
	var topo []int
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		topo = append(topo, n)
		for _, s := range p.succs[n] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(topo) != len(p.order) {
		return fmt.Errorf("process %s: precedence order ≪ contains a cycle", p.ID)
	}
	for _, id := range p.order {
		p.reach[id] = make(map[int]bool)
	}
	// Propagate reachability in reverse topological order.
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		for _, s := range p.succs[n] {
			p.reach[n][s] = true
			for r := range p.reach[s] {
				p.reach[n][r] = true
			}
		}
	}
	return nil
}

// validateAlternatives checks that alternative branches are well-scoped:
// every node inside the subtree of a non-preferred position of a chain is
// reachable only via nodes of that subtree (so the branch can be
// abandoned or compensated as a unit), and that a node does not appear in
// two positions of the same chain.
func (p *Process) validateAlternatives() error {
	for h, chains := range p.chains {
		for _, chain := range chains {
			seen := make(map[int]bool, len(chain))
			for _, t := range chain {
				if seen[t] {
					return fmt.Errorf("process %s: node %d appears twice in a chain from %d", p.ID, t, h)
				}
				seen[t] = true
			}
			if len(chain) == 1 {
				continue
			}
			for _, t := range chain {
				sub := make(map[int]bool)
				for _, n := range p.Subtree(t) {
					sub[n] = true
				}
				for n := range sub {
					if n == t {
						// The branch head is entered from h itself.
						for _, pr := range p.preds[n] {
							if pr != h && !sub[pr] {
								return fmt.Errorf("process %s: alternative branch head %d has external predecessor %d", p.ID, n, pr)
							}
						}
						continue
					}
					for _, pr := range p.preds[n] {
						if !sub[pr] {
							return fmt.Errorf("process %s: node %d inside alternative branch %d has external predecessor %d", p.ID, n, t, pr)
						}
					}
				}
			}
		}
	}
	return nil
}
