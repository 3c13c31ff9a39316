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
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
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
//
// A definition holds no map. Position i is the activity with local id
// order[i]; order ascends, so a local id's position is a binary search.
// Every per-activity field is a slice indexed by position, edges and
// chains name positions, and ≪'s transitive closure is one flat bitset.
// An Instance keeps its per-activity state in slices indexed the same
// way. The exported accessors take and return local ids, and what they
// return is a copy.
type Process struct {
	ID    ID
	order []int      // local ids, ascending
	acts  []Activity // acts[i] is the activity with local id order[i]

	chains [][][]int // chains[i]: the chains leaving i, in declaration order
	preds  [][]int   // preds[i]: the direct ≪-predecessors of i, ascending
	succs  [][]int   // succs[i]: the direct ≪-successors of i over every chain, ascending
	roots  []int     // the positions without a predecessor, ascending

	// reach is ≪'s closure, w words a row: bit j of row i is set when
	// order[i] ≪ order[j].
	reach []uint64
	w     int
}

// index returns the position of a local id.
func (p *Process) index(local int) (int, bool) { return slices.BinarySearch(p.order, local) }

// before reports whether order[i] ≪ order[j].
func (p *Process) before(i, j int) bool { return p.reach[i*p.w+j/64]&(1<<(j%64)) != 0 }

// appendSubtree appends i and every position ≪-reachable from it to
// dst, in ascending order.
func (p *Process) appendSubtree(dst []int, i int) []int {
	for k, word := range p.reach[i*p.w : (i+1)*p.w] {
		if k == i/64 {
			word |= 1 << (i % 64) // a row never holds its own bit
		}
		for ; word != 0; word &= word - 1 {
			dst = append(dst, k*64+bits.TrailingZeros64(word))
		}
	}
	return dst
}

// locals returns the local ids of positions, in a fresh slice (nil for
// none).
func (p *Process) locals(pos []int) []int {
	if len(pos) == 0 {
		return nil
	}
	out := make([]int, len(pos))
	for k, i := range pos {
		out[k] = p.order[i]
	}
	return out
}

// Activities returns the activities in ascending local-id order.
func (p *Process) Activities() []*Activity {
	out := make([]*Activity, len(p.acts))
	for i := range p.acts {
		out[i] = &p.acts[i]
	}
	return out
}

// Pos returns the position of a local id: its index in ascending
// local-id order, which ActivityAt and Activities share.
func (p *Process) Pos(local int) (int, bool) { return p.index(local) }

// ActivityAt returns the activity at a position.
func (p *Process) ActivityAt(pos int) *Activity { return &p.acts[pos] }

// Activity returns the activity with the given local id, or nil.
func (p *Process) Activity(local int) *Activity {
	if i, ok := p.index(local); ok {
		return &p.acts[i]
	}
	return nil
}

// Len returns the number of activities.
func (p *Process) Len() int { return len(p.order) }

// Roots returns the local ids of activities without predecessors.
func (p *Process) Roots() []int { return p.locals(p.roots) }

// Chains returns the alternative chains leaving node h. The first entry
// of each chain is the preferred successor.
func (p *Process) Chains(h int) [][]int {
	i, ok := p.index(h)
	if !ok {
		return [][]int{}
	}
	out := make([][]int, len(p.chains[i]))
	for k, c := range p.chains[i] {
		out[k] = p.locals(c)
	}
	return out
}

// Preds returns the direct precedence predecessors of a node.
func (p *Process) Preds(local int) []int {
	if i, ok := p.index(local); ok {
		return p.locals(p.preds[i])
	}
	return nil
}

// Succs returns all direct precedence successors of a node, across all
// chains and chain positions.
func (p *Process) Succs(local int) []int {
	if i, ok := p.index(local); ok {
		return p.locals(p.succs[i])
	}
	return nil
}

// Before reports whether a ≪ b in the precedence order (strictly).
func (p *Process) Before(a, b int) bool {
	i, okA := p.index(a)
	j, okB := p.index(b)
	return okA && okB && p.before(i, j)
}

// Subtree returns a plus every node reachable from a, in ascending order.
func (p *Process) Subtree(a int) []int {
	i, ok := p.index(a)
	if !ok {
		return []int{a}
	}
	out := p.appendSubtree(nil, i)
	for k, j := range out {
		out[k] = p.order[j]
	}
	return out
}

// StateDetermining returns the local id of the state-determining activity
// s_{i_0}: the first non-compensatable activity of the process in the
// precedence order (i.e., a non-compensatable activity all of whose
// proper ≪-predecessors are compensatable). For processes consisting
// only of compensatable activities it returns 0 and false. Of several
// candidates it returns the smallest local id.
func (p *Process) StateDetermining() (int, bool) {
	for i := range p.acts {
		if p.acts[i].Kind == activity.Compensatable {
			continue
		}
		first := true
		for j := range p.acts {
			if p.before(j, i) && p.acts[j].Kind != activity.Compensatable {
				first = false
				break
			}
		}
		if first {
			return p.order[i], true
		}
	}
	return 0, false
}

// Services returns the distinct service names used by the process,
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
// text differ. That validation's set of proven shapes rests on this: a
// change to what the explorer reads must change the key.
func (p *Process) ShapeKey() string {
	return string(p.AppendShapeKey(make([]byte, 0, 4*len(p.order))))
}

// AppendShapeKey appends ShapeKey's encoding to b.
func (p *Process) AppendShapeKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.order)))
	for i, id := range p.order {
		b = binary.AppendUvarint(b, uint64(id))
		b = append(b, byte(p.acts[i].Kind))
	}
	for _, chains := range p.chains {
		b = binary.AppendUvarint(b, uint64(len(chains)))
		for _, chain := range chains {
			b = binary.AppendUvarint(b, uint64(len(chain)))
			for _, t := range chain {
				b = binary.AppendUvarint(b, uint64(p.order[t]))
			}
		}
	}
	return b
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
	acts   []Activity  // ascending local id
	chains []chainDecl // in declaration order
	alts   []int       // the declared chains' entries, back to back
	errs   []error
}

// chainDecl is one declared chain: alts[lo:hi] leave h.
type chainDecl struct{ h, lo, hi int }

// NewBuilder returns a builder for process id.
func NewBuilder(id ID) *Builder { return &Builder{id: id} }

// Add declares activity with the given local id, service and kind. For
// compensatable activities the compensating service defaults to
// DefaultCompensationName(service).
func (b *Builder) Add(local int, service string, kind activity.Kind) *Builder {
	return b.AddComp(local, service, kind, "")
}

// AddComp is Add with an explicit compensating service name.
func (b *Builder) AddComp(local int, service string, kind activity.Kind, compensation string) *Builder {
	i, dup := slices.BinarySearchFunc(b.acts, local, func(a Activity, local int) int { return cmp.Compare(a.Local, local) })
	switch {
	case local <= 0:
		b.errs = append(b.errs, fmt.Errorf("process %s: local id %d must be positive", b.id, local))
	case dup:
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
		b.acts = slices.Insert(b.acts, i, Activity{Local: local, Service: service, Kind: kind, Compensation: compensation})
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
	b.chains = append(b.chains, chainDecl{h: h, lo: len(b.alts), hi: len(b.alts) + len(alts)})
	b.alts = append(b.alts, alts...)
	return b
}

// Build validates the structure and returns the immutable process. A
// definition with several defects reports the same one every time: the
// first declaration error, else the first edge error in ascending local
// id of the chains' sources, else a cycle, else the first alternative
// branch, in the same order, that is entered from outside.
func (b *Builder) Build() (*Process, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	n := len(b.acts)
	if n == 0 {
		return nil, fmt.Errorf("process %s: no activities", b.id)
	}
	w := (n + 63) / 64
	p := &Process{ID: b.id, order: make([]int, n), acts: slices.Clone(b.acts), reach: make([]uint64, n*w), w: w}
	for i := range p.acts {
		p.order[i] = p.acts[i].Local
	}
	if err := p.addEdges(b); err != nil {
		return nil, err
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

// addEdges checks the declared chains, their sources in ascending local
// id and one source's chains in declaration order, and fills chains,
// succs, preds and roots, and the direct edges' bits of reach.
func (p *Process) addEdges(b *Builder) error {
	n := len(p.order)
	slices.SortStableFunc(b.chains, func(x, y chainDecl) int { return cmp.Compare(x.h, y.h) })
	alts := make([]int, len(b.alts)) // b.alts as positions
	chains := make([][]int, len(b.chains))
	deg := make([]int, 2*n) // out-degrees, then in-degrees
	p.chains = make([][][]int, n)
	first := 0 // the first of h's chains
	for k, c := range b.chains {
		h, ok := p.index(c.h)
		if !ok {
			return fmt.Errorf("process %s: chain from undeclared activity %d", p.ID, c.h)
		}
		for e := c.lo; e < c.hi; e++ {
			t, ok := p.index(b.alts[e])
			switch {
			case !ok:
				return fmt.Errorf("process %s: chain from %d references undeclared activity %d", p.ID, c.h, b.alts[e])
			case t == h:
				return fmt.Errorf("process %s: self edge on %d", p.ID, c.h)
			case p.before(h, t):
				return fmt.Errorf("process %s: duplicate edge %d->%d", p.ID, c.h, b.alts[e])
			}
			p.reach[h*p.w+t/64] |= 1 << (t % 64)
			alts[e] = t
			deg[h]++
			deg[n+t]++
		}
		chains[k] = alts[c.lo:c.hi]
		if k+1 == len(b.chains) || b.chains[k+1].h != c.h {
			p.chains[h] = chains[first : k+1]
			first = k + 1
		}
	}
	// Each list gets its exact share of one array; filling them by
	// source in ascending order leaves every preds list ascending.
	lists, edges := make([][]int, 2*n), make([]int, 2*len(alts))
	p.succs, p.preds = lists[:n], lists[n:]
	for i := range lists {
		lists[i], edges = edges[:0:deg[i]], edges[deg[i]:]
	}
	for h, chains := range p.chains {
		for _, chain := range chains {
			for _, t := range chain {
				p.succs[h] = append(p.succs[h], t)
				p.preds[t] = append(p.preds[t], h)
			}
		}
		slices.Sort(p.succs[h])
	}
	for i, preds := range p.preds {
		if len(preds) == 0 {
			p.roots = append(p.roots, i)
		}
	}
	return nil
}

// computeReach rejects cycles — ≪ and ◁ are irreflexive, transitive and
// acyclic (Section 3.1) — and closes reach under transitivity: Kahn's
// sort orders the positions, and in reverse of that order each row ORs
// in the rows of its direct successors.
func (p *Process) computeReach() error {
	n := len(p.order)
	indeg := make([]int, 2*n)
	topo := indeg[n:n]
	for i, preds := range p.preds {
		indeg[i] = len(preds)
	}
	topo = append(topo, p.roots...)
	for k := 0; k < len(topo); k++ {
		for _, s := range p.succs[topo[k]] {
			if indeg[s]--; indeg[s] == 0 {
				topo = append(topo, s)
			}
		}
	}
	if len(topo) != n {
		return fmt.Errorf("process %s: precedence order ≪ contains a cycle", p.ID)
	}
	for k := n - 1; k >= 0; k-- {
		i := topo[k]
		row := p.reach[i*p.w : (i+1)*p.w]
		for _, s := range p.succs[i] {
			for x, word := range p.reach[s*p.w : (s+1)*p.w] {
				row[x] |= word
			}
		}
	}
	return nil
}

// validateAlternatives checks that alternative branches are well-scoped:
// every node inside the subtree of an entry of a chain with alternatives
// is entered only from inside that subtree (its head also from the
// chain's source), so the branch can be abandoned or compensated as a
// unit. Sources, chains and subtrees are walked in ascending local id
// and declaration order. A node twice in one chain is a duplicate edge,
// which addEdges refuses.
func (p *Process) validateAlternatives() error {
	var sub []int
	for h, chains := range p.chains {
		for _, chain := range chains {
			if len(chain) == 1 {
				continue
			}
			for _, t := range chain {
				sub = p.appendSubtree(sub[:0], t)
				for _, n := range sub {
					for _, pr := range p.preds[n] {
						switch {
						case pr == t || p.before(t, pr):
							// inside the branch
						case n != t:
							return fmt.Errorf("process %s: node %d inside alternative branch %d has external predecessor %d", p.ID, p.order[n], p.order[t], p.order[pr])
						case pr != h:
							return fmt.Errorf("process %s: alternative branch head %d has external predecessor %d", p.ID, p.order[n], p.order[pr])
						}
					}
				}
			}
		}
	}
	return nil
}
