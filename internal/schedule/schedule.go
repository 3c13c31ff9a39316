package schedule

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/process"
)

// Schedule is a process schedule S = (P_S, A_S, ≪_S) (Definition 7). The
// event slice is the observed total order; ≪_S is the induced partial
// order (intra-process precedence plus the observed order of conflicting
// activities). Schedules are built incrementally via the appending
// methods, which replay each event against per-process instances and
// reject executions that are not legal for their process (Definition
// 7.1 admits only legal executions of each P_i).
type Schedule struct {
	Table *conflict.Table
	// EffectFree optionally reports services whose activities are
	// effect-free by themselves (e.g. pure readers); used by the
	// effect-free reduction rule (Definition 9.3).
	EffectFree func(service string) bool

	procs  map[process.ID]*process.Process
	order  []process.ID
	events []Event
}

// New returns an empty schedule over the given processes. The conflict
// table is taught the compensating-service base mapping of every
// compensatable activity (perfect commutativity, Section 3.2).
func New(table *conflict.Table, procs ...*process.Process) (*Schedule, error) {
	s := &Schedule{
		Table: table,
		procs: make(map[process.ID]*process.Process, len(procs)),
		order: make([]process.ID, 0, len(procs)),
	}
	for _, p := range procs {
		if _, dup := s.procs[p.ID]; dup {
			return nil, fmt.Errorf("schedule: duplicate process %s", p.ID)
		}
		s.procs[p.ID] = p
		s.order = append(s.order, p.ID)
		for _, a := range p.Activities() {
			if a.Kind == activity.Compensatable {
				table.MapBase(a.Compensation, a.Service)
			}
		}
	}
	return s, nil
}

// MustNew is New that panics on error, for fixtures.
func MustNew(table *conflict.Table, procs ...*process.Process) *Schedule {
	s, err := New(table, procs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Processes returns the schedule's processes in registration order.
func (s *Schedule) Processes() []*process.Process {
	out := make([]*process.Process, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.procs[id])
	}
	return out
}

// Process returns the process with the given id, or nil.
func (s *Schedule) Process(id process.ID) *process.Process { return s.procs[id] }

// Events returns a copy of the event sequence.
func (s *Schedule) Events() []Event { return append([]Event(nil), s.events...) }

// Len returns the number of events.
func (s *Schedule) Len() int { return len(s.events) }

// append validates the event by replaying the whole schedule; this keeps
// the appending API simple and is fast enough for theory-sized schedules.
func (s *Schedule) append(e Event) error {
	trial := append(append([]Event(nil), s.events...), e)
	if _, err := Replay(s.procs, trial); err != nil {
		return err
	}
	s.events = trial
	return nil
}

// AppendUnchecked records an event without replay validation. It exists
// for trusted writers (the process scheduler, which maintains its own
// instances); correctness can still be validated afterwards with Replay
// or the PRED check, both of which replay from scratch.
func (s *Schedule) AppendUnchecked(e Event) {
	s.events = append(s.events, e)
}

// Grow makes room for n more events, so that n appends do not copy.
func (s *Schedule) Grow(n int) { s.events = slices.Grow(s.events, n) }

// Invoke appends the committed invocation of activity local of proc.
func (s *Schedule) Invoke(proc process.ID, local int) error {
	p := s.procs[proc]
	if p == nil {
		return fmt.Errorf("schedule: unknown process %s", proc)
	}
	a := p.Activity(local)
	if a == nil {
		return fmt.Errorf("schedule: unknown activity %s_%d", proc, local)
	}
	return s.append(Event{Type: Invoke, Proc: proc, Local: local, Service: a.Service, Kind: a.Kind})
}

// Fail appends the permanent failure of activity local of proc.
func (s *Schedule) Fail(proc process.ID, local int) error {
	p := s.procs[proc]
	if p == nil {
		return fmt.Errorf("schedule: unknown process %s", proc)
	}
	a := p.Activity(local)
	if a == nil {
		return fmt.Errorf("schedule: unknown activity %s_%d", proc, local)
	}
	return s.append(Event{Type: FailedInvoke, Proc: proc, Local: local, Service: a.Service, Kind: a.Kind})
}

// Compensate appends the committed compensating activity of local.
func (s *Schedule) Compensate(proc process.ID, local int) error {
	p := s.procs[proc]
	if p == nil {
		return fmt.Errorf("schedule: unknown process %s", proc)
	}
	a := p.Activity(local)
	if a == nil {
		return fmt.Errorf("schedule: unknown activity %s_%d", proc, local)
	}
	if a.Kind != activity.Compensatable {
		return fmt.Errorf("schedule: activity %s_%d is %v, not compensatable", proc, local, a.Kind)
	}
	return s.append(Event{Type: Invoke, Proc: proc, Local: local, Service: a.Compensation, Kind: activity.Compensation, Inverse: true})
}

// BeginAbort appends the abort activity A_i of proc: the process's
// completion steps follow it, concluded by FinishAbort.
func (s *Schedule) BeginAbort(proc process.ID) error {
	return s.append(Event{Type: AbortBegin, Proc: proc})
}

// Commit appends the regular termination C_i of proc.
func (s *Schedule) Commit(proc process.ID) error {
	return s.append(Event{Type: Terminate, Proc: proc, Committed: true})
}

// FinishAbort appends the terminal event of an abort whose completion
// steps have all been appended (the completed schedule turns A_i into
// C_i, Definition 8.2c).
func (s *Schedule) FinishAbort(proc process.ID) error {
	return s.append(Event{Type: Terminate, Proc: proc, Committed: false})
}

// MustPlay appends the events described by a compact script and panics on
// error; it exists for fixtures and tests. Each element is
// (proc, local, verb) with verb one of "ok", "fail", "comp"; local 0 with
// verb "C" commits, "A" finishes an abort.
func (s *Schedule) MustPlay(steps ...PlayStep) *Schedule {
	for _, st := range steps {
		var err error
		switch st.Verb {
		case "ok":
			err = s.Invoke(st.Proc, st.Local)
		case "fail":
			err = s.Fail(st.Proc, st.Local)
		case "comp":
			err = s.Compensate(st.Proc, st.Local)
		case "C":
			err = s.Commit(st.Proc)
		case "abort":
			err = s.BeginAbort(st.Proc)
		case "A":
			err = s.FinishAbort(st.Proc)
		default:
			err = fmt.Errorf("schedule: unknown verb %q", st.Verb)
		}
		if err != nil {
			panic(err)
		}
	}
	return s
}

// PlayStep is one step of MustPlay.
type PlayStep struct {
	Proc  process.ID
	Local int
	Verb  string
}

// Ok, Failv, Comp, C, Ab and A build PlaySteps tersely.
func Ok(p process.ID, l int) PlayStep    { return PlayStep{p, l, "ok"} }
func Failv(p process.ID, l int) PlayStep { return PlayStep{p, l, "fail"} }
func Comp(p process.ID, l int) PlayStep  { return PlayStep{p, l, "comp"} }
func C(p process.ID) PlayStep            { return PlayStep{p, 0, "C"} }
func Ab(p process.ID) PlayStep           { return PlayStep{p, 0, "abort"} }
func A(p process.ID) PlayStep            { return PlayStep{p, 0, "A"} }

// Replay replays events against fresh instances of the given processes,
// validating legality (Definition 7.1). It returns the resulting
// instances.
func Replay(procs map[process.ID]*process.Process, events []Event) (map[process.ID]*process.Instance, error) {
	insts := make(map[process.ID]*process.Instance, len(procs))
	for id, p := range procs {
		insts[id] = process.NewInstance(p)
	}
	for i, e := range events {
		in := insts[e.Proc]
		if in == nil && e.Type != GroupAbort {
			return nil, fmt.Errorf("schedule: event %d references unknown process %s", i, e.Proc)
		}
		switch e.Type {
		case Invoke:
			if e.Inverse {
				if err := in.MarkCompensated(e.Local); err != nil {
					return nil, fmt.Errorf("schedule: event %d (%s): %w", i, e.Label(), err)
				}
				continue
			}
			// Regular invocation must be enabled: either on the frontier
			// or a forward-recovery invocation during an abort.
			if in.Aborting() {
				if err := in.MarkCommitted(e.Local); err != nil {
					return nil, fmt.Errorf("schedule: event %d (%s): %w", i, e.Label(), err)
				}
				continue
			}
			if !contains(in.Frontier(), e.Local) {
				return nil, fmt.Errorf("schedule: event %d (%s): activity not enabled (violates ≪_%s or ◁_%s)", i, e.Label(), e.Proc, e.Proc)
			}
			if err := in.MarkCommitted(e.Local); err != nil {
				return nil, fmt.Errorf("schedule: event %d (%s): %w", i, e.Label(), err)
			}
		case FailedInvoke:
			if !contains(in.Frontier(), e.Local) {
				return nil, fmt.Errorf("schedule: event %d (%s): activity not enabled", i, e.Label())
			}
			if _, err := in.MarkFailed(e.Local); err != nil {
				return nil, fmt.Errorf("schedule: event %d (%s): %w", i, e.Label(), err)
			}
		case AbortBegin:
			if _, err := in.Abort(); err != nil {
				return nil, fmt.Errorf("schedule: event %d (%s): %w", i, e.Label(), err)
			}
		case Terminate:
			if in.Terminated() {
				return nil, fmt.Errorf("schedule: event %d: process %s already terminated", i, e.Proc)
			}
			if e.Committed && (!in.Done() || in.Aborting()) {
				return nil, fmt.Errorf("schedule: event %d: C_%s before the process is done", i, e.Proc)
			}
			if !e.Committed && !in.Aborting() {
				return nil, fmt.Errorf("schedule: event %d: abort termination of %s without an abort", i, e.Proc)
			}
			in.MarkTerminated(e.Committed)
		case GroupAbort:
			// The set-oriented abort A(P_{n_1} … P_{n_s}) of Definition
			// 8.2b: every member process begins its abort; the appended
			// completion activities follow.
			for _, id := range e.Group {
				member := insts[id]
				if member == nil {
					return nil, fmt.Errorf("schedule: event %d: group abort of unknown process %s", i, id)
				}
				if member.Terminated() || member.Aborting() {
					continue
				}
				if _, err := member.Abort(); err != nil {
					return nil, fmt.Errorf("schedule: event %d (%s): %w", i, e.Label(), err)
				}
			}
		}
	}
	return insts, nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Active returns the ids of processes that have events in the schedule
// but no Terminate event, in first-appearance order.
func (s *Schedule) Active() []process.ID {
	return activeIn(s.events)
}

func activeIn(events []Event) []process.ID {
	terminated := make(map[process.ID]bool)
	var order []process.ID
	seen := make(map[process.ID]bool)
	for _, e := range events {
		if e.Type == GroupAbort {
			continue
		}
		if !seen[e.Proc] {
			seen[e.Proc] = true
			order = append(order, e.Proc)
		}
		if e.Type == Terminate {
			terminated[e.Proc] = true
		}
	}
	var out []process.ID
	for _, id := range order {
		if !terminated[id] {
			out = append(out, id)
		}
	}
	return out
}

// Prefix returns the prefix schedule consisting of the first k events.
func (s *Schedule) Prefix(k int) *Schedule {
	if k > len(s.events) {
		k = len(s.events)
	}
	cp := &Schedule{
		Table:      s.Table,
		EffectFree: s.EffectFree,
		procs:      s.procs,
		order:      s.order,
		events:     append([]Event(nil), s.events[:k]...),
	}
	return cp
}

// conflictsEvents reports whether two events conflict under the table
// (both effectful, different processes, non-commuting services).
func (s *Schedule) conflictsEvents(a, b Event) bool {
	if !a.Effectful() || !b.Effectful() || a.Proc == b.Proc {
		return false
	}
	return s.Table.Conflicts(a.Service, b.Service)
}

// String renders the schedule in the paper's notation.
func (s *Schedule) String() string {
	parts := make([]string, len(s.events))
	for i, e := range s.events {
		parts[i] = e.Label()
	}
	return "⟨" + strings.Join(parts, " ") + "⟩"
}

// ConflictPairs returns the ordered conflicting pairs (i, j) of event
// indices with i < j, for display and testing.
func (s *Schedule) ConflictPairs() [][2]int {
	var out [][2]int
	for i := 0; i < len(s.events); i++ {
		for j := i + 1; j < len(s.events); j++ {
			if s.conflictsEvents(s.events[i], s.events[j]) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// SerializationGraph returns the process-level conflict graph: an edge
// P_i -> P_j for every conflicting pair with the P_i event first.
func (s *Schedule) SerializationGraph() *Graph {
	return graphOf(s.events, s.conflictsEvents)
}

// Serializable reports whether the schedule is conflict-equivalent to a
// serial execution of its processes: the serialization graph is acyclic
// (Section 3.2). This is the classical syntactic notion over all
// committed invocations including compensating activities; for schedules
// that contain compensations (aborted or recovered processes), use
// EffectiveSerializable, which corresponds to the committed projection
// of Theorem 1's proof.
func (s *Schedule) Serializable() bool {
	_, ok := s.SerializationGraph().TopoOrder()
	return ok
}

// EffectiveSerializable reports serializability of the schedule's
// effective part: effect-free compensation pairs are cancelled first (a
// backward-recovered process disappears entirely, exactly the committed
// projection used in the proof of Theorem 1), then the conflict graph of
// the remainder must be acyclic.
func (s *Schedule) EffectiveSerializable() bool {
	return s.Reduce().Serial
}

// Graph is a directed graph over process ids.
type Graph struct {
	nodes map[process.ID]bool
	adj   map[process.ID]map[process.ID]bool
	order []process.ID
}

func newGraph() *Graph {
	return &Graph{nodes: make(map[process.ID]bool), adj: make(map[process.ID]map[process.ID]bool)}
}

func graphOf(events []Event, conflicts func(a, b Event) bool) *Graph {
	g := newGraph()
	for _, e := range events {
		if e.Effectful() || e.Type == Terminate || e.Type == FailedInvoke {
			g.AddNode(e.Proc)
		}
	}
	for i := 0; i < len(events); i++ {
		for j := i + 1; j < len(events); j++ {
			if conflicts(events[i], events[j]) {
				g.AddEdge(events[i].Proc, events[j].Proc)
			}
		}
	}
	return g
}

// AddNode adds a node.
func (g *Graph) AddNode(n process.ID) {
	if !g.nodes[n] {
		g.nodes[n] = true
		g.order = append(g.order, n)
	}
}

// AddEdge adds edge a -> b (self edges are ignored).
func (g *Graph) AddEdge(a, b process.ID) {
	if a == b {
		return
	}
	g.AddNode(a)
	g.AddNode(b)
	if g.adj[a] == nil {
		g.adj[a] = make(map[process.ID]bool)
	}
	g.adj[a][b] = true
}

// HasEdge reports whether edge a -> b exists.
func (g *Graph) HasEdge(a, b process.ID) bool { return g.adj[a][b] }

// Nodes returns the nodes in insertion order.
func (g *Graph) Nodes() []process.ID { return append([]process.ID(nil), g.order...) }

// Edges returns the edges sorted lexicographically.
func (g *Graph) Edges() [][2]process.ID {
	var out [][2]process.ID
	for a, m := range g.adj {
		for b := range m {
			out = append(out, [2]process.ID{a, b})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TopoOrder returns a topological order of the nodes and whether the
// graph is acyclic. Ties are broken by insertion order, so the result is
// deterministic.
func (g *Graph) TopoOrder() ([]process.ID, bool) {
	indeg := make(map[process.ID]int, len(g.order))
	for _, n := range g.order {
		indeg[n] = 0
	}
	for _, m := range g.adj {
		for b := range m {
			indeg[b]++
		}
	}
	var out []process.ID
	used := make(map[process.ID]bool)
	for len(out) < len(g.order) {
		picked := false
		for _, n := range g.order {
			if !used[n] && indeg[n] == 0 {
				used[n] = true
				out = append(out, n)
				for b := range g.adj[n] {
					indeg[b]--
				}
				picked = true
				break
			}
		}
		if !picked {
			return nil, false
		}
	}
	return out, true
}

// DOT renders the graph in Graphviz dot syntax, for visualizing
// serialization graphs of process schedules.
func (g *Graph) DOT(name string) string {
	s := "digraph " + name + " {\n"
	for _, n := range g.Nodes() {
		s += fmt.Sprintf("  %q;\n", string(n))
	}
	for _, e := range g.Edges() {
		s += fmt.Sprintf("  %q -> %q;\n", string(e[0]), string(e[1]))
	}
	return s + "}\n"
}

// WouldCreateCycle reports whether adding edge a -> b would close a cycle
// (i.e., b already reaches a).
func (g *Graph) WouldCreateCycle(a, b process.ID) bool {
	if a == b {
		return false
	}
	// DFS from b looking for a.
	stack := []process.ID{b}
	seen := make(map[process.ID]bool)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == a {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		for m := range g.adj[n] {
			stack = append(stack, m)
		}
	}
	return false
}
