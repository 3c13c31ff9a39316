package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/process"
	"transproc/internal/schedule"
)

// window is a process table with a few running processes at the end of
// a long list of terminated ones — the View of a long run.
type window struct {
	ids     []process.ID
	arrival map[process.ID]int
	running map[process.ID]*process.Instance
}

func newWindow() *window {
	return &window{arrival: map[process.ID]int{}, running: map[process.ID]*process.Instance{}}
}

func (v *window) Procs() []process.ID { return v.ids }
func (v *window) Phase(id process.ID) Phase {
	if v.running[id] != nil {
		return Running
	}
	return Done
}
func (v *window) Arrival(id process.ID) int                  { return v.arrival[id] }
func (v *window) Instance(id process.ID) *process.Instance   { return v.running[id] }
func (v *window) RecoverySteps(id process.ID) []process.Step { return nil }
func (v *window) InFlight(id process.ID) []string            { return nil }

// chains builds process shapes of n activities each: a compensatable
// one, a pivot, then retriable ones — forward-recoverable, and so a
// possible predecessor of other live processes, from the second activity
// on.
func chains(rng *rand.Rand, services []string, n int) []*process.Process {
	shapes := make([]*process.Process, 64)
	for i := range shapes {
		b := process.NewBuilder("shape")
		for l := 1; l <= n; l++ {
			b.Add(l, services[rng.Intn(len(services))], min(activity.Kind(l-1), activity.Retriable))
			if l > 1 {
				b.Seq(l-1, l)
			}
		}
		shapes[i] = b.MustBuild()
	}
	return shapes
}

// admit adds a running process of one of the shapes.
func (v *window) admit(shapes []*process.Process) *process.Process {
	def := shapes[len(v.ids)%len(shapes)].WithID(process.ID(fmt.Sprintf("P%d", len(v.ids))))
	v.arrival[def.ID] = len(v.ids)
	v.ids = append(v.ids, def.ID)
	v.running[def.ID] = process.NewInstance(def)
	return def
}

// graphSize counts what a State keeps besides the record.
func graphSize(s *State) (nodes, edges, survivors int) {
	for _, n := range s.nodes {
		edges += len(n.out)
	}
	for _, list := range s.bySvc {
		survivors += len(list)
	}
	return len(s.nodes), edges, survivors
}

// TestPrunedStateIsBounded: what a State keeps follows the live
// processes, not the history — and a terminated process is part of what
// it keeps for as long as a live one is ordered before it.
func TestPrunedStateIsBounded(t *testing.T) {
	t.Run("5000 processes through a window of 8", prunedWindow)
	t.Run("a live predecessor keeps its successors", pruneWaitsForLivePredecessor)
}

// prunedWindow runs 5,000 processes through one State, 8 at a time and
// each one's activities only as MayDispatch allows, the way a host does.
func prunedWindow(t *testing.T) {
	const procs, width, acts = 5000, 8, 5
	rng := rand.New(rand.NewSource(1))
	table, services := randomTable(rng, 12, 0.3)
	shapes := chains(rng, services, acts)
	st := New(table, Config{Mode: PRED})
	v := newWindow()
	var seq int64
	appendEvent := func(ev Event) {
		seq++
		ev.Seq = seq
		st.AppendEvent(&ev)
	}
	type running struct {
		def  *process.Process
		next int
	}
	var live []*running
	terminate := func(i int) {
		delete(v.running, live[i].def.ID)
		appendEvent(Event{Proc: live[i].def.ID, Typ: schedule.Terminate, Committed: true})
		live = append(live[:i], live[i+1:]...)
	}
	var maxNodes, maxEdges, maxSurvivors int
	for admitted, done := 0, 0; done < procs; {
		for len(live) < width && admitted < procs {
			live = append(live, &running{def: v.admit(shapes)})
			admitted++
		}
		progressed := false
		for i := 0; i < len(live); i++ {
			p := live[i]
			if p.next == acts {
				terminate(i)
				done, progressed = done+1, true
				i--
				continue
			}
			a := p.def.Activities()[p.next]
			if rule, _ := st.MayDispatch(v, p.def.ID, a); rule != "" {
				continue
			}
			if err := v.running[p.def.ID].MarkCommitted(a.Local); err != nil {
				t.Fatal(err)
			}
			appendEvent(Event{Proc: p.def.ID, Local: a.Local, Service: a.Service, Kind: a.Kind, Typ: schedule.Invoke})
			p.next, progressed = p.next+1, true
		}
		if !progressed {
			// A stall: the youngest process is the victim. It backs out in
			// reverse and terminates; a fresh one takes its place.
			victim := len(live) - 1
			for l := live[victim].next; l >= 1; l-- {
				st.MarkCompensated(live[victim].def.ID, l)
			}
			terminate(victim)
			done++
		}
		if done > procs/10 {
			nodes, edges, survivors := graphSize(st)
			maxNodes, maxEdges, maxSurvivors = max(maxNodes, nodes), max(maxEdges, edges), max(maxSurvivors, survivors)
		}
	}
	t.Logf("after %d events: at most %d nodes, %d edges, %d survivor entries", len(st.Events()), maxNodes, maxEdges, maxSurvivors)
	if maxNodes > 4*width || maxEdges > 4*width*width || maxSurvivors > 4*width*acts {
		t.Errorf("the graph grew with the history: %d nodes, %d edges, %d survivor entries for a window of %d",
			maxNodes, maxEdges, maxSurvivors, width)
	}
	if nodes, edges, survivors := graphSize(st); nodes+edges+survivors != 0 {
		t.Errorf("everything terminated, yet %d nodes, %d edges, %d survivor entries remain", nodes, edges, survivors)
	}
}

// pruneWaitsForLivePredecessor: P2 and P3 terminate behind the live P1
// and stay — a path through them still orders P1 — until P1 terminates.
func pruneWaitsForLivePredecessor(t *testing.T) {
	table := conflict.NewTable()
	table.AddConflict("a", "b")
	st := New(table, Config{Mode: CCOnly})
	v := newWindow()
	for _, id := range []process.ID{"P1", "P2", "P3"} {
		def := process.NewBuilder(id).Add(1, "a", activity.Compensatable).MustBuild()
		v.ids = append(v.ids, id)
		v.running[id] = process.NewInstance(def)
	}
	var seq int64
	run := func(id process.ID, svc string) {
		seq++
		st.AppendEvent(&Event{Seq: seq, Proc: id, Local: 1, Service: svc, Typ: schedule.Invoke})
	}
	terminate := func(id process.ID) {
		delete(v.running, id)
		seq++
		st.AppendEvent(&Event{Seq: seq, Proc: id, Typ: schedule.Terminate, Committed: true})
	}
	run("P1", "a")
	run("P2", "b") // P1 → P2
	run("P3", "a") // P2 → P3
	terminate("P2")
	terminate("P3")
	if nodes, edges, survivors := graphSize(st); nodes != 3 || edges != 2 || survivors != 3 {
		t.Fatalf("behind the live P1: %d nodes, %d edges, %d survivor entries, want 3, 2, 3", nodes, edges, survivors)
	}
	// P1 must not come after P3: the path P1 → P2 → P3 runs through
	// terminated processes only.
	if rule, blockers := st.MayDispatch(v, "P1", &process.Activity{Local: 2, Service: "b"}); rule != RuleCycle || blockers != nil {
		t.Errorf("P1 after P3: %s %v, want the cycle refused", rule, blockers)
	}
	terminate("P1")
	if nodes, edges, survivors := graphSize(st); nodes+edges+survivors != 0 {
		t.Errorf("after P1 terminated: %d nodes, %d edges, %d survivor entries remain", nodes, edges, survivors)
	}
}

// BenchmarkPolicyDecide is the decision microbenchmark of bench/micro.go
// inside the package: a history of h events of terminated processes
// (their invocations plus one Terminate each, as the runtime leaves
// them), a window of 8 running ones, and per iteration one MayDispatch
// on a conflicting service and one AppendEvent. Unlike there the window
// moves on and obeys the answers, as a host does — an allowed activity
// runs, a refused one makes its process the victim, a finished or
// aborted process terminates and a new one is admitted — so the graph
// stays the graph of a run and the cost per iteration does not depend
// on b.N.
func BenchmarkPolicyDecide(b *testing.B) {
	for _, h := range []struct {
		name   string
		events int
	}{{"h=100", 100}, {"h=1k", 1000}, {"h=10k", 10000}, {"h=100k", 100000}} {
		b.Run(h.name, func(b *testing.B) {
			const width, acts = 8, 4
			rng := rand.New(rand.NewSource(12))
			table, services := randomTable(rng, 40, 0.3)
			// Self-conflicting services only: a commuting one returns
			// before the graph.
			var hot []string
			for _, svc := range services {
				if table.Conflicts(svc, svc) {
					hot = append(hot, svc)
				}
			}
			shapes := chains(rng, hot, acts)
			st := New(table, Config{Mode: PRED})
			v := newWindow()
			var seq int64
			appendEvent := func(ev Event) {
				seq++
				ev.Seq = seq
				st.AppendEvent(&ev)
			}
			type running struct {
				def  *process.Process
				next int
			}
			var procs [width]running
			for i := range procs {
				procs[i].def = v.admit(shapes)
			}
			step := func(p *running) {
				id := p.def.ID
				a := p.def.Activities()[p.next]
				if rule, _ := st.MayDispatch(v, id, a); rule == "" {
					if err := v.running[id].MarkCommitted(a.Local); err != nil {
						b.Fatal(err)
					}
					appendEvent(Event{Proc: id, Local: a.Local, Service: a.Service, Kind: a.Kind, Typ: schedule.Invoke})
					if p.next++; p.next < acts {
						return
					}
				} else {
					for l := p.next; l >= 1; l-- {
						st.MarkCompensated(id, l)
					}
				}
				delete(v.running, id)
				appendEvent(Event{Proc: id, Typ: schedule.Terminate, Committed: true})
				*p = running{def: v.admit(shapes)}
			}
			for i := 0; len(st.Events()) < h.events; i++ {
				step(&procs[i%width])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(&procs[i%width])
			}
		})
	}
}
