package policy

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/process"
	"transproc/internal/schedule"
)

// simProc is one row of the simulated process table.
type simProc struct {
	id        process.ID
	def       *process.Process
	phase     Phase
	inst      *process.Instance
	steps     []process.Step
	inFlight  []string
	arrival   int
	next      int // index into def.Activities() of the next activity to run
	tentative int // local of the prepared activity awaiting its commit, or 0
}

// sim drives a State and the refState through one seeded operation
// stream over one process table, which is the View of both, and compares
// every answer after every operation.
type sim struct {
	t        testing.TB
	rng      *rand.Rand
	cfg      Config
	st       *State
	ref      *refState
	ids      []process.ID
	procs    map[process.ID]*simProc
	services []string
	seq      int64
	maxLive  int
	ops      int
	reached  map[string]int
	// waits holds, after each check, every denied candidate that names
	// its blockers, for the soundness check after the next operation.
	waits map[string]wait
}

// wait is a denied candidate of process proc and its sorted blockers.
type wait struct {
	proc     process.ID
	blockers []process.ID
}

func (w *sim) Procs() []process.ID { return w.ids }
func (w *sim) Phase(id process.ID) Phase {
	if p := w.procs[id]; p != nil {
		return p.phase
	}
	return Done
}
func (w *sim) Arrival(id process.ID) int { return w.procs[id].arrival }
func (w *sim) Instance(id process.ID) *process.Instance {
	if p := w.procs[id]; p != nil {
		return p.inst
	}
	return nil
}
func (w *sim) RecoverySteps(id process.ID) []process.Step { return w.procs[id].steps }
func (w *sim) InFlight(id process.ID) []string            { return w.procs[id].inFlight }

// newSim draws the shape of a stream from its seed: 3–40 services at a
// conflict share of 0.1, 0.3 or 0.6, 2–12 live processes, and PRED,
// CCOnly or PRED with BlockPivots. One stream in four is long and
// narrow instead, so that many processes terminate under it.
func newSim(t testing.TB, seed int64, reached map[string]int) *sim {
	rng := rand.New(rand.NewSource(seed))
	w := &sim{t: t, rng: rng, procs: map[process.ID]*simProc{}, reached: reached}
	services, maxLive, ops := 3+rng.Intn(38), 2+rng.Intn(11), 12+rng.Intn(25)
	if rng.Intn(4) == 0 {
		services, maxLive, ops = 3+rng.Intn(10), 2+rng.Intn(4), 100+rng.Intn(100)
	}
	w.maxLive, w.ops = maxLive, ops
	table, names := randomTable(rng, services, []float64{0.1, 0.3, 0.6}[rng.Intn(3)])
	w.services = names
	w.cfg = []Config{{Mode: PRED}, {Mode: CCOnly}, {Mode: PRED, BlockPivots: true}}[rng.Intn(3)]
	w.st = New(table, w.cfg)
	w.ref = newRefState(newUniverse(table), w.cfg)
	return w
}

// randomTable declares n services s0… and lets each pair of them, a
// service and itself included, conflict with probability share.
func randomTable(rng *rand.Rand, n int, share float64) (*conflict.Table, []string) {
	table := conflict.NewTable()
	var names []string
	for i := 0; i < n; i++ {
		svc := fmt.Sprintf("s%d", i)
		table.MapBase(process.DefaultCompensationName(svc), svc)
		names = append(names, svc)
	}
	for i, a := range names {
		for _, b := range names[i:] {
			if rng.Float64() < share {
				table.AddConflict(a, b)
			}
		}
	}
	return table, names
}

// append enters one event into both states (each keeps its own copy).
func (w *sim) append(ev Event) {
	w.seq++
	ev.Seq = w.seq
	mine, theirs := ev, ev
	w.st.AppendEvent(&mine)
	w.ref.AppendEvent(&theirs)
}

// bump names the process whose view facts an operation changed without
// an event of its own; the reference re-reads everything anyway.
func (w *sim) bump(id process.ID) {
	w.st.Bump(id)
	w.ref.Bump()
}

func (w *sim) must(err error) {
	if err != nil {
		w.t.Helper()
		w.t.Fatal(err)
	}
}

// admit adds a process: a chain of compensatable activities, possibly a
// pivot, then retriable ones, over random services.
func (w *sim) admit() {
	id := process.ID(fmt.Sprintf("P%d", len(w.ids)))
	b := process.NewBuilder(id)
	n := 2 + w.rng.Intn(5)
	pivot := w.rng.Intn(n + 1) // n: no pivot
	for l := 1; l <= n; l++ {
		kind := activity.Compensatable
		switch {
		case l-1 == pivot:
			kind = activity.Pivot
		case l-1 > pivot:
			kind = activity.Retriable
		}
		b.Add(l, w.services[w.rng.Intn(len(w.services))], kind)
		if l > 1 {
			b.Seq(l-1, l)
		}
	}
	def, err := b.Build()
	w.must(err)
	w.procs[id] = &simProc{id: id, def: def, inst: process.NewInstance(def), arrival: len(w.ids)}
	w.ids = append(w.ids, id) // new in Procs(): read without a bump
	w.ref.Bump()
}

func (w *sim) live() []*simProc {
	var out []*simProc
	for _, id := range w.ids {
		if p := w.procs[id]; p.phase != Done {
			out = append(out, p)
		}
	}
	return out
}

// terminate ends a process, mostly the way the driver does — Done, then
// the Terminate event that makes it prunable — and sometimes without the
// event, as a hub adoption or a restart's seeded history leaves it.
func (w *sim) terminate(p *simProc) {
	p.phase, p.steps, p.inFlight = Done, nil, nil
	if w.rng.Intn(5) == 0 {
		w.bump(p.id)
		return
	}
	w.append(Event{Proc: p.id, Typ: schedule.Terminate, Committed: true})
}

// op performs one random operation and returns the process it moved
// ("" for none).
func (w *sim) op() process.ID {
	live := w.live()
	if len(live) < 2 || (len(live) < w.maxLive && w.rng.Intn(6) == 0) {
		w.admit()
		return w.ids[len(w.ids)-1]
	}
	p := live[w.rng.Intn(len(live))]
	acts := p.def.Activities()
	roll := w.rng.Intn(10)
	switch {
	case roll == 0: // in-flight add/remove
		switch {
		case len(p.inFlight) > 0:
			p.inFlight = nil
		case len(p.steps) > 0:
			p.inFlight = []string{p.steps[0].Service}
		case p.next < len(acts):
			p.inFlight = []string{acts[p.next].Service}
		}
		w.bump(p.id)
	case p.phase == Aborting && len(p.steps) == 0:
		w.terminate(p)
	case p.phase == Aborting: // run the head of the completion
		st := p.steps[0]
		p.steps, p.inFlight = p.steps[1:], nil
		switch st.Kind {
		case process.StepCompensate:
			w.st.MarkCompensated(p.id, st.Local)
			w.ref.MarkCompensated(p.id, st.Local)
			w.append(Event{Proc: p.id, Local: st.Local, Service: st.Service, Kind: activity.Compensation, Typ: schedule.Invoke, Inverse: true})
		case process.StepInvoke:
			w.append(Event{Proc: p.id, Local: st.Local, Service: st.Service, Kind: p.def.Activity(st.Local).Kind, Typ: schedule.Invoke})
		case process.StepAbortPrepared:
			if w.st.EraseTentative(p.id, st.Local) != w.ref.EraseTentative(p.id, st.Local) {
				w.t.Fatalf("EraseTentative(%s, %d) disagrees", p.id, st.Local)
			}
			w.bump(p.id)
		}
		w.must(p.inst.ApplyStep(st))
	case p.tentative != 0 && roll < 6: // the deferred commit happens
		w.seq++
		if !w.st.FinalizeTentative(p.id, p.tentative, w.seq) || !w.ref.FinalizeTentative(p.id, p.tentative, w.seq) {
			w.t.Fatalf("FinalizeTentative(%s, %d) found nothing", p.id, p.tentative)
		}
		w.must(p.inst.MarkCommitted(p.tentative))
		p.tentative = 0
	case p.tentative != 0 && roll < 8: // rolled back, to be re-invoked
		if !w.st.EraseTentative(p.id, p.tentative) || !w.ref.EraseTentative(p.id, p.tentative) {
			w.t.Fatalf("EraseTentative(%s, %d) found nothing", p.id, p.tentative)
		}
		w.must(p.inst.ResetPrepared(p.tentative))
		p.tentative, p.next = 0, p.next-1
	case roll == 9 || (p.tentative == 0 && p.next == len(acts) && roll < 5): // abort-begin
		steps, err := p.inst.Abort()
		w.must(err)
		p.phase, p.steps, p.inFlight, p.tentative = Aborting, steps, nil, 0
		w.append(Event{Proc: p.id, Typ: schedule.AbortBegin})
	case p.tentative == 0 && p.next == len(acts):
		w.terminate(p)
	case p.tentative == 0: // run the next activity, committed or prepared
		a := acts[p.next]
		p.next, p.inFlight = p.next+1, nil
		ev := Event{Proc: p.id, Local: a.Local, Service: a.Service, Kind: a.Kind, Typ: schedule.Invoke}
		if a.Kind.NonCompensatable() && w.rng.Intn(2) == 0 {
			ev.Tentative, p.tentative = true, a.Local
			w.must(p.inst.MarkPrepared(a.Local))
		} else {
			w.must(p.inst.MarkCommitted(a.Local))
		}
		w.append(ev)
	default:
		return ""
	}
	return p.id
}

// check compares every answer the hosts ask for, for every live process,
// after the operation that moved mover. It also holds every wait to its
// blockers (soundness): a candidate denied with named blockers, neither
// it nor any of whose blockers moved, is denied again with the same
// blockers — and the mover, when its own new work made it one more.
func (w *sim) check(step int, mover process.ID) {
	fail := func(format string, args ...any) {
		w.t.Helper()
		w.t.Fatalf("%v, step %d: %s", w.cfg, step, fmt.Sprintf(format, args...))
	}
	waits := map[string]wait{}
	denied := func(key string, p process.ID, blockers []process.ID) {
		if len(blockers) > 0 {
			waits[key] = wait{p, blockers}
		}
	}
	// same compares blocker lists as sets, and sorts both.
	same := func(got, want []process.ID) bool {
		slices.Sort(got)
		slices.Sort(want)
		return slices.Equal(got, want)
	}
	kinds := []activity.Kind{activity.Compensatable}
	if w.cfg.BlockPivots {
		kinds = append(kinds, activity.Pivot)
	}
	inOrder := func(ids []process.ID) bool {
		return slices.IsSortedFunc(ids, func(a, b process.ID) int { return admission(w, a, b) })
	}
	for _, p := range w.live() {
		for _, svc := range w.services {
			for _, kind := range kinds {
				a := &process.Activity{Local: 1, Service: svc, Kind: kind}
				rule, blockers := w.st.MayDispatch(w, p.id, a)
				blockers = slices.Clone(blockers)
				_, refWhy := w.ref.MayDispatch(w, p.id, a)
				refRule, refFirst := refDenial(refWhy)
				if rule != refRule || refFirst != "" && (len(blockers) == 0 || blockers[0] != refFirst) {
					fail("MayDispatch(%s, %s %v) = %s %v, reference %q", p.id, svc, kind, rule, blockers, refWhy)
				}
				// The blockers: Lemma 1's are the reference's, the pivot
				// gate's every active conflict predecessor.
				want := w.ref.DispatchBlockers(w, p.id, a)
				if rule == RulePivot {
					want = refActivePreds(w, p.id)
				}
				if !inOrder(blockers) || !same(slices.Clone(blockers), want) {
					fail("MayDispatch(%s, %s %v) = %s %v, reference blockers %v", p.id, svc, kind, rule, blockers, want)
				}
				if rule != "" {
					w.reached[string(rule)]++
				}
				// A pivot wait's blockers are the commit wait's, held
				// below; Lemma 1 is the first gate, so a mover can only
				// join its wait, never pre-empt it.
				if rule == RuleLemma1 {
					denied(fmt.Sprint("dispatch ", p.id, svc, kind), p.id, blockers)
				}
			}
		}
		if got, want := w.st.HasActiveConflictPred(w, p.id), w.ref.HasActiveConflictPred(w, p.id); got != want {
			fail("HasActiveConflictPred(%s) = %v, reference %v", p.id, got, want)
		}
		got := slices.Clone(w.st.ActiveConflictPreds(w, p.id))
		if want := refActivePreds(w, p.id); !inOrder(got) || !same(slices.Clone(got), want) ||
			len(got) > 0 && got[0] != process.ID(w.ref.FirstActivePred(w, p.id)) {
			fail("ActiveConflictPreds(%s) = %v, reference %v", p.id, got, want)
		}
		denied(fmt.Sprint("commit ", p.id), p.id, got)
		for _, a := range p.def.Activities() {
			if got, want := w.st.BaseSeq(p.id, a.Local), w.ref.BaseSeq(p.id, a.Local); got != want {
				fail("BaseSeq(%s, %d) = %d, reference %d", p.id, a.Local, got, want)
			}
		}
		for _, st := range p.steps {
			rule := func(name string, got, want []process.ID) {
				if !same(got, want) {
					fail("%s(%s, %v) = %v, reference %v", name, p.id, st, got, want)
				}
				if len(got) > 0 {
					w.reached[name]++
				}
				denied(fmt.Sprint(name, p.id, st), p.id, got)
			}
			switch st.Kind {
			case process.StepCompensate:
				rule("Lemma2Blockers", w.st.Lemma2Blockers(w, p.id, st), w.ref.Lemma2Blockers(w, p.id, st))
			case process.StepInvoke:
				rule("Lemma3Blockers", w.st.Lemma3Blockers(w, p.id, st), w.ref.Lemma3Blockers(w, p.id, st))
				rule("Lemma1ForwardBlockers", w.st.Lemma1ForwardBlockers(w, p.id, st), w.ref.Lemma1ForwardBlockers(w, p.id, st))
				if got, want := w.st.StepForcedClear(w, p.id, st), w.ref.StepForcedClear(w, p.id, st); got != want {
					fail("StepForcedClear(%s, %v) = %v, reference %v", p.id, st, got, want)
				} else if !got {
					w.reached["StepForcedClear"]++
				}
				to, deferred := w.st.DeferToAborting(w, p.id, st)
				refTo, refDeferred := w.ref.DeferToAborting(w, p.id, st)
				if to != refTo || deferred != refDeferred {
					fail("DeferToAborting(%s, %v) = %q, reference %q", p.id, st, to, refTo)
				}
				if deferred {
					w.reached["DeferToAborting"]++
					denied(fmt.Sprint("DeferToAborting", p.id, st), p.id, []process.ID{to})
				}
			}
		}
	}
	for key, was := range w.waits {
		if was.proc == mover || slices.Contains(was.blockers, mover) {
			continue
		}
		// The mover itself may join: new conflicting work of its own
		// makes it one more process to wait for.
		now := slices.DeleteFunc(slices.Clone(waits[key].blockers), func(id process.ID) bool { return id == mover })
		if !slices.Equal(now, was.blockers) {
			fail("%s: waited on %v, none of which moved (%q did), now on %v", key, was.blockers, mover, waits[key].blockers)
		}
		w.reached["held"]++
	}
	w.waits = waits
}

// refDenial reads the reference's denial text as the rule it names and,
// for Lemma 1, the blocker it names: the oldest.
func refDenial(why string) (Rule, process.ID) {
	const lemma1 = "recovery: depends on active process "
	switch why {
	case "":
		return "", ""
	case "completed-schedule ordering would become cyclic":
		return RuleForced, ""
	case "pivot blocked until predecessors terminate (ablation mode)":
		return RulePivot, ""
	case "serializability: edge would close a cycle":
		return RuleCycle, ""
	}
	if first, ok := strings.CutPrefix(why, lemma1); ok {
		return RuleLemma1, process.ID(strings.TrimSuffix(first, " (Lemma 1)"))
	}
	return Rule(why), ""
}

// refActivePreds lists the reference's active conflict predecessors.
func refActivePreds(w *sim, id process.ID) []process.ID {
	var out []process.ID
	w.ref.activePreds(w, id, func(q process.ID) bool { out = append(out, q); return true })
	return out
}

// runStream is the body of the oracle test and of the fuzz target.
func runStream(t testing.TB, seed int64, reached map[string]int) {
	w := newSim(t, seed, reached)
	for step := 0; step < w.ops; step++ {
		w.check(step, w.op())
	}
	// Both outcomes of the deletion rule must occur: a terminated process
	// gone from the graph, and one kept behind a live predecessor.
	for _, id := range w.ids {
		switch n := w.st.nodes[id]; {
		case n == nil && w.procs[id].next > 0:
			reached["pruned"]++
		case n != nil && n.terminated:
			reached["kept"]++
		}
	}
}

// TestIncrementalMatchesReference holds the incremental State to the
// answers of the rebuild-from-scratch reference on seeded random
// streams, and checks that the streams reach every rule's denial and
// both outcomes of pruning.
func TestIncrementalMatchesReference(t *testing.T) {
	reached := map[string]int{}
	for seed := int64(0); seed < 1000; seed++ {
		runStream(t, seed, reached)
	}
	for _, rule := range []string{
		string(RuleLemma1), string(RuleForced), string(RuleCycle), string(RulePivot),
		"Lemma2Blockers", "Lemma3Blockers", "Lemma1ForwardBlockers", "StepForcedClear", "DeferToAborting",
		"pruned", "kept", "held",
	} {
		if reached[rule] == 0 {
			t.Errorf("no stream reached %q", rule)
		}
	}
	t.Logf("compared: %v", reached)
}

func FuzzPolicyIncremental(f *testing.F) {
	f.Add(int64(1))
	f.Fuzz(func(t *testing.T, seed int64) {
		runStream(t, seed, map[string]int{})
	})
}
