package process_test

import (
	"maps"
	"math/rand"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/paper"
	"transproc/internal/process"
)

// relabel rebuilds p under another process id, with every service and
// compensation name prefixed: the same structure under other names.
func relabel(p *process.Process, id process.ID, prefix string) *process.Process {
	b := process.NewBuilder(id)
	for _, a := range p.Activities() {
		comp := a.Compensation
		if comp != "" {
			comp = prefix + "undo-" + comp
		}
		b.AddComp(a.Local, prefix+a.Service, a.Kind, comp)
	}
	for _, a := range p.Activities() {
		for _, chain := range p.Chains(a.Local) {
			b.Chain(a.Local, chain...)
		}
	}
	return b.MustBuild()
}

func twoPivotsNoAlt() *process.Process {
	return process.NewBuilder("BAD2").
		Add(1, "p1", activity.Pivot).
		Add(2, "p2", activity.Pivot).
		Seq(1, 2).
		MustBuild()
}

func TestShapeKeyIgnoresNames(t *testing.T) {
	t.Parallel()
	for _, p := range []*process.Process{paper.P1(), paper.P2(), paper.P3(), twoPivotsNoAlt()} {
		q := relabel(p, p.ID+"-other", "x.")
		if p.ShapeKey() != q.ShapeKey() {
			t.Errorf("%s: relabelling services and id changed the key", p.ID)
		}
		if p.ShapeKey() != p.WithID("Q").ShapeKey() {
			t.Errorf("%s: WithID changed the key", p.ID)
		}
		pErr := process.ExploreTermination(p)
		qErr := process.ExploreTermination(q)
		if (pErr == nil) != (qErr == nil) {
			t.Errorf("%s: verdict %v, relabelled %v", p.ID, pErr, qErr)
		}
	}
}

// TestShapeKeySeesStructure changes one kind, one edge or the order of
// two alternatives of a base process; each change must change the key.
func TestShapeKeySeesStructure(t *testing.T) {
	t.Parallel()
	type edit struct {
		kind2 activity.Kind
		seq   [][2]int
		alts  []int
	}
	build := func(e edit) *process.Process {
		b := process.NewBuilder("S").
			Add(1, "c1", activity.Compensatable).
			Add(2, "c2", e.kind2).
			Add(3, "p3", activity.Pivot).
			Add(4, "p4", activity.Pivot).
			Add(5, "r5", activity.Retriable)
		for _, s := range e.seq {
			b.Seq(s[0], s[1])
		}
		return b.Chain(3, e.alts...).MustBuild()
	}
	base := edit{kind2: activity.Compensatable, seq: [][2]int{{1, 2}, {2, 3}}, alts: []int{4, 5}}
	key := build(base).ShapeKey()
	changes := map[string]edit{
		"kind":         {kind2: activity.Pivot, seq: base.seq, alts: base.alts},
		"edge":         {kind2: base.kind2, seq: [][2]int{{1, 2}, {1, 3}}, alts: base.alts},
		"alternatives": {kind2: base.kind2, seq: base.seq, alts: []int{5, 4}},
	}
	for name, e := range changes {
		if build(e).ShapeKey() == key {
			t.Errorf("changing one %s kept the key", name)
		}
	}
}

// corpus decodes n seeded random byte strings into buildable processes.
// Short strings over few activities make structures repeat under
// different service names.
func corpus(seed int64, n int) []*process.Process {
	rng := rand.New(rand.NewSource(seed))
	var out []*process.Process
	for len(out) < n {
		data := make([]byte, 3+rng.Intn(10))
		rng.Read(data)
		data[0] %= 4 // 2..5 activities
		if p := decodeProcess(data); p != nil {
			out = append(out, p)
		}
	}
	return out
}

func TestShapeKeyEqualKeysEqualVerdicts(t *testing.T) {
	t.Parallel()
	verdicts := make(map[string]bool)
	repeats := 0
	for _, p := range corpus(1, 3000) {
		ok := process.ExploreTermination(p) == nil
		key := p.ShapeKey()
		if prev, seen := verdicts[key]; seen {
			repeats++
			if prev != ok {
				t.Fatalf("equal keys, verdicts %v and %v:\n%s", prev, ok, p)
			}
		}
		verdicts[key] = ok
	}
	if repeats < 1000 || len(verdicts) < 50 {
		t.Fatalf("corpus too uniform: %d shapes, %d repeats", len(verdicts), repeats)
	}
}

// TestCompletionOnlyReads walks random reachable states of random
// processes and checks that computing the completion C(P) changes
// nothing the instance exposes, so the explorer can ask it in place.
func TestCompletionOnlyReads(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	check := func(p *process.Process, in *process.Instance) {
		t.Helper()
		gen, snap := in.StatusGen(), in.Snapshot()
		in.Completion()
		if in.StatusGen() != gen || !maps.Equal(in.Snapshot(), snap) {
			t.Fatalf("Completion changed the instance of\n%s", p)
		}
	}
	for _, p := range corpus(2, 300) {
		for walk := 0; walk < 4; walk++ {
			in := process.NewInstance(p)
			for !in.Terminated() {
				check(p, in)
				if in.Done() && !in.Aborting() {
					break
				}
				if rng.Intn(8) == 0 {
					steps, err := in.Abort()
					if err != nil {
						break
					}
					for _, s := range steps {
						check(p, in)
						if in.ApplyStep(s) != nil {
							break
						}
					}
					in.MarkTerminated(false)
					break
				}
				frontier := in.Frontier()
				if len(frontier) == 0 {
					break
				}
				next := frontier[rng.Intn(len(frontier))]
				if p.Activity(next).Kind.GuaranteedToCommit() || rng.Intn(3) > 0 {
					if in.MarkCommitted(next) != nil {
						break
					}
					continue
				}
				plan, err := in.MarkFailed(next)
				if err != nil {
					break
				}
				for _, s := range plan.Steps {
					check(p, in)
					if in.ApplyStep(s) != nil {
						break
					}
				}
				if plan.Abort {
					in.MarkTerminated(false)
				}
			}
			check(p, in)
		}
	}
}
