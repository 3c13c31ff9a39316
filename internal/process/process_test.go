package process_test

import (
	"strings"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/paper"
	"transproc/internal/process"
)

func TestBuilderP1Structure(t *testing.T) {
	t.Parallel()
	p := paper.P1()
	if p.Len() != 6 {
		t.Fatalf("P1 has %d activities, want 6", p.Len())
	}
	if got := p.Roots(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("roots = %v, want [1]", got)
	}
	if !p.Before(1, 2) || !p.Before(2, 6) || !p.Before(3, 4) {
		t.Error("precedence reachability wrong")
	}
	if p.Before(3, 5) || p.Before(4, 5) {
		t.Error("alternatives are not ordered by ≪ with the preferred branch")
	}
	if p.Before(2, 1) {
		t.Error("≪ must be antisymmetric")
	}
	chains := p.Chains(2)
	if len(chains) != 1 || len(chains[0]) != 2 || chains[0][0] != 3 || chains[0][1] != 5 {
		t.Fatalf("chains(2) = %v, want [[3 5]]", chains)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name  string
		build func() (*process.Process, error)
		want  string
	}{
		{"empty", func() (*process.Process, error) {
			return process.NewBuilder("P").Build()
		}, "no activities"},
		{"duplicate id", func() (*process.Process, error) {
			return process.NewBuilder("P").
				Add(1, "a", activity.Retriable).
				Add(1, "b", activity.Retriable).Build()
		}, "duplicate local id"},
		{"nonpositive id", func() (*process.Process, error) {
			return process.NewBuilder("P").Add(0, "a", activity.Retriable).Build()
		}, "must be positive"},
		{"empty service", func() (*process.Process, error) {
			return process.NewBuilder("P").Add(1, "", activity.Retriable).Build()
		}, "empty service"},
		{"direct compensation", func() (*process.Process, error) {
			return process.NewBuilder("P").Add(1, "a", activity.Compensation).Build()
		}, "cannot be declared directly"},
		{"compensation on pivot", func() (*process.Process, error) {
			return process.NewBuilder("P").AddComp(1, "a", activity.Pivot, "undo").Build()
		}, "cannot have a compensation"},
		{"edge to undeclared", func() (*process.Process, error) {
			return process.NewBuilder("P").Add(1, "a", activity.Retriable).Seq(1, 2).Build()
		}, "undeclared"},
		{"edge from undeclared", func() (*process.Process, error) {
			return process.NewBuilder("P").Add(1, "a", activity.Retriable).Seq(2, 1).Build()
		}, "undeclared"},
		{"self edge", func() (*process.Process, error) {
			return process.NewBuilder("P").Add(1, "a", activity.Retriable).Seq(1, 1).Build()
		}, "self edge"},
		{"duplicate edge", func() (*process.Process, error) {
			return process.NewBuilder("P").
				Add(1, "a", activity.Retriable).Add(2, "b", activity.Retriable).
				Seq(1, 2).Seq(1, 2).Build()
		}, "duplicate edge"},
		{"cycle", func() (*process.Process, error) {
			return process.NewBuilder("P").
				Add(1, "a", activity.Retriable).Add(2, "b", activity.Retriable).
				Seq(1, 2).Seq(2, 1).Build()
		}, "cycle"},
		{"empty chain", func() (*process.Process, error) {
			return process.NewBuilder("P").Add(1, "a", activity.Retriable).Chain(1).Build()
		}, "empty chain"},
		{"node twice in chain", func() (*process.Process, error) {
			return process.NewBuilder("P").
				Add(1, "a", activity.Retriable).Add(2, "b", activity.Retriable).
				Chain(1, 2, 2).Build()
		}, "duplicate edge"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.build()
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

// TestBuildErrorDeterministic builds definitions with two defects of
// one kind each: Build must report the same one every time, because
// serve returns its text as the body of a 400.
func TestBuildErrorDeterministic(t *testing.T) {
	t.Parallel()
	fixtures := map[string]func() *process.Builder{
		// Chains from two undeclared activities.
		"undeclared sources": func() *process.Builder {
			return process.NewBuilder("P").
				Add(1, "a", activity.Compensatable).
				Add(2, "b", activity.Retriable).
				Seq(9, 2).
				Seq(7, 1)
		},
		// Two alternative branch heads, 3 and 6, each entered from outside.
		"external heads": func() *process.Builder {
			return process.NewBuilder("P").
				Add(1, "a", activity.Compensatable).
				Add(2, "b", activity.Compensatable).
				Add(3, "c", activity.Retriable).
				Add(4, "d", activity.Compensatable).
				Add(5, "e", activity.Compensatable).
				Add(6, "f", activity.Retriable).
				Chain(4, 5, 6).
				Chain(1, 2, 3).
				Seq(4, 3).
				Seq(1, 6)
		},
	}
	for name, build := range fixtures {
		texts := make(map[string]int)
		for i := 0; i < 100; i++ {
			if _, err := build().Build(); err != nil {
				texts[err.Error()]++
			} else {
				t.Fatalf("%s: built", name)
			}
		}
		if len(texts) != 1 {
			t.Errorf("%s: %d error texts over 100 builds: %v", name, len(texts), texts)
		}
	}
}

// TestBuildAllocations pins what constructing and building a small
// definition allocates: a definition is slices by position and one
// closure bitset, with no map.
func TestBuildAllocations(t *testing.T) {
	build := func() {
		process.NewBuilder("P").
			Add(1, "c1", activity.Compensatable).
			Add(2, "c2", activity.Compensatable).
			Add(3, "p3", activity.Pivot).
			Add(4, "c4", activity.Compensatable).
			Add(5, "p5", activity.Pivot).
			Add(6, "r6", activity.Retriable).
			Add(7, "r7", activity.Retriable).
			Add(8, "r8", activity.Retriable).
			Seq(1, 2).
			Seq(2, 3).
			Chain(3, 4, 6).
			Seq(4, 5).
			Seq(6, 7).
			Seq(7, 8).
			MustBuild()
	}
	if n := testing.AllocsPerRun(100, build); n > 60 {
		t.Fatalf("constructing and building an 8-activity definition allocates %v times, want at most 60", n)
	}
}

func TestBuilderExternalPredecessorIntoAlternative(t *testing.T) {
	t.Parallel()
	// A node inside an alternative branch must not be entered from
	// outside the branch.
	_, err := process.NewBuilder("P").
		Add(1, "a", activity.Compensatable).
		Add(2, "b", activity.Compensatable).
		Add(3, "c", activity.Retriable).
		Add(4, "d", activity.Retriable).
		Chain(1, 2, 3). // 2 preferred, 3 alternative
		Seq(3, 4).
		Seq(2, 4). // external edge into the alternative's subtree
		Build()
	if err == nil || !strings.Contains(err.Error(), "external predecessor") {
		t.Fatalf("expected external-predecessor error, got %v", err)
	}
}

func TestStateDetermining(t *testing.T) {
	t.Parallel()
	p1 := paper.P1()
	s, ok := p1.StateDetermining()
	if !ok || s != 2 {
		t.Fatalf("s_{1_0} = %d, %v; want 2 (the pivot a12, Example 2)", s, ok)
	}
	allComp := process.NewBuilder("PC").
		Add(1, "x", activity.Compensatable).
		Add(2, "y", activity.Compensatable).
		Seq(1, 2).MustBuild()
	if _, ok := allComp.StateDetermining(); ok {
		t.Fatal("all-compensatable process has no state-determining activity")
	}
	allRet := process.NewBuilder("PR").
		Add(1, "x", activity.Retriable).MustBuild()
	if s, ok := allRet.StateDetermining(); !ok || s != 1 {
		t.Fatal("first retriable is the state-determining activity")
	}
}

func TestSubtree(t *testing.T) {
	t.Parallel()
	p := paper.P1()
	got := p.Subtree(3)
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("Subtree(3) = %v, want [3 4]", got)
	}
	got = p.Subtree(2)
	if len(got) != 5 { // 2,3,4,5,6
		t.Fatalf("Subtree(2) = %v", got)
	}
}

func TestServices(t *testing.T) {
	t.Parallel()
	p := paper.P2()
	got := p.Services()
	want := []string{"a21", "a22", "a23", "a24", "a25"}
	if len(got) != len(want) {
		t.Fatalf("Services = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Services = %v, want %v", got, want)
		}
	}
}

func TestProcessString(t *testing.T) {
	t.Parallel()
	s := paper.P3().String()
	for _, frag := range []string{"P3", "a_1^c(a31)", "a_2^p(a32)", "a_3^r(a33)"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestDefaultCompensationName(t *testing.T) {
	t.Parallel()
	if got := process.DefaultCompensationName("x"); got != "x⁻¹" {
		t.Fatalf("DefaultCompensationName = %q", got)
	}
	p := paper.P1()
	if p.Activity(1).Compensation != "a11⁻¹" {
		t.Fatalf("a11 compensation = %q", p.Activity(1).Compensation)
	}
	if p.Activity(2).Compensation != "" {
		t.Fatal("pivot must not have a compensation")
	}
}

// --- Instance: happy path -------------------------------------------------

func TestInstanceHappyPath(t *testing.T) {
	t.Parallel()
	p := paper.P1()
	in := process.NewInstance(p)
	if in.Mode() != process.BREC {
		t.Fatal("fresh process is B-REC")
	}
	steps := []int{1, 2, 3, 4}
	for _, want := range steps {
		f := in.Frontier()
		if len(f) != 1 || f[0] != want {
			t.Fatalf("frontier = %v, want [%d]", f, want)
		}
		if err := in.MarkCommitted(want); err != nil {
			t.Fatal(err)
		}
	}
	if in.Mode() != process.FREC {
		t.Fatal("after committing the pivot the process is F-REC")
	}
	if !in.Done() {
		t.Fatal("P1 preferred path a11 a12 a13 a14 is complete")
	}
	if len(in.Frontier()) != 0 {
		t.Fatal("done process has empty frontier")
	}
	in.MarkTerminated(true)
	if !in.Terminated() || !in.CommittedOutcome() {
		t.Fatal("terminated state wrong")
	}
}

func TestInstanceModeSwitchOnPivot(t *testing.T) {
	t.Parallel()
	p := paper.P2()
	in := process.NewInstance(p)
	in.MarkCommitted(1)
	in.MarkCommitted(2)
	if in.Mode() != process.BREC {
		t.Fatal("still B-REC before the pivot commits")
	}
	in.MarkCommitted(3)
	if in.Mode() != process.FREC {
		t.Fatal("F-REC after s_{2_0} = a23 committed")
	}
}

func TestPreparedDefersSuccessors(t *testing.T) {
	t.Parallel()
	p := paper.P2()
	in := process.NewInstance(p)
	in.MarkCommitted(1)
	in.MarkCommitted(2)
	if err := in.MarkPrepared(3); err != nil {
		t.Fatal(err)
	}
	if in.Mode() != process.BREC {
		t.Fatal("a prepared (not committed) pivot keeps the process B-REC")
	}
	// A prepared pivot does not enable its successors: it may still be
	// rolled back, and rolled-back activities must never have committed
	// successors.
	if f := in.Frontier(); len(f) != 0 {
		t.Fatalf("frontier after prepared pivot = %v, want empty", f)
	}
	if in.Done() {
		t.Fatal("process with pending successors is not done")
	}
	if got := in.PreparedSet(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("PreparedSet = %v", got)
	}
	if err := in.MarkCommitted(3); err != nil {
		t.Fatal(err)
	}
	if in.Mode() != process.FREC {
		t.Fatal("2PC commit of the pivot moves the process to F-REC")
	}
	if f := in.Frontier(); len(f) != 1 || f[0] != 4 {
		t.Fatalf("frontier after 2PC commit = %v, want [4]", f)
	}
}

// --- Instance: failures and alternatives (Figure 2 semantics) -------------

func TestFailureOfA13SwitchesToAlternative(t *testing.T) {
	t.Parallel()
	p := paper.P1()
	in := process.NewInstance(p)
	in.MarkCommitted(1)
	in.MarkCommitted(2)
	plan, err := in.MarkFailed(3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Abort || plan.NextAlt != 5 || len(plan.Steps) != 0 {
		t.Fatalf("plan = %+v, want switch to a15 with no compensations", plan)
	}
	f := in.Frontier()
	if len(f) != 1 || f[0] != 5 {
		t.Fatalf("frontier = %v, want [5]", f)
	}
	in.MarkCommitted(5)
	in.MarkCommitted(6)
	if !in.Done() {
		t.Fatal("alternative path complete")
	}
	if in.Status(4) != process.Abandoned {
		t.Fatalf("a14 should be abandoned, is %v", in.Status(4))
	}
}

func TestFailureOfA14CompensatesA13(t *testing.T) {
	t.Parallel()
	p := paper.P1()
	in := process.NewInstance(p)
	for _, a := range []int{1, 2, 3} {
		in.MarkCommitted(a)
	}
	plan, err := in.MarkFailed(4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Abort || plan.NextAlt != 5 {
		t.Fatalf("plan = %+v", plan)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Kind != process.StepCompensate || plan.Steps[0].Local != 3 {
		t.Fatalf("steps = %v, want compensate a13", plan.Steps)
	}
	if plan.Steps[0].Service != "a13⁻¹" {
		t.Fatalf("compensation service = %q", plan.Steps[0].Service)
	}
	// The alternative must not be executable before the compensation is
	// applied (Section 3.1).
	if f := in.Frontier(); len(f) != 0 {
		t.Fatalf("frontier before compensation applied = %v, want empty", f)
	}
	if err := in.ApplyStep(plan.Steps[0]); err != nil {
		t.Fatal(err)
	}
	if f := in.Frontier(); len(f) != 1 || f[0] != 5 {
		t.Fatalf("frontier after compensation = %v, want [5]", f)
	}
	if in.Status(3) != process.Compensated {
		t.Fatal("a13 should be compensated")
	}
}

func TestFailureOfPivotA12Aborts(t *testing.T) {
	t.Parallel()
	p := paper.P1()
	in := process.NewInstance(p)
	in.MarkCommitted(1)
	plan, err := in.MarkFailed(2)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Abort {
		t.Fatal("failure of the state-determining pivot in B-REC aborts the process")
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Local != 1 || plan.Steps[0].Kind != process.StepCompensate {
		t.Fatalf("steps = %v, want compensate a11", plan.Steps)
	}
	if !in.Aborting() {
		t.Fatal("instance must be aborting")
	}
	if err := in.ApplyStep(plan.Steps[0]); err != nil {
		t.Fatal(err)
	}
	in.MarkTerminated(false)
	if in.CommittedOutcome() {
		t.Fatal("aborted process has no committed outcome")
	}
}

func TestFailureOfA11AbortsEmpty(t *testing.T) {
	t.Parallel()
	p := paper.P1()
	in := process.NewInstance(p)
	plan, err := in.MarkFailed(1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Abort || len(plan.Steps) != 0 {
		t.Fatalf("plan = %+v, want empty abort", plan)
	}
}

func TestRetriableCannotFail(t *testing.T) {
	t.Parallel()
	p := paper.P1()
	in := process.NewInstance(p)
	in.MarkCommitted(1)
	in.MarkCommitted(2)
	in.MarkFailed(3)
	in.MarkCommitted(5)
	if _, err := in.MarkFailed(6); err == nil {
		t.Fatal("retriable activities cannot fail permanently (Definition 3)")
	}
}

func TestCompensationsReverseOrder(t *testing.T) {
	t.Parallel()
	// Linear chain of three compensatables then a pivot; pivot failure
	// aborts, compensations must be in reverse order (Lemma 2,
	// intra-process part).
	p := process.NewBuilder("P").
		Add(1, "x", activity.Compensatable).
		Add(2, "y", activity.Compensatable).
		Add(3, "z", activity.Compensatable).
		Add(4, "w", activity.Pivot).
		Seq(1, 2).Seq(2, 3).Seq(3, 4).MustBuild()
	in := process.NewInstance(p)
	for _, a := range []int{1, 2, 3} {
		in.MarkCommitted(a)
	}
	plan, err := in.MarkFailed(4)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Abort || len(plan.Steps) != 3 {
		t.Fatalf("plan = %+v", plan)
	}
	for i, want := range []int{3, 2, 1} {
		if plan.Steps[i].Local != want {
			t.Fatalf("compensation order = %v, want reverse [3 2 1]", plan.Steps)
		}
	}
}

func TestFailedPreparedRollbackInAbandonedBranch(t *testing.T) {
	t.Parallel()
	// a1^c ≪ (a2^c preferred | a4^r alt), a2 ≪ a3^p; prepare a3, then
	// fail... a3 is prepared so cannot fail; instead fail nothing —
	// test the rollback path by failing a2's sibling scenario: build
	// chain where preferred branch holds a prepared pivot and a later
	// compensatable fails.
	p := process.NewBuilder("P").
		Add(1, "a1", activity.Compensatable).
		Add(2, "a2", activity.Pivot).
		Add(3, "a3", activity.Compensatable).
		Add(5, "a5", activity.Retriable).
		Seq(1, 2).
		Chain(2, 3, 5).
		MustBuild()
	in := process.NewInstance(p)
	in.MarkCommitted(1)
	in.MarkCommitted(2) // F-REC
	// Prefer branch a3; it fails -> switch to a5; nothing to compensate.
	plan, err := in.MarkFailed(3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Abort || plan.NextAlt != 5 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestCommittedPivotPinsBranch(t *testing.T) {
	t.Parallel()
	// Preferred branch contains a committed pivot; a later compensatable
	// in the same branch fails; the branch cannot be abandoned, and
	// since the process is F-REC with no deeper alternative this is a
	// guaranteed-termination violation the instance must surface.
	p := process.NewBuilder("P").
		Add(1, "s", activity.Compensatable).
		Add(2, "p1", activity.Pivot).
		Add(3, "c1", activity.Compensatable).
		Add(4, "r1", activity.Retriable).
		Seq(1, 2).
		Chain(2, 3, 4). // alternative exists at the pivot
		MustBuild()
	// Now nest: inside branch 3, a pivot commits and then a compensatable fails.
	p2 := process.NewBuilder("Q").
		Add(1, "s", activity.Compensatable).
		Add(2, "p1", activity.Pivot).
		Add(3, "p2", activity.Pivot).
		Add(4, "c2", activity.Compensatable).
		Add(5, "r1", activity.Retriable).
		Seq(1, 2).
		Chain(2, 3, 5). // branch head 3 (contains pivot p2), alternative r1
		Seq(3, 4).
		MustBuild()
	in := process.NewInstance(p2)
	in.MarkCommitted(1)
	in.MarkCommitted(2)
	in.MarkCommitted(3) // pivot inside branch commits: branch pinned
	if _, err := in.MarkFailed(4); err == nil {
		t.Fatal("failing past a committed pivot with no deeper alternative must be reported")
	}
	_ = p
}

func TestPreparedBranchCanBeAbandoned(t *testing.T) {
	t.Parallel()
	// Same shape as above but the inner pivot is only prepared: the
	// branch is not pinned, so the alternative is taken and the
	// prepared pivot rolled back.
	p := process.NewBuilder("Q").
		Add(1, "s", activity.Compensatable).
		Add(2, "p1", activity.Pivot).
		Add(3, "p2", activity.Pivot).
		Add(4, "c2", activity.Compensatable).
		Add(5, "r1", activity.Retriable).
		Seq(1, 2).
		Chain(2, 3, 5).
		Seq(3, 4).
		MustBuild()
	in := process.NewInstance(p)
	in.MarkCommitted(1)
	in.MarkCommitted(2)
	in.MarkPrepared(3)
	plan, err := in.MarkFailed(4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Abort || plan.NextAlt != 5 {
		t.Fatalf("plan = %+v", plan)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Kind != process.StepAbortPrepared || plan.Steps[0].Local != 3 {
		t.Fatalf("steps = %v, want abort-prepared a3", plan.Steps)
	}
	if in.Status(3) != process.AbortedPrepared {
		t.Fatalf("status(3) = %v", in.Status(3))
	}
}

// --- Completion C(P): Example 2 -------------------------------------------

func TestExample2CompletionBREC(t *testing.T) {
	t.Parallel()
	p := paper.P1()
	in := process.NewInstance(p)
	in.MarkCommitted(1) // a11 executed correctly, pivot not yet
	steps, err := in.Completion()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || steps[0].Kind != process.StepCompensate || steps[0].Local != 1 {
		t.Fatalf("C(P1) in B-REC = %v, want {a11⁻¹} (Example 2)", steps)
	}
}

func TestExample2CompletionFREC(t *testing.T) {
	t.Parallel()
	p := paper.P1()
	in := process.NewInstance(p)
	for _, a := range []int{1, 2, 3} {
		in.MarkCommitted(a)
	}
	steps, err := in.Completion()
	if err != nil {
		t.Fatal(err)
	}
	// C(P1) = {a13⁻¹ ≪ a15 ≪ a16} (Example 2).
	if len(steps) != 3 {
		t.Fatalf("C(P1) = %v, want 3 steps", steps)
	}
	if steps[0].Kind != process.StepCompensate || steps[0].Local != 3 {
		t.Fatalf("first step = %v, want compensate a13", steps[0])
	}
	if steps[1].Kind != process.StepInvoke || steps[1].Local != 5 {
		t.Fatalf("second step = %v, want invoke a15", steps[1])
	}
	if steps[2].Kind != process.StepInvoke || steps[2].Local != 6 {
		t.Fatalf("third step = %v, want invoke a16", steps[2])
	}
}

func TestCompletionAfterPivotOnlyForwardPath(t *testing.T) {
	t.Parallel()
	p := paper.P2()
	in := process.NewInstance(p)
	for _, a := range []int{1, 2, 3} {
		in.MarkCommitted(a)
	}
	steps, err := in.Completion()
	if err != nil {
		t.Fatal(err)
	}
	// Forward recovery: finish a24, a25; nothing to compensate (a21,
	// a22 precede the committed pivot).
	if len(steps) != 2 || steps[0].Local != 4 || steps[1].Local != 5 {
		t.Fatalf("C(P2) = %v, want invoke a24, a25", steps)
	}
	for _, s := range steps {
		if s.Kind != process.StepInvoke {
			t.Fatalf("step %v should be invoke", s)
		}
	}
}

func TestCompletionFullPathEmpty(t *testing.T) {
	t.Parallel()
	p := paper.P2()
	in := process.NewInstance(p)
	for a := 1; a <= 5; a++ {
		in.MarkCommitted(a)
	}
	steps, err := in.Completion()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 0 {
		t.Fatalf("completion of a finished process = %v, want empty", steps)
	}
}

func TestCompletionWithPreparedPivot(t *testing.T) {
	t.Parallel()
	p := paper.P2()
	in := process.NewInstance(p)
	in.MarkCommitted(1)
	in.MarkCommitted(2)
	in.MarkPrepared(3)
	steps, err := in.Completion()
	if err != nil {
		t.Fatal(err)
	}
	// B-REC (pivot only prepared): roll back the prepared pivot, then
	// compensate a22, a21 in reverse order.
	if len(steps) != 3 {
		t.Fatalf("steps = %v", steps)
	}
	if steps[0].Kind != process.StepAbortPrepared || steps[0].Local != 3 {
		t.Fatalf("first step = %v, want abort-prepared a23", steps[0])
	}
	if steps[1].Local != 2 || steps[2].Local != 1 {
		t.Fatalf("compensations = %v, want a22⁻¹ then a21⁻¹", steps[1:])
	}
}

func TestAbortMarksTerminalAndCompletionEmptyAfter(t *testing.T) {
	t.Parallel()
	p := paper.P2()
	in := process.NewInstance(p)
	in.MarkCommitted(1)
	steps, err := in.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || steps[0].Local != 1 {
		t.Fatalf("abort steps = %v", steps)
	}
	if !in.Aborting() {
		t.Fatal("instance should be aborting")
	}
	for _, s := range steps {
		if err := in.ApplyStep(s); err != nil {
			t.Fatal(err)
		}
	}
	in.MarkTerminated(false)
	if steps, _ := in.Completion(); len(steps) != 0 {
		t.Fatal("terminated process has empty completion")
	}
	if _, err := in.Abort(); err == nil {
		t.Fatal("double abort must fail")
	}
}

func TestInstanceTransitionErrors(t *testing.T) {
	t.Parallel()
	p := paper.P2()
	in := process.NewInstance(p)
	if err := in.MarkCommitted(99); err == nil {
		t.Fatal("unknown activity must error")
	}
	if err := in.MarkCompensated(1); err == nil {
		t.Fatal("compensating a pending activity must error")
	}
	in.MarkCommitted(1)
	if err := in.MarkCommitted(1); err == nil {
		t.Fatal("double commit must error")
	}
	if err := in.MarkPrepared(1); err == nil {
		t.Fatal("preparing a committed activity must error")
	}
	if err := in.MarkAbortedPrepared(1); err == nil {
		t.Fatal("rolling back a committed activity must error")
	}
	if _, err := in.MarkFailed(99); err == nil {
		t.Fatal("failing unknown activity must error")
	}
	if _, err := in.MarkFailed(1); err == nil {
		t.Fatal("failing a committed activity must error")
	}
}

func TestSnapshotIndependent(t *testing.T) {
	t.Parallel()
	in := process.NewInstance(paper.P2())
	snap := in.Snapshot()
	snap[1] = process.Committed
	if in.Status(1) != process.Pending {
		t.Fatal("snapshot must be a copy")
	}
}

func TestCloneIndependent(t *testing.T) {
	t.Parallel()
	in := process.NewInstance(paper.P1())
	in.MarkCommitted(1)
	cp := in.Clone()
	cp.MarkCommitted(2)
	if in.Status(2) != process.Pending {
		t.Fatal("clone is not independent")
	}
	if cp.Status(1) != process.Committed {
		t.Fatal("clone lost state")
	}
}

func TestParallelBranchesFrontier(t *testing.T) {
	t.Parallel()
	// Two parallel chains from a root; both heads in the frontier.
	p := process.NewBuilder("PAR").
		Add(1, "root", activity.Compensatable).
		Add(2, "left", activity.Compensatable).
		Add(3, "right", activity.Compensatable).
		Add(4, "join", activity.Pivot).
		Seq(1, 2).Seq(1, 3).
		Seq(2, 4).Seq(3, 4).
		MustBuild()
	in := process.NewInstance(p)
	in.MarkCommitted(1)
	f := in.Frontier()
	if len(f) != 2 || f[0] != 2 || f[1] != 3 {
		t.Fatalf("frontier = %v, want [2 3]", f)
	}
	in.MarkCommitted(2)
	if f := in.Frontier(); len(f) != 1 || f[0] != 3 {
		t.Fatalf("frontier = %v, want [3] (join waits for both)", f)
	}
	in.MarkCommitted(3)
	if f := in.Frontier(); len(f) != 1 || f[0] != 4 {
		t.Fatalf("frontier = %v, want [4]", f)
	}
}

func TestParallelBranchFailureAbortsWhole(t *testing.T) {
	t.Parallel()
	p := process.NewBuilder("PAR").
		Add(1, "root", activity.Compensatable).
		Add(2, "left", activity.Compensatable).
		Add(3, "right", activity.Compensatable).
		Seq(1, 2).Seq(1, 3).
		MustBuild()
	in := process.NewInstance(p)
	in.MarkCommitted(1)
	in.MarkCommitted(2)
	plan, err := in.MarkFailed(3)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Abort {
		t.Fatal("no alternatives: process aborts")
	}
	if len(plan.Steps) != 2 || plan.Steps[0].Local != 2 || plan.Steps[1].Local != 1 {
		t.Fatalf("compensations = %v, want [2 1] (reverse order)", plan.Steps)
	}
}
