package subsystem

import (
	"errors"
	"testing"

	"transproc/internal/activity"
)

func newSub(t *testing.T) *Subsystem {
	t.Helper()
	s := New("pdm", 1)
	s.MustRegister(activity.Spec{
		Name: "enter", Kind: activity.Compensatable, Subsystem: "pdm",
		Compensation: "remove", WriteSet: []string{"bom"},
	})
	s.MustRegister(activity.Spec{
		Name: "readBOM", Kind: activity.Retriable, Subsystem: "pdm",
		ReadSet: []string{"bom"},
	})
	s.MustRegister(activity.Spec{
		Name: "produce", Kind: activity.Pivot, Subsystem: "pdm",
		ReadSet: []string{"bom"}, WriteSet: []string{"parts"},
	})
	return s
}

func TestRegisterAutoCompensation(t *testing.T) {
	s := newSub(t)
	spec, ok := s.Lookup("remove")
	if !ok {
		t.Fatal("compensating service not auto-registered")
	}
	if spec.Kind != activity.Compensation {
		t.Fatalf("kind = %v", spec.Kind)
	}
	svcs := s.Services()
	if len(svcs) != 4 {
		t.Fatalf("services = %v", svcs)
	}
}

func TestRegisterErrors(t *testing.T) {
	s := newSub(t)
	if err := s.Register(activity.Spec{Name: "enter", Kind: activity.Retriable, Subsystem: "pdm"}); err == nil {
		t.Fatal("duplicate must fail")
	}
	if err := s.Register(activity.Spec{Name: "x", Kind: activity.Retriable, Subsystem: "other"}); err == nil {
		t.Fatal("wrong subsystem must fail")
	}
	if err := s.Register(activity.Spec{}); err == nil {
		t.Fatal("invalid spec must fail")
	}
	if err := s.Register(activity.Spec{
		Name: "e2", Kind: activity.Compensatable, Subsystem: "pdm", Compensation: "remove",
	}); err == nil {
		t.Fatal("clashing compensation name must fail")
	}
}

func TestInvokeAutoCommitAppliesEffects(t *testing.T) {
	s := newSub(t)
	res, err := s.Invoke("P1", "enter", AutoCommit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != activity.Committed {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if got := s.Get("bom"); got != 1 {
		t.Fatalf("bom = %d, want 1", got)
	}
	if j := s.Journal(); len(j) != 1 || j[0].Service != "enter" || j[0].Delta != 1 {
		t.Fatalf("journal = %v", j)
	}
}

func TestCompensationIsEffectFree(t *testing.T) {
	s := newSub(t)
	base := s.Snapshot()
	if _, err := s.Invoke("P1", "enter", AutoCommit); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke("P1", "remove", AutoCommit); err != nil {
		t.Fatal(err)
	}
	after := s.Snapshot()
	for k, v := range after {
		if base[k] != v {
			t.Fatalf("⟨a a⁻¹⟩ not effect-free: %s = %d", k, v)
		}
	}
}

func TestInvokeReadsReturnValues(t *testing.T) {
	s := newSub(t)
	s.Set("bom", 7)
	res, err := s.Invoke("P1", "readBOM", AutoCommit)
	if err != nil {
		t.Fatal(err)
	}
	// readBOM's read set is [bom]: its value comes first.
	if len(res.Reads) != 1 || res.Reads[0] != 7 {
		t.Fatalf("reads = %v", res.Reads)
	}
}

func TestInvokeUnknownService(t *testing.T) {
	s := newSub(t)
	if _, err := s.Invoke("P1", "nope", AutoCommit); err == nil {
		t.Fatal("unknown service must fail")
	}
}

func TestForceFailAborts(t *testing.T) {
	s := newSub(t)
	s.ForceFail("enter", 1)
	res, err := s.Invoke("P1", "enter", AutoCommit)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	if res.Outcome != activity.Aborted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if got := s.Get("bom"); got != 0 {
		t.Fatal("aborted transaction must leave no effects (atomicity)")
	}
	// Next invocation succeeds.
	if _, err := s.Invoke("P1", "enter", AutoCommit); err != nil {
		t.Fatal(err)
	}
}

func TestProbabilisticFailure(t *testing.T) {
	s := New("x", 42)
	s.MustRegister(activity.Spec{
		Name: "flaky", Kind: activity.Retriable, Subsystem: "x", FailureProb: 0.5,
	})
	aborted, committed := 0, 0
	for i := 0; i < 200; i++ {
		_, err := s.Invoke("P", "flaky", AutoCommit)
		if errors.Is(err, ErrAborted) {
			aborted++
		} else if err == nil {
			committed++
		} else {
			t.Fatal(err)
		}
	}
	if aborted < 50 || committed < 50 {
		t.Fatalf("failure injection skewed: %d aborted, %d committed", aborted, committed)
	}
	inv, ab, _ := s.Stats()
	if inv != 200 || ab != int64(aborted) {
		t.Fatalf("stats = %d, %d", inv, ab)
	}
}

func TestPreparedHoldsLocks(t *testing.T) {
	s := newSub(t)
	res, err := s.Invoke("P1", "produce", Prepare)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != activity.Prepared {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if got := s.Get("parts"); got != 0 {
		t.Fatal("prepared transaction must not be visible")
	}
	// Another process conflicts on "parts" (and on reading "bom"? produce
	// writes parts, reads bom; enter writes bom -> X(bom) vs S(bom)).
	if _, err := s.Invoke("P2", "produce", AutoCommit); !errors.Is(err, ErrLocked) {
		t.Fatalf("conflicting invocation should be lock-denied, got %v", err)
	}
	// enter writes bom; produce holds S(bom) -> denied.
	if _, err := s.Invoke("P2", "enter", AutoCommit); !errors.Is(err, ErrLocked) {
		t.Fatalf("write against read lock should be denied, got %v", err)
	}
	// Same process shares locks.
	if _, err := s.Invoke("P1", "readBOM", AutoCommit); err != nil {
		t.Fatalf("same-process invocation must not self-block: %v", err)
	}
	if len(s.InDoubt()) != 1 {
		t.Fatal("expected one in-doubt transaction")
	}
	if err := s.CommitPrepared(res.Tx); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("parts"); got != 1 {
		t.Fatal("commit must apply prepared writes")
	}
	if _, err := s.Invoke("P2", "enter", AutoCommit); err != nil {
		t.Fatalf("locks must be released after commit: %v", err)
	}
}

func TestAbortPreparedLeavesNoEffects(t *testing.T) {
	s := newSub(t)
	res, err := s.Invoke("P1", "produce", Prepare)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AbortPrepared(res.Tx); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("parts"); got != 0 {
		t.Fatal("aborted prepared transaction must leave no effects")
	}
	if _, err := s.Invoke("P2", "produce", AutoCommit); err != nil {
		t.Fatalf("locks must be released after abort: %v", err)
	}
	if err := s.AbortPrepared(res.Tx); err == nil {
		t.Fatal("double resolution must fail")
	}
	if err := s.CommitPrepared(9999); err == nil {
		t.Fatal("unknown transaction must fail")
	}
}

func TestReadersShareLocks(t *testing.T) {
	s := newSub(t)
	r1, err := s.Invoke("P1", "readBOM", Prepare)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke("P2", "readBOM", AutoCommit); err != nil {
		t.Fatalf("two readers must not conflict: %v", err)
	}
	if err := s.CommitPrepared(r1.Tx); err != nil {
		t.Fatal(err)
	}
}

func TestLockDenialStats(t *testing.T) {
	s := newSub(t)
	res, _ := s.Invoke("P1", "enter", Prepare)
	s.Invoke("P2", "enter", AutoCommit) // denied
	_, _, denials := s.Stats()
	if denials != 1 {
		t.Fatalf("denials = %d", denials)
	}
	s.AbortPrepared(res.Tx)
}

func TestFederationRoutingAndTables(t *testing.T) {
	f := NewFederation()
	pdm := newSub(t)
	bank := New("bank", 2)
	bank.MustRegister(activity.Spec{
		Name: "pay", Kind: activity.Pivot, Subsystem: "bank", WriteSet: []string{"acct"},
	})
	f.MustAdd(pdm)
	f.MustAdd(bank)

	if _, ok := f.Owner("pay"); !ok {
		t.Fatal("owner lookup failed")
	}
	if _, ok := f.Subsystem("pdm"); !ok {
		t.Fatal("subsystem lookup failed")
	}
	if got := len(f.Subsystems()); got != 2 {
		t.Fatalf("subsystems = %d", got)
	}
	if _, err := f.Invoke("P1", "pay", AutoCommit); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Invoke("P1", "ghost", AutoCommit); err == nil {
		t.Fatal("unknown service must fail")
	}
	reg, err := f.Registry()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 5 {
		t.Fatalf("registry len = %d", reg.Len())
	}
	tab, err := f.ConflictTable()
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Conflicts("enter", "readBOM") {
		t.Fatal("enter/readBOM share item bom and must conflict")
	}
	if !tab.Conflicts("remove", "readBOM") {
		t.Fatal("perfect commutativity must lift the conflict to the compensation")
	}
	if tab.Conflicts("pay", "enter") {
		t.Fatal("disjoint subsystems must commute")
	}
	snap := f.Snapshot()
	if snap["bank/acct"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestFederationDuplicates(t *testing.T) {
	f := NewFederation()
	f.MustAdd(New("a", 1))
	if err := f.Add(New("a", 2)); err == nil {
		t.Fatal("duplicate subsystem must fail")
	}
	b := New("b", 3)
	b.MustRegister(activity.Spec{Name: "svc", Kind: activity.Retriable, Subsystem: "b"})
	f.MustAdd(b)
	c := New("c", 4)
	c.MustRegister(activity.Spec{Name: "svc", Kind: activity.Retriable, Subsystem: "c"})
	if err := f.Add(c); err == nil {
		t.Fatal("duplicate service across subsystems must fail")
	}
}

func TestFederationInDoubt(t *testing.T) {
	f := NewFederation()
	pdm := newSub(t)
	f.MustAdd(pdm)
	res, err := f.Invoke("P1", "produce", Prepare)
	if err != nil {
		t.Fatal(err)
	}
	all := f.InDoubt()
	if len(all["pdm"]) != 1 || all["pdm"][0].Tx != res.Tx || all["pdm"][0].Proc != "P1" {
		t.Fatalf("in doubt = %v", all)
	}
	pdm.CommitPrepared(res.Tx)
	if len(f.InDoubt()) != 0 {
		t.Fatal("no in-doubt transactions expected")
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	run := func() []int {
		s := New("x", 99)
		s.MustRegister(activity.Spec{Name: "f", Kind: activity.Retriable, Subsystem: "x", FailureProb: 0.3})
		var outcomes []int
		for i := 0; i < 50; i++ {
			_, err := s.Invoke("P", "f", AutoCommit)
			if err != nil {
				outcomes = append(outcomes, 1)
			} else {
				outcomes = append(outcomes, 0)
			}
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce outcomes")
		}
	}
}
