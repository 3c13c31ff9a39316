package twopc

import (
	"testing"

	"transproc/internal/activity"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

func setup(t *testing.T) (*subsystem.Federation, *subsystem.Subsystem, *subsystem.Subsystem) {
	t.Helper()
	a := subsystem.New("a", 1)
	a.MustRegister(activity.Spec{Name: "pa", Kind: activity.Pivot, Subsystem: "a", WriteSet: []string{"x"}})
	b := subsystem.New("b", 2)
	b.MustRegister(activity.Spec{Name: "rb", Kind: activity.Retriable, Subsystem: "b", WriteSet: []string{"y"}})
	fed := subsystem.NewFederation()
	fed.MustAdd(a)
	fed.MustAdd(b)
	return fed, a, b
}

func prepareBoth(t *testing.T, a, b *subsystem.Subsystem) []Participant {
	t.Helper()
	ra, err := a.Invoke("P1", "pa", subsystem.Prepare)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Invoke("P1", "rb", subsystem.Prepare)
	if err != nil {
		t.Fatal(err)
	}
	return []Participant{
		{Sub: a, Tx: ra.Tx, Proc: "P1", Local: 2, Service: "pa"},
		{Sub: b, Tx: rb.Tx, Proc: "P1", Local: 3, Service: "rb"},
	}
}

func TestCommitAll(t *testing.T) {
	_, a, b := setup(t)
	log := wal.NewMemLog()
	c := New(log.Append)
	parts := prepareBoth(t, a, b)
	if err := c.CommitAll("P1", parts); err != nil {
		t.Fatal(err)
	}
	if a.Get("x") != 1 || b.Get("y") != 1 {
		t.Fatal("both participants must be committed")
	}
	recs, _ := log.Records()
	if len(recs) != 3 { // decision + 2 resolutions
		t.Fatalf("log = %v", recs)
	}
	if recs[0].Type != wal.RecDecision {
		t.Fatal("decision must be logged before resolutions")
	}
}

func TestCommitAllEmpty(t *testing.T) {
	log := wal.NewMemLog()
	if err := New(log.Append).CommitAll("P1", nil); err != nil {
		t.Fatal(err)
	}
	if recs, _ := log.Records(); len(recs) != 0 {
		t.Fatal("no decision for empty participant set")
	}
}

// crashAt runs CommitAll with a crash at the named point, as a fault plan
// arms it: Inject panics with the point's name, and the test fails
// unless that is what stopped CommitAll.
func crashAt(t *testing.T, c *Coordinator, point string, parts []Participant) {
	t.Helper()
	c.Inject = func(p string) {
		if p == point {
			panic(p)
		}
	}
	defer func() {
		if r := recover(); r != point {
			t.Fatalf("CommitAll did not crash at %s (recovered %v)", point, r)
		}
	}()
	c.CommitAll("P1", parts)
}

func TestCrashAfterDecisionThenResolve(t *testing.T) {
	fed, a, b := setup(t)
	log := wal.NewMemLog()
	c := New(log.Append)
	parts := prepareBoth(t, a, b)
	// Record the prepared outcomes like the scheduler would.
	for _, p := range parts {
		log.Append(wal.Record{
			Type: wal.RecOutcome, Proc: "P1", Local: p.Local,
			Service: p.Service, Subsystem: p.Sub.Name(), Tx: int64(p.Tx), Outcome: "prepared",
		})
	}
	crashAt(t, c, "twopc:after-decision", parts)
	if a.Get("x") != 0 {
		t.Fatal("nothing committed before crash")
	}
	// Recovery: presumed commit because the decision is durable.
	recs, _ := log.Records()
	images, err := wal.Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	c2 := New(log.Append)
	resolved, err := c2.Resolve(fed, images["P1"])
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 2 || !resolved[0].Commit || !resolved[1].Commit {
		t.Fatalf("resolve = %+v, want 2 commits", resolved)
	}
	if a.Get("x") != 1 || b.Get("y") != 1 {
		t.Fatal("recovery must finish the commit")
	}
}

func TestCrashAfterFirstResolve(t *testing.T) {
	fed, a, b := setup(t)
	log := wal.NewMemLog()
	c := New(log.Append)
	parts := prepareBoth(t, a, b)
	for _, p := range parts {
		log.Append(wal.Record{
			Type: wal.RecOutcome, Proc: "P1", Local: p.Local,
			Service: p.Service, Subsystem: p.Sub.Name(), Tx: int64(p.Tx), Outcome: "prepared",
		})
	}
	crashAt(t, c, "twopc:mid-resolve", parts)
	recs, _ := log.Records()
	images, _ := wal.Analyze(recs)
	resolved, err := New(log.Append).Resolve(fed, images["P1"])
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 1 || !resolved[0].Commit {
		t.Fatalf("exactly the unresolved participant must be committed, got %+v", resolved)
	}
	if a.Get("x") != 1 || b.Get("y") != 1 {
		t.Fatal("idempotent completion failed")
	}
}

func TestResolvePresumedAbort(t *testing.T) {
	fed, a, b := setup(t)
	log := wal.NewMemLog()
	parts := prepareBoth(t, a, b)
	for _, p := range parts {
		log.Append(wal.Record{
			Type: wal.RecOutcome, Proc: "P1", Local: p.Local,
			Service: p.Service, Subsystem: p.Sub.Name(), Tx: int64(p.Tx), Outcome: "prepared",
		})
	}
	// No decision logged: crash before the decision → presumed abort.
	recs, _ := log.Records()
	images, _ := wal.Analyze(recs)
	resolved, err := New(log.Append).Resolve(fed, images["P1"])
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 2 || resolved[0].Commit || resolved[1].Commit {
		t.Fatalf("resolve = %+v, want 2 rollbacks", resolved)
	}
	if a.Get("x") != 0 || b.Get("y") != 0 {
		t.Fatal("presumed abort must leave no effects")
	}
}
