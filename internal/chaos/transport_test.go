package chaos

import (
	"errors"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
)

// testFed builds a one-subsystem federation with a retriable and a
// pivot service.
func testFed(seed int64) *subsystem.Federation {
	fed := subsystem.NewFederation()
	s := subsystem.New("s1", seed)
	s.MustRegister(activity.Spec{
		Name: "r1", Kind: activity.Retriable, Subsystem: "s1", WriteSet: []string{"x"}, Cost: 1,
	})
	s.MustRegister(activity.Spec{
		Name: "p1", Kind: activity.Pivot, Subsystem: "s1", WriteSet: []string{"y"}, Cost: 1,
	})
	fed.MustAdd(s)
	return fed
}

// runOne runs a one-activity process on the sequential engine behind
// the transport and returns its outcome and the engine's metrics.
func runOne(t *testing.T, fed *subsystem.Federation, tr *Transport, service string, kind activity.Kind) (*scheduler.Outcome, scheduler.Metrics) {
	t.Helper()
	eng, err := scheduler.New(fed, scheduler.Config{Mode: scheduler.PRED, Resilience: tr})
	if err != nil {
		t.Fatal(err)
	}
	p := process.NewBuilder("P1").Add(1, service, kind).MustBuild()
	res, err := eng.RunJobs([]scheduler.Job{{Proc: p}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Outcomes["P1"], res.Metrics
}

// TestTypedRetryThroughOutage: a retriable activity rides out a
// two-attempt outage because the driver re-invokes it; the transport
// makes one attempt per invocation and retries nothing itself.
func TestTypedRetryThroughOutage(t *testing.T) {
	fed := testFed(1)
	tr := NewTransport(fed, Plan{Seed: 5, Outages: []Outage{{Subsystem: "s1", From: 0, To: 2}}}, nil)

	o, m := runOne(t, fed, tr, "r1", activity.Retriable)
	if o == nil || !o.Committed {
		t.Fatalf("retriable activity did not commit through a finite outage: %+v", o)
	}
	if m.Retries != 2 {
		t.Fatalf("driver retries %d, want 2 (outage swallowed attempts 0 and 1)", m.Retries)
	}
	if ts := tr.Stats(); ts.OutageHits != 2 || ts.Delivered != 1 || ts.Attempts != 3 {
		t.Fatalf("transport stats %+v, want 3 attempts: 2 outage hits and 1 delivery", ts)
	}
}

// TestNonRetriableSurfacesImmediately: a transport failure surfaces
// after one attempt as a typed error naming the subsystem and service,
// and a failed pivot is not re-invoked: the driver takes its failure
// path (◁ alternatives or backward recovery).
func TestNonRetriableSurfacesImmediately(t *testing.T) {
	fed := testFed(1)
	outage := Plan{Seed: 5, Outages: []Outage{{Subsystem: "s1", From: 0, To: 2}}}
	tr := NewTransport(fed, outage, nil)

	res, _, err := tr.InvokeResilient("P1", "p1", subsystem.Prepare, "k1")
	if res != nil || !subsystem.IsInvocationFailure(err) {
		t.Fatalf("want surfaced invocation failure, got res=%v err=%v", res, err)
	}
	if ts := tr.Stats(); ts.Attempts != 1 {
		t.Fatalf("transport made %d attempts in one call, want 1", ts.Attempts)
	}
	var se *subsystem.SubsystemError
	if !errors.As(err, &se) || se.Subsystem != "s1" || se.Service != "p1" {
		t.Fatalf("error %v does not carry typed subsystem/service", err)
	}

	fed = testFed(1)
	tr = NewTransport(fed, outage, nil)
	o, m := runOne(t, fed, tr, "p1", activity.Pivot)
	if o == nil || !o.Aborted {
		t.Fatalf("pivot behind an outage did not abort: %+v", o)
	}
	if m.Retries != 0 || tr.Stats().Attempts != 1 {
		t.Fatalf("failed pivot re-invoked: retries %d, attempts %d", m.Retries, tr.Stats().Attempts)
	}
}

// TestTimeoutReplyRecovery: when a timed-out invocation actually
// executed (reply lost), the transport must find its outcome in the
// idempotency table and return success — never orphan the prepared
// transaction by surfacing a failure.
func TestTimeoutReplyRecovery(t *testing.T) {
	// Find a seed whose first attempt is an executed-timeout.
	var plan Plan
	found := false
	for seed := int64(0); seed < 4096; seed++ {
		plan = Plan{Seed: seed, PTimeout: 1.0}
		if plan.fateAt("P1", "r1", 0) == fateTimeoutEx {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no seed yields an executed-timeout first attempt")
	}
	fed := testFed(1)
	tr := NewTransport(fed, plan, nil)

	res, lat, err := tr.InvokeResilient("P1", "r1", subsystem.Prepare, "k1")
	if err != nil {
		t.Fatalf("executed-timeout not recovered: %v", err)
	}
	if res == nil || res.Tx == 0 {
		t.Fatal("recovered reply carries no transaction")
	}
	if lat != tr.plan.TimeoutTicks {
		t.Fatalf("latency %d, want the timeout's %d", lat, tr.plan.TimeoutTicks)
	}
	if st := tr.Stats(); st.RepliesRecovered != 1 || st.Attempts != 1 {
		t.Fatalf("stats %+v, want 1 attempt and 1 recovered reply", st)
	}
	// The prepared transaction is live and owned, not orphaned.
	sub, _ := fed.Subsystem("s1")
	if err := sub.CommitPrepared(res.Tx); err != nil {
		t.Fatalf("recovered transaction not committable: %v", err)
	}
}

// TestDuplicateDeliveryExactlyOnce: a duplicated delivery is degraded
// to an idempotent replay; committing the returned transaction applies
// the effect exactly once.
func TestDuplicateDeliveryExactlyOnce(t *testing.T) {
	fed := testFed(1)
	tr := NewTransport(fed, Plan{Seed: 7, PDuplicate: 1.0}, nil)

	res, _, err := tr.InvokeResilient("P1", "r1", subsystem.Prepare, "k1")
	if err != nil {
		t.Fatalf("duplicated delivery failed: %v", err)
	}
	if st := tr.Stats(); st.Attempts != 1 || st.Duplicates != 1 {
		t.Fatalf("stats %+v, want 1 attempt delivered twice", st)
	}
	sub, _ := fed.Subsystem("s1")
	entries, replays := sub.IdemStats()
	if entries != 1 || replays != 1 {
		t.Fatalf("idem entries=%d replays=%d, want 1 and 1 (second delivery deduplicated)", entries, replays)
	}
	if err := sub.CommitPrepared(res.Tx); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := fed.Snapshot()["s1/x"]; got != 1 {
		t.Fatalf("item s1/x = %d after a duplicated delivery, want exactly 1", got)
	}
	if err := tr.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}
