package scheduler_test

import (
	"testing"

	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/workload"
)

// instrumentedRun executes a fault-injected workload with a registry
// large enough to retain the full decision trace.
func instrumentedRun(t *testing.T, seed int64, mode scheduler.Mode) (*scheduler.Result, *metrics.Registry) {
	t.Helper()
	p := workload.DefaultProfile(seed)
	p.PermFailureProb = 0.15
	p.TransientFailureProb = 0.1
	w := workload.MustGenerate(p)
	reg := metrics.NewSized(1 << 16)
	eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: mode, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunJobs(w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res, reg
}

// TestMetricsInvariants cross-checks the registry against the engine's
// own per-run metrics and the observed schedule after fault-injected
// runs: every view of the run must tell the same story.
func TestMetricsInvariants(t *testing.T) {
	const mode = scheduler.PRED
	for seed := int64(1); seed <= 6; seed++ {
		res, reg := instrumentedRun(t, seed, mode)
		m := res.Metrics

		// Compensations: engine counter == registry counter ==
		// decision-trace events == inverse invokes in the schedule.
		comp := reg.Counter(metrics.CompensationsIssued)
		if comp != m.Compensations {
			t.Errorf("%v seed %d: registry compensations %d, engine %d", mode, seed, comp, m.Compensations)
		}
		if tr := reg.CountTrace(metrics.TCompensate); tr != comp {
			t.Errorf("%v seed %d: compensation trace events %d, counter %d", mode, seed, tr, comp)
		}
		inverse := int64(0)
		for _, ev := range res.Schedule.Events() {
			if ev.Inverse {
				inverse++
			}
		}
		if inverse != comp {
			t.Errorf("%v seed %d: schedule has %d inverse invokes, counter %d", mode, seed, inverse, comp)
		}

		// Lemma-1 deferral accounting: every deferred commit resolves
		// exactly once, to a 2PC commit or a rollback.
		deferred := reg.Counter(metrics.CommitsDeferred)
		resolved := reg.Counter(metrics.DeferredCommitted2PC) + reg.Counter(metrics.DeferredRolledBack)
		if deferred != resolved {
			t.Errorf("%v seed %d: %d deferred commits but %d resolutions (2pc %d + rollback %d)",
				mode, seed, deferred, resolved,
				reg.Counter(metrics.DeferredCommitted2PC), reg.Counter(metrics.DeferredRolledBack))
		}
		if got := reg.Counter(metrics.DeferredCommitted2PC); got != m.TwoPCCommits {
			t.Errorf("%v seed %d: registry 2PC commits %d, engine %d", mode, seed, got, m.TwoPCCommits)
		}
		if deferred != m.Deferrals {
			t.Errorf("%v seed %d: registry deferrals %d, engine %d", mode, seed, deferred, m.Deferrals)
		}

		// Process lifecycle: every admitted process terminates, and
		// the schedule agrees.
		admitted := reg.Counter(metrics.ProcsAdmitted)
		done := reg.Counter(metrics.ProcsCommitted) + reg.Counter(metrics.ProcsAborted)
		if admitted != done {
			t.Errorf("%v seed %d: %d admitted, %d terminated", mode, seed, admitted, done)
		}
		if got := int(reg.Counter(metrics.ProcsCommitted)); got != m.CommittedProcs {
			t.Errorf("%v seed %d: registry committed %d, engine %d", mode, seed, got, m.CommittedProcs)
		}
		if tr := reg.CountTrace(metrics.TTerminate); tr != done {
			t.Errorf("%v seed %d: %d terminate trace events, %d terminations", mode, seed, tr, done)
		}

		// The duration histogram sees one observation per termination.
		if h := reg.Hist(metrics.HistProcDuration); h.Count != done {
			t.Errorf("%v seed %d: duration histogram count %d, terminations %d", mode, seed, h.Count, done)
		}

		// Dispatch/trace agreement.
		if d, tr := reg.Counter(metrics.InvokeDispatched), reg.CountTrace(metrics.TDispatch); d != tr {
			t.Errorf("%v seed %d: dispatched %d, dispatch trace events %d", mode, seed, d, tr)
		}
	}
}

// TestRecoverWithMetrics crash-injects a run and checks the recovery
// registry: the group abort is recorded, and its compensation and
// forward-invocation counters match the recovery report.
func TestRecoverWithMetrics(t *testing.T) {
	p := workload.DefaultProfile(3)
	p.PermFailureProb = 0.1
	w := workload.MustGenerate(p)
	eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED, CrashAfterEvents: 25})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunJobs(w.Jobs); err == nil {
		t.Skip("run finished before the injected crash point")
	}
	defs := make([]*process.Process, 0, len(w.Jobs))
	for _, j := range w.Jobs {
		defs = append(defs, j.Proc)
	}
	reg := metrics.New()
	report, err := scheduler.RecoverWithMetrics(w.Fed, eng.Log(), defs, reg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(report.BackwardRecovered) + len(report.ForwardRecovered); n > 0 {
		if got := reg.Counter(metrics.GroupAborts); got != 1 {
			t.Errorf("group aborts = %d, want 1", got)
		}
	}
	if got := reg.Counter(metrics.RecoveryCompensations); got != int64(report.Compensations) {
		t.Errorf("recovery compensations counter %d, report %d", got, report.Compensations)
	}
	if got := reg.Counter(metrics.RecoveryForwardInvokes); got != int64(report.ForwardInvocations) {
		t.Errorf("recovery forward counter %d, report %d", got, report.ForwardInvocations)
	}
	if got, want := reg.Counter(metrics.BackwardRecoveries), int64(len(report.BackwardRecovered)); got != want {
		t.Errorf("backward recoveries counter %d, report %d", got, want)
	}
	if len(w.Fed.InDoubt()) != 0 {
		t.Error("in-doubt transactions remain after recovery")
	}
}
