package federation_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/battery"
	"transproc/internal/chaos"
	"transproc/internal/fault"
	"transproc/internal/federation"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/workload"
)

// failRule deterministically fails one service for one origin process;
// the subsystem keys the rule by origin, so it persists across
// restarts, making each origin's terminal fate interleaving-free.
type failRule struct {
	origin  string
	service string
}

// chooseRules picks, for roughly a third of the processes, one
// compensatable or pivot service to permanently fail (mirroring the
// runtime differential battery's rule generator).
func chooseRules(w *workload.Workload, seed int64) []failRule {
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	var rules []failRule
	for _, j := range w.Jobs {
		if rng.Float64() >= 0.35 {
			continue
		}
		var candidates []string
		for _, svc := range scheduler.Footprint(j.Proc) {
			spec, ok := w.Fed.Spec(svc)
			if ok && (spec.Kind == activity.Compensatable || spec.Kind == activity.Pivot) {
				candidates = append(candidates, svc)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		sort.Strings(candidates)
		rules = append(rules, failRule{
			origin:  string(j.Proc.ID),
			service: candidates[rng.Intn(len(candidates))],
		})
	}
	return rules
}

func injectRules(t *testing.T, fed *subsystem.Federation, rules []failRule) {
	t.Helper()
	for _, r := range rules {
		sub, ok := fed.Owner(r.service)
		if !ok {
			t.Fatalf("no owner for service %s", r.service)
		}
		sub.FailService(r.origin, r.service)
	}
}

// fedProfile mirrors the runtime differential profile: deterministic
// failures only, injected per (origin, service), so outcomes do not
// depend on the interleaving.
func fedProfile(seed int64) workload.Profile {
	p := workload.DefaultProfile(seed)
	p.Processes = 12
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0
	return p
}

func defsOf(w *workload.Workload) []*process.Process {
	defs := make([]*process.Process, len(w.Jobs))
	for i, j := range w.Jobs {
		defs[i] = j.Proc
	}
	return defs
}

// checkStitched asserts the stitched cross-node history is globally
// prefix-reducible and leaves no transaction in doubt.
func checkStitched(t *testing.T, c *federation.Cluster, fed *subsystem.Federation, defs []*process.Process) {
	t.Helper()
	recs, err := c.Stitched()
	if err != nil {
		t.Fatalf("stitching WALs: %v", err)
	}
	table, err := fed.ConflictTable()
	if err != nil {
		t.Fatalf("conflict table: %v", err)
	}
	sched, err := fault.ScheduleFromWAL(table, defs, recs, len(recs))
	if err != nil {
		t.Fatalf("reconstructing stitched schedule: %v", err)
	}
	ok, at, _, err := sched.PRED()
	if err != nil {
		t.Fatalf("PRED: %v", err)
	}
	if !ok {
		t.Fatalf("stitched schedule not prefix-reducible (prefix %d):\n%s", at, sched)
	}
	if doubt := fed.InDoubt(); len(doubt) > 0 {
		t.Fatalf("in-doubt transactions after run: %v", doubt)
	}
}

// checkDriverWorked asserts the cluster's processes were run by the
// shared protocol driver at the hub: its counters add up to the
// incarnations the nodes report, and its decision trace holds one admit
// and one terminate per incarnation.
func checkDriverWorked(t *testing.T, reg *metrics.Registry, res *federation.RunResult) {
	t.Helper()
	inc := int64(len(res.Outcomes))
	if got := reg.Counter(metrics.ProcsAdmitted); got != inc {
		t.Errorf("procs.admitted = %d, want the %d incarnations", got, inc)
	}
	if c, a := reg.Counter(metrics.ProcsCommitted), reg.Counter(metrics.ProcsAborted); c+a != inc {
		t.Errorf("procs.committed + procs.aborted = %d + %d, want the %d incarnations", c, a, inc)
	}
	if reg.Counter(metrics.CommitsImmediate)+reg.Counter(metrics.CommitsDeferred) == 0 {
		t.Error("the driver committed no activity")
	}
	for _, kind := range []metrics.TraceKind{metrics.TAdmit, metrics.TTerminate} {
		if got := reg.CountTrace(kind); got != inc {
			t.Errorf("%d %v trace events, want one per incarnation (%d)", got, kind, inc)
		}
	}
}

// TestClusterBasic drives a two-node cluster over a failure-free
// workload: every process must commit and the stitched schedule must be
// prefix-reducible.
func TestClusterBasic(t *testing.T) {
	w := workload.MustGenerate(fedProfile(1))
	defs := defsOf(w)
	reg := metrics.NewSized(1 << 20)
	c, err := federation.NewCluster(w.Fed, defs, federation.Config{Nodes: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := c.Run()
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			t.Fatalf("node %d: %v", i, nerr)
		}
	}
	if len(res.Outcomes) != len(defs) {
		t.Fatalf("got %d outcomes, want %d", len(res.Outcomes), len(defs))
	}
	for id, out := range res.Outcomes {
		if !out.Committed {
			t.Errorf("process %s did not commit: %+v", id, out)
		}
	}
	checkStitched(t, c, w.Fed, defs)
	checkDriverWorked(t, reg, res)
}

// TestClusterRefusesUnguaranteedTermination: the hub validates its
// definitions like the engines validate their jobs, so a process of two
// pivots in sequence without an all-retriable alternative is refused
// with the engines' error before any node starts.
func TestClusterRefusesUnguaranteedTermination(t *testing.T) {
	w := workload.MustGenerate(fedProfile(1))
	if len(w.Pool.Pivot) < 2 {
		t.Fatalf("workload has %d pivot services, want two", len(w.Pool.Pivot))
	}
	bad := process.NewBuilder("BAD2").
		Add(1, w.Pool.Pivot[0], activity.Pivot).
		Add(2, w.Pool.Pivot[1], activity.Pivot).
		Seq(1, 2).
		MustBuild()
	c, err := federation.NewCluster(w.Fed, append(defsOf(w), bad), federation.Config{Nodes: 2})
	if err == nil {
		c.Close()
		t.Fatal("the cluster accepted a process without guaranteed termination")
	}
	if want := "scheduler: process BAD2 lacks guaranteed termination"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q, want it to contain %q", err, want)
	}
}

// TestClusterFailures injects deterministic permanent failures and
// checks every origin still reaches a terminal fate across 1, 2 and 4
// nodes, with the stitched history PRED each time.
func TestClusterFailures(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		nodes := nodes
		t.Run(fmt.Sprintf("nodes%d", nodes), func(t *testing.T) {
			t.Parallel()
			w := workload.MustGenerate(fedProfile(3))
			defs := defsOf(w)
			injectRules(t, w.Fed, chooseRules(w, 3))
			reg := metrics.NewSized(1 << 20)
			c, err := federation.NewCluster(w.Fed, defs, federation.Config{Nodes: nodes, MaxRestarts: 4, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			res := c.Run()
			for i, nerr := range res.NodeErrs {
				if nerr != nil {
					t.Fatalf("node %d: %v", i, nerr)
				}
			}
			seen := make(map[string]bool)
			for id, out := range res.Outcomes {
				origin := string(id)
				if i := strings.IndexByte(origin, '+'); i >= 0 {
					origin = origin[:i]
				}
				if out.Committed || out.Aborted {
					seen[origin] = true
				}
			}
			if len(seen) != len(defs) {
				t.Fatalf("only %d/%d origins reached a terminal fate", len(seen), len(defs))
			}
			checkStitched(t, c, w.Fed, defs)
			checkDriverWorked(t, reg, res)
			if reg.Counter(metrics.CompensationsIssued) == 0 {
				t.Error("permanent failures compensated nothing")
			}
		})
	}
}

// TestClusterFailuresUnderTightRestartBound runs a failure-injected workload across node
// boundaries under a tight restart bound.
func TestClusterFailuresUnderTightRestartBound(t *testing.T) {
	w := workload.MustGenerate(fedProfile(5))
	defs := defsOf(w)
	injectRules(t, w.Fed, chooseRules(w, 5))
	c, err := federation.NewCluster(w.Fed, defs, federation.Config{Nodes: 2, MaxRestarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := c.Run()
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			t.Fatalf("node %d: %v", i, nerr)
		}
	}
	checkStitched(t, c, w.Fed, defs)
}

// TestClusterDedup runs with a wire plan that duplicates and loses
// replies: the hub's dedup table must absorb both, with outcomes and
// PRED intact. Drops and duplicates must actually have occurred.
func TestClusterDedup(t *testing.T) {
	reg := metrics.New()
	w := workload.MustGenerate(fedProfile(7))
	defs := defsOf(w)
	plan := chaos.Plan{
		Seed:       7,
		PTransient: 0.05, // lost request
		PTimeout:   0.10, // lost reply; half executed anyway (dedup path)
		PDuplicate: 0.10,
	}
	c, err := federation.NewCluster(w.Fed, defs, federation.Config{
		Nodes: 2, Metrics: reg, WrapTransport: battery.ChaosWire(plan, reg),
		DispatchBudget: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := c.Run()
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			t.Fatalf("node %d: %v", i, nerr)
		}
	}
	// Per origin: a stall victim's aborted incarnation is followed by a
	// restart (W9, then W9+r1), and only the last one has to commit; a
	// victim aborted past its pivot completes forward instead.
	for origin, stands := range foldStitched(t, c) {
		if !stands {
			t.Errorf("the work of process %s does not stand under wire chaos", origin)
		}
	}
	checkStitched(t, c, w.Fed, defs)
	if reg.Counter(metrics.FedWireDrops) == 0 {
		t.Error("wire plan produced no drops")
	}
	if reg.Counter(metrics.FedWireDuplicates) == 0 {
		t.Error("wire plan produced no duplicates")
	}
	if reg.Counter(metrics.FedDedupReplays) == 0 {
		t.Error("lost replies produced no dedup replays")
	}
}

// TestClusterRoundTrips pins the cost of the protocol on a conflict-free
// workload, where nothing waits: one hello, one final idle, and per
// process one admit, two requests per invocation (the second
// acknowledges the invocation's "prepared" record and commits it) and
// one to terminate; the log holds per process a start and a terminate
// and per invocation a dispatch, a prepared outcome and a resolution.
func TestClusterRoundTrips(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := fedProfile(seed)
		p.ConflictProb = 0
		w := workload.MustGenerate(p)
		defs := defsOf(w)
		reg := metrics.New()
		c, err := federation.NewCluster(w.Fed, defs, federation.Config{Nodes: 1, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		res := c.Run()
		for _, nerr := range res.NodeErrs {
			if nerr != nil {
				t.Fatalf("seed %d: %v", seed, nerr)
			}
		}
		recs, err := c.Stitched()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		procs, inv := int64(len(defs)), reg.Counter(metrics.InvokeDispatched)
		if got, want := reg.Counter(metrics.FedRPCs), 2+2*procs+2*inv; got != want {
			t.Errorf("seed %d: %d RPCs for %d processes and %d invocations, want %d", seed, got, procs, inv, want)
		}
		if got, want := int64(len(recs)), 2*procs+3*inv; got != want {
			t.Errorf("seed %d: %d log records for %d processes and %d invocations, want %d", seed, got, procs, inv, want)
		}
	}
}
