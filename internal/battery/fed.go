package battery

import (
	"fmt"
	"math/rand"

	"transproc/internal/chaos"
	"transproc/internal/fault"
	"transproc/internal/federation"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// FedScenario is one fully determined federation-torture case: a
// seeded workload partitioned across nodes, a transport fault plan and
// an optional node-crash point. fedScenarioFor(seed) is a pure
// function, so a failing seed reproduces the exact scenario anywhere.
type FedScenario struct {
	Seed  int64
	Class string
	Nodes int
	// CrashNode/CrashPoint/CrashCount arm a crash-point injector on one
	// node (fed:dispatch, fed:after-prepared, twopc:after-decision,
	// twopc:mid-resolve).
	CrashNode  int
	CrashPoint string
	CrashCount int
	// Wire is the transport fault plan (drops, ambiguous timeouts,
	// duplicates, partition windows).
	Wire chaos.Plan
	// DispatchBudget caps transport retries of invocation RPCs; a
	// partition window longer than the budget voids the dispatch and
	// forces the node onto the failure path.
	DispatchBudget int
	// Rejoin runs a second cluster session over the recovered
	// federation after the crash cycle.
	Rejoin bool
}

// fedScenarioFor derives the deterministic scenario of a seed. Three
// classes cycle by seed: a node killed mid-2PC (after the decision
// record or between participant commits), a partition window cutting a
// node off during cross-node resolution (sometimes long enough to void
// dispatches), and a node crash in the dispatch window followed by
// recovery plus a re-join session. Every class runs under background
// wire chaos.
func fedScenarioFor(seed int64) FedScenario {
	rng := rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))
	sc := FedScenario{
		Seed:  seed,
		Nodes: 2 + rng.Intn(2),
		Wire: chaos.Plan{
			Seed:       seed,
			PTransient: 0.02,
			PTimeout:   0.04,
			PDuplicate: 0.04,
		},
	}
	// One draw is discarded to keep the seed table (testdata/classes.txt):
	// it chose among modes no longer offered, and dropping it would shift
	// every parameter drawn after it.
	rng.Intn(3)
	switch seed % 3 {
	case 0:
		// Kill a node between its 2PC decision record and the
		// participant commits: the hub and the stitched log disagree
		// about how far resolution got, and recovery must finish the
		// commit under presumed-commit (the decision is logged).
		sc.Class = "fed-kill-mid-2pc"
		sc.CrashNode = rng.Intn(sc.Nodes)
		sc.CrashPoint = fault.PointAfterDecision
		if rng.Intn(2) == 0 {
			sc.CrashPoint = fault.PointMidResolve
		}
		sc.CrashCount = 1 + rng.Intn(2)
	case 1:
		// Partition one node for a window of delivery attempts while
		// cross-node conflicts are in flight. The window is measured in
		// attempts, so it deterministically heals; a third of the seeds
		// shrink the dispatch budget below the window so dispatches void
		// and the node takes the invocation-failure path instead.
		sc.Class = "fed-partition-resolve"
		node := rng.Intn(sc.Nodes)
		from := int64(20 + rng.Intn(200))
		width := int64(150 + rng.Intn(700))
		if rng.Intn(3) == 0 {
			sc.DispatchBudget = 256
			width = 2048
		}
		sc.Wire.Outages = []chaos.Outage{{
			Subsystem: fmt.Sprintf("node%d", node),
			From:      from, To: from + width,
		}}
	default:
		// Crash a node in the dispatch window (before the RPC, or after
		// force-logging "prepared" but before the local commit — the
		// orphan window), recover the stitched history, then re-join:
		// a fresh cluster session runs new work over the recovered
		// federation.
		sc.Class = "fed-crash-rejoin"
		sc.CrashNode = rng.Intn(sc.Nodes)
		sc.CrashPoint = federation.PointFedDispatch
		if rng.Intn(2) == 0 {
			sc.CrashPoint = federation.PointFedAfterPrepared
		}
		sc.CrashCount = 1 + rng.Intn(25)
		sc.Rejoin = true
	}
	return sc
}

// fedTortureProfile is the workload a scenario runs: the differential
// profile plus transient retriable failures.
func fedTortureProfile(seed int64) workload.Profile {
	p := workload.DefaultProfile(seed)
	p.Processes = 12
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.10
	return p
}

func fedTortureWorld(sc FedScenario) (*subsystem.Federation, []*process.Process, []fault.SubsystemFail, error) {
	w, err := workload.Generate(fedTortureProfile(sc.Seed))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("seed %d: generating workload: %w", sc.Seed, err)
	}
	rules := chooseFailures(w, sc.Seed)
	for _, r := range rules {
		sub, ok := w.Fed.Owner(r.Service)
		if !ok {
			return nil, nil, nil, fmt.Errorf("seed %d: no owner for failed service %s", sc.Seed, r.Service)
		}
		sub.FailService(r.Proc, r.Service)
	}
	defs := make([]*process.Process, 0, len(w.Jobs))
	for _, j := range w.Jobs {
		defs = append(defs, j.Proc)
	}
	return w.Fed, defs, rules, nil
}

// runFedScenario executes one scenario end to end: cluster run (a
// crashed node is declared dead and the survivors drain), stitched
// composed recovery, CheckRecovered over the global history, and — for
// re-join scenarios — a second cluster session over the recovered
// federation. altFired reports whether some origin with a permanently
// failing service still committed, i.e. a ◁ alternative carried it
// forward on a surviving node; reg collects the run's counters.
func runFedScenario(sc FedScenario, reg *metrics.Registry) (altFired bool, err error) {
	fed, defs, rules, err := fedTortureWorld(sc)
	if err != nil {
		return false, err
	}
	c, err := federation.NewCluster(fed, defs, federation.Config{
		Nodes: sc.Nodes, MaxRestarts: 8,
		Metrics: reg, WrapTransport: ChaosWire(sc.Wire, reg), DispatchBudget: sc.DispatchBudget,
		NodeInject: crashNode(sc.CrashNode, sc.CrashPoint, sc.CrashCount),
	})
	if err != nil {
		return false, fmt.Errorf("seed %d (%s): %w", sc.Seed, sc.Class, err)
	}
	defer c.Close()
	res := c.Run()
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			return false, fmt.Errorf("seed %d (%s): node %d: %w", sc.Seed, sc.Class, i, nerr)
		}
	}
	if len(sc.Wire.Outages) > 0 && reg.Counter(metrics.FedWireDrops) == 0 {
		return false, fmt.Errorf("seed %d (%s): partition window never dropped an attempt", sc.Seed, sc.Class)
	}

	// Composed recovery over the stitched per-node WALs, then the full
	// recovery invariant suite on the global history.
	log, pre, _, err := c.Recover()
	if err != nil {
		return false, fmt.Errorf("seed %d (%s): recovery: %w", sc.Seed, sc.Class, err)
	}
	if err := fault.CheckRecovered(fault.CheckInput{
		Fed: fed, Log: log, Defs: defs, PreCrashRecords: pre, PreCrashFull: pre,
	}); err != nil {
		return false, fmt.Errorf("seed %d (%s): %w", sc.Seed, sc.Class, err)
	}

	altFired = altsFired(res, rules, c)

	if sc.Rejoin {
		if err := runRejoin(fed, defs, sc); err != nil {
			return altFired, err
		}
	}
	return altFired, nil
}

// altsFired reports whether an origin with a permanent failure rule
// both failed an activity (a RecFailed record exists) and still
// committed — only a ◁ alternative path can do that.
func altsFired(res *federation.RunResult, rules []fault.SubsystemFail, c *federation.Cluster) bool {
	recs, err := c.Stitched()
	if err != nil {
		return false
	}
	failed := make(map[string]bool)
	for _, r := range recs {
		if r.Type == wal.RecFailed {
			failed[string(process.ID(r.Proc).Origin())] = true
		}
	}
	committed := make(map[string]bool)
	for id, out := range res.Outcomes {
		if out.Committed {
			committed[string(id.Origin())] = true
		}
	}
	for _, r := range rules {
		if failed[r.Proc] && committed[r.Proc] {
			return true
		}
	}
	return false
}

// runRejoin starts a fresh cluster session over the recovered
// federation — the crashed node re-joins with new work — and asserts
// the session completes with a prefix-reducible schedule and no
// residue of the first session blocking it.
func runRejoin(fed *subsystem.Federation, defs []*process.Process, sc FedScenario) error {
	redefs := make([]*process.Process, len(defs))
	for i, def := range defs {
		redefs[i] = def.WithID(def.ID + "-rj")
	}
	c, err := federation.NewCluster(fed, redefs, federation.Config{
		Nodes: sc.Nodes, MaxRestarts: 8,
	})
	if err != nil {
		return fmt.Errorf("seed %d (%s): rejoin: %w", sc.Seed, sc.Class, err)
	}
	defer c.Close()
	res := c.Run()
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			return fmt.Errorf("seed %d (%s): rejoin node %d: %w", sc.Seed, sc.Class, i, nerr)
		}
	}
	if len(res.Outcomes) < len(redefs) {
		return fmt.Errorf("seed %d (%s): rejoin: %d outcomes for %d processes", sc.Seed, sc.Class, len(res.Outcomes), len(redefs))
	}
	for id, out := range res.Outcomes {
		if !out.Committed && !out.Aborted {
			return fmt.Errorf("seed %d (%s): rejoin process %s not terminal", sc.Seed, sc.Class, id)
		}
	}
	recs, err := c.Stitched()
	if err != nil {
		return fmt.Errorf("seed %d (%s): rejoin stitch: %w", sc.Seed, sc.Class, err)
	}
	table, err := fed.ConflictTable()
	if err != nil {
		return fmt.Errorf("seed %d (%s): rejoin conflict table: %w", sc.Seed, sc.Class, err)
	}
	sched, err := fault.ScheduleFromWAL(table, redefs, recs, len(recs))
	if err != nil {
		return fmt.Errorf("seed %d (%s): rejoin schedule: %w", sc.Seed, sc.Class, err)
	}
	ok, at, _, err := sched.PRED()
	if err != nil {
		return fmt.Errorf("seed %d (%s): rejoin PRED: %w", sc.Seed, sc.Class, err)
	}
	if !ok {
		return fmt.Errorf("seed %d (%s): rejoin schedule not prefix-reducible (prefix %d)", sc.Seed, sc.Class, at)
	}
	if doubt := fed.InDoubt(); len(doubt) > 0 {
		return fmt.Errorf("seed %d (%s): rejoin left in-doubt transactions: %v", sc.Seed, sc.Class, doubt)
	}
	return nil
}

// crashNode is the Config.NodeInject hook that arms one crash point on
// one node (point "" arms nothing).
func crashNode(node int, point string, count int) func(int) func(string) {
	inj := fault.NewInjector(fault.Plan{CrashAtPoint: point, CrashAtCount: count})
	return func(i int) func(string) {
		if i != node {
			return nil
		}
		return inj.Point
	}
}

// Fed is the federation-torture battery: a workload partitioned across
// 2-3 scheduler nodes under background wire chaos with a node killed
// mid-2PC, a partition window during cross-node resolution, or a node
// crash followed by composed recovery and a re-join session; the
// stitched per-node WALs are judged by fault.CheckRecovered.
var Fed = &Battery{
	Name:    "fed",
	Classes: []string{"fed-kill-mid-2pc", "fed-partition-resolve", "fed-crash-rejoin"},
	Full:    30,
	ScenarioFor: func(seed int64, _ Variants) (string, string) {
		sc := fedScenarioFor(seed)
		return sc.Class, fmt.Sprintf("%+v", sc)
	},
	Run: func(seed int64, _ Variants, _ string) (Stats, error) {
		reg := metrics.New()
		alt, err := runFedScenario(fedScenarioFor(seed), reg)
		st := Stats{
			"wireDrops":      int(reg.Counter(metrics.FedWireDrops)),
			"wireDuplicates": int(reg.Counter(metrics.FedWireDuplicates)),
			"rpcRetries":     int(reg.Counter(metrics.FedRPCRetries)),
			"dedupReplays":   int(reg.Counter(metrics.FedDedupReplays)),
		}
		if alt {
			st["altFires"] = 1
		}
		return st, err
	},
	Check: func(st Stats) []string {
		var problems []string
		// The partition/kill classes must leave room for forward recovery:
		// some origin with a permanently failing service has to commit
		// through a ◁ alternative on a surviving node.
		if st["altFires"] == 0 {
			problems = append(problems, "no scenario committed a failed origin through an alternative path")
		}
		// The wire model must have been on the wire: drops, duplicates,
		// retries and the hub's dedup replays all fire under the
		// background plan.
		for _, k := range []string{"wireDrops", "wireDuplicates", "rpcRetries", "dedupReplays"} {
			if st[k] == 0 {
				problems = append(problems, "no "+k+" across the battery: the wire fault model never acted")
			}
		}
		return problems
	},
}
