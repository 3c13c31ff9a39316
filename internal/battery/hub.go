// The hub-kill torture battery: seeded scenarios that kill -9 the
// coordination hub at its force-log and 2PC points (sometimes while a
// scheduler node is dying too), let the cluster monitor reopen a new
// incarnation from the stitched per-node WALs plus the hub journal, and
// judge every reopen — and the final composed recovery — with
// fault.CheckRecovered over the global history. A fourth class crashes
// a node under lease-based membership and requires the hub to detect
// the death by lease expiry alone and re-home the safe orphans. Every
// failure message embeds the reproducing seed.
package battery

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"transproc/internal/chaos"
	"transproc/internal/fault"
	"transproc/internal/federation"
	"transproc/internal/metrics"
)

// HubScenario is one fully determined hub-torture case. hubScenarioFor
// is a pure function of the seed, so a failing seed reproduces the
// exact same scenario anywhere. The seed space is independent of
// fedScenarioFor's — adding this battery shifts no existing seeds.
type HubScenario struct {
	Seed  int64
	Class string
	Nodes int
	// HubPoint/HubCount arm the hub-side kill (hub:dispatch,
	// hub:decision, hub:resolve) on the first incarnation.
	HubPoint string
	HubCount int
	// CrashNode/CrashPoint/CrashCount arm a node-side crash for the
	// double-fault and lease-expiry classes.
	CrashNode  int
	CrashPoint string
	CrashCount int
	// LeaseTTL/HeartbeatEvery enable lease-based membership; with
	// LeaseTTL set the cluster never declares a crashed node dead on
	// the hub — lease expiry must detect the silence.
	LeaseTTL       time.Duration
	HeartbeatEvery time.Duration
	// Wire is the background transport fault plan.
	Wire chaos.Plan
}

// hubScenarioFor derives the deterministic scenario of a seed. Four
// classes cycle by seed: the hub killed in the dispatch window (before
// the node's force-log lands), the hub killed inside the 2PC window
// (between the decision stamp and the resolve), a double fault where a
// node dies mid-2PC and the hub is killed in the same run, and a node
// crash under lease-based membership where expiry — not an explicit
// death declaration — must trigger the re-assignment. Every class runs
// under background wire chaos.
func hubScenarioFor(seed int64) HubScenario {
	rng := rand.New(rand.NewSource(seed*2862933555777941757 + 7046029254386353087))
	sc := HubScenario{
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
	switch seed % 4 {
	case 0:
		// Kill the hub inside a dispatch admission: the stamp may be
		// issued and journaled under the lease but the node's force-log
		// for it may or may not have landed — both sides of that race
		// are legal crash windows the reopen's recovery must resolve.
		sc.Class = "hub-kill-mid-dispatch"
		sc.HubPoint = federation.PointHubDispatch
		sc.HubCount = 1 + rng.Intn(30)
	case 1:
		// Kill the hub between a 2PC decision stamp and the resolve
		// fan-out: the in-doubt transactions must settle exactly as
		// scheduler.Recover's presumed-commit/-abort rules dictate.
		sc.Class = "hub-kill-2pc-window"
		sc.HubPoint = federation.PointHubDecision
		if rng.Intn(2) == 0 {
			sc.HubPoint = federation.PointHubResolve
		}
		sc.HubCount = 1 + rng.Intn(3)
	case 2:
		// Double fault: a node dies mid-2PC and the hub is killed in
		// the same run. Whichever order the points fire in, the reopen
		// plus the final composed recovery must leave no residue.
		sc.Class = "hub-kill-double-fault"
		sc.HubPoint = federation.PointHubDispatch
		sc.HubCount = 5 + rng.Intn(20)
		sc.CrashNode = rng.Intn(sc.Nodes)
		sc.CrashPoint = fault.PointAfterDecision
		if rng.Intn(2) == 0 {
			sc.CrashPoint = federation.PointFedAfterPrepared
		}
		sc.CrashCount = 1 + rng.Intn(2)
	default:
		// Lease expiry as the death detector: the node crashes early
		// and nobody tells the hub — its lease must lapse, its safe
		// orphans re-home to survivors, and its prepared transactions
		// settle under the zombie rules. Half the seeds add a partition
		// window on a survivor for extra reconnect churn.
		sc.Class = "fed-lease-expiry"
		sc.CrashNode = rng.Intn(sc.Nodes)
		sc.CrashPoint = federation.PointFedDispatch
		if rng.Intn(2) == 0 {
			sc.CrashPoint = federation.PointFedAfterPrepared
		}
		sc.CrashCount = 1 + rng.Intn(3)
		sc.LeaseTTL = 20 * time.Millisecond
		sc.HeartbeatEvery = 5 * time.Millisecond
		if rng.Intn(2) == 0 {
			other := (sc.CrashNode + 1) % sc.Nodes
			from := int64(20 + rng.Intn(200))
			sc.Wire.Outages = []chaos.Outage{{
				Subsystem: fmt.Sprintf("node%d", other),
				From:      from, To: from + int64(150+rng.Intn(400)),
			}}
		}
	}
	return sc
}

// runHubScenario executes one scenario end to end: cluster run with the
// hub kill armed (the monitor reopens every killed incarnation and the
// OnReopen judge runs CheckRecovered at each reopen boundary), then the
// final composed recovery over the full stitched multi-incarnation
// history, judged again by CheckRecovered, with no in-doubt subsystem
// transactions left behind.
func runHubScenario(sc HubScenario) (Stats, error) {
	var st Stats
	fail := func(format string, args ...any) error {
		return fmt.Errorf("seed %d (%s): %s", sc.Seed, sc.Class, fmt.Sprintf(format, args...))
	}
	fed, defs, _, err := fedTortureWorld(FedScenario{Seed: sc.Seed, Class: sc.Class})
	if err != nil {
		return st, err
	}
	reg := metrics.New()
	// Every reopen is a crash epoch of the full run; its boundary in the
	// final stitched history is where the re-stamped recovery tail
	// starts (the first tail stamp exceeds every stamp the dead
	// incarnation could have issued, so the stitch puts the whole
	// pre-crash history before it).
	var bmu sync.Mutex
	var boundStamps []int64
	c, err := federation.NewCluster(fed, defs, federation.Config{
		Nodes: sc.Nodes, MaxRestarts: 8,
		Metrics: reg, WrapTransport: ChaosWire(sc.Wire, reg),
		LeaseTTL: sc.LeaseTTL, HeartbeatEvery: sc.HeartbeatEvery,
		HubInject:  fault.NewInjector(fault.Plan{CrashAtPoint: sc.HubPoint, CrashAtCount: sc.HubCount}).Point,
		NodeInject: crashNode(sc.CrashNode, sc.CrashPoint, sc.CrashCount),
		OnReopen: func(rep *federation.ReopenReport) error {
			bmu.Lock()
			if len(rep.Tail) > 0 {
				boundStamps = append(boundStamps, rep.Tail[0].Stamp)
			}
			bmu.Unlock()
			return fault.CheckRecovered(fault.CheckInput{
				Fed: fed, Log: rep.Log, Defs: defs,
				PreCrashRecords: rep.Pre, PreCrashFull: rep.Pre,
			})
		},
	})
	if err != nil {
		return st, fail("%v", err)
	}
	defer c.Close()
	res := c.Run()
	st = Stats{
		"kills":         int(reg.Counter(metrics.FedHubKills)),
		"reopens":       res.HubRestarts,
		"adoptions":     int(reg.Counter(metrics.FedAdoptions)),
		"leaseExpiries": int(reg.Counter(metrics.FedLeaseExpiries)),
		"reattached":    res.Reattached,
	}
	if res.HubErr != nil {
		return st, fail("hub reopen: %v", res.HubErr)
	}
	for i, nerr := range res.NodeErrs {
		if nerr != nil {
			return st, fail("node %d: %v", i, nerr)
		}
	}
	// The kill counts are soft (a high count can outlive the run, and
	// hub:resolve only fires on cross-node 2PC), but a kill that DID
	// fire must have been ridden out by a reopen.
	if st["kills"] > 0 && st["reopens"] == 0 {
		return st, fail("hub killed %d times but never reopened", st["kills"])
	}
	if sc.Class == "fed-lease-expiry" && crashedAny(res) {
		if st["leaseExpiries"] == 0 {
			// The survivors drained before the dead node's lease lapsed,
			// so the in-run sweeps never caught it. Let the TTL elapse
			// and sweep once more — the exact path the monitor runs
			// mid-flight — so every seed exercises silence-based death
			// detection (the hub was never told about the crash).
			time.Sleep(sc.LeaseTTL + sc.LeaseTTL/2)
			c.Hub().ExpireLeases()
			st["leaseExpiries"] = int(reg.Counter(metrics.FedLeaseExpiries))
		}
		if st["leaseExpiries"] == 0 {
			return st, fail("crashed node's lease never expired (expiry is the only death detector here)")
		}
	}

	// Final composed recovery over the full multi-incarnation stitched
	// history (pre-crash records, every reopen's re-stamped recovery
	// tail, and the post-reopen session, in stamp order). Each reopen
	// boundary is handed to the judge as an earlier crash epoch — the
	// reopen's recovery records are crash aborts there, not forward
	// work (the stitched MemLog numbers LSNs by position, so a stamp
	// boundary maps directly to an LSN boundary).
	log, pre, _, err := c.Recover()
	if err != nil {
		return st, fail("recovery: %v", err)
	}
	recs, err := log.Records()
	if err != nil {
		return st, fail("reading stitched log: %v", err)
	}
	bmu.Lock()
	var prior []int64
	for _, s := range boundStamps {
		var lsn int64
		for i := 0; i < pre && i < len(recs); i++ {
			if recs[i].Stamp < s {
				lsn = recs[i].LSN
			}
		}
		if lsn > 0 {
			prior = append(prior, lsn)
		}
	}
	bmu.Unlock()
	if err := fault.CheckRecovered(fault.CheckInput{
		Fed: fed, Log: log, Defs: defs, PreCrashRecords: pre, PreCrashFull: pre,
		PriorCrashLSNs: prior,
	}); err != nil {
		return st, fail("%v", err)
	}
	if doubt := fed.InDoubt(); len(doubt) > 0 {
		return st, fail("in-doubt transactions left after final recovery: %v", doubt)
	}
	return st, nil
}

// crashedAny reports whether any node's armed crash point fired.
func crashedAny(res *federation.RunResult) bool {
	for _, c := range res.Crashed {
		if c {
			return true
		}
	}
	return false
}

// Hub is the hub-kill battery: the coordination hub killed -9 at a
// seeded point (mid-dispatch, inside the 2PC window, or alongside a
// dying node), or a node crash only lease expiry may detect; every
// reopen and the final multi-incarnation history are judged by
// fault.CheckRecovered.
var Hub = &Battery{
	Name:    "hub",
	Classes: []string{"hub-kill-mid-dispatch", "hub-kill-2pc-window", "hub-kill-double-fault", "fed-lease-expiry"},
	Full:    16,
	ScenarioFor: func(seed int64, _ Variants) (string, string) {
		sc := hubScenarioFor(seed)
		return sc.Class, fmt.Sprintf("%+v", sc)
	},
	Run: func(seed int64, _ Variants, _ string) (Stats, error) {
		return runHubScenario(hubScenarioFor(seed))
	},
	// The battery as a whole must exercise the rare paths: hubs die and
	// get reopened, dead nodes' leases expire, and survivors re-attach
	// across restarts.
	Check: func(st Stats) []string {
		var problems []string
		if st["kills"] == 0 || st["reopens"] == 0 {
			problems = append(problems, fmt.Sprintf("no hub kill was ridden out (kills %d, reopens %d)", st["kills"], st["reopens"]))
		}
		if st["leaseExpiries"] == 0 {
			problems = append(problems, "no lease ever expired across the battery")
		}
		if st["reattached"] == 0 {
			problems = append(problems, "no node ever re-attached across a hub restart")
		}
		return problems
	},
}
