package federation_test

import (
	"fmt"
	"sync"
	"testing"

	"transproc/internal/battery"
	"transproc/internal/chaos"
	"transproc/internal/federation"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// The cross-node differential battery validates the federation against
// the sequential engine as an oracle. Both sides share the policy layer
// and deterministic per-(origin, service) failure rules, so each
// origin's terminal fate is a pure function of the workload — any
// divergence is a federation bug. Per seed:
//
//  1. the combined schedule reconstructed from all node WALs (stitched
//     by hub stamp) is prefix-reducible, and
//  2. per-origin terminal outcomes equal the sequential oracle's.
//
// Half the seeds add wire chaos (drops, duplicates, ambiguous
// timeouts) with a dispatch budget large enough that no request is
// ever voided: a voided dispatch would surface as an invocation
// failure the oracle never saw, legitimately diverging the fates.
const fedDiffSeeds = 60

// foldOutcomes reduces the oracle's per-incarnation outcomes to a
// per-origin fate: an origin's work stands iff some incarnation's does —
// it committed, or a victim abort past its pivot completed it forward.
func foldOutcomes(out map[process.ID]*scheduler.Outcome) map[string]bool {
	m := make(map[string]bool)
	for id, o := range out {
		origin := string(id.Origin())
		m[origin] = m[origin] || o.Stands
	}
	return m
}

// foldStitched is foldOutcomes over the cluster's stitched log, whose
// images carry the verdict (wal.ProcImage.Stands) on their own.
func foldStitched(t *testing.T, c *federation.Cluster) map[string]bool {
	t.Helper()
	recs, err := c.Stitched()
	if err != nil {
		t.Fatalf("stitching WALs: %v", err)
	}
	images, err := wal.Analyze(recs)
	if err != nil {
		t.Fatalf("analyzing the stitched log: %v", err)
	}
	m := make(map[string]bool)
	for id, img := range images {
		origin := string(process.ID(id).Origin())
		m[origin] = m[origin] || img.Stands
	}
	return m
}

func runFedDifferential(t *testing.T, seed int64, nodes int, wire bool) (committed, aborted int) {
	t.Helper()
	p := fedProfile(seed)

	// Two identically generated workload copies: the oracle and the
	// cluster must not share mutable subsystem state.
	oracleW := workload.MustGenerate(p)
	fedW := workload.MustGenerate(p)
	rules := chooseRules(oracleW, seed)
	injectRules(t, oracleW.Fed, rules)
	injectRules(t, fedW.Fed, rules)

	eng, err := scheduler.New(oracleW.Fed, scheduler.Config{Mode: scheduler.PRED, MaxRestarts: 64})
	if err != nil {
		t.Fatal(err)
	}
	oracleRes, err := eng.RunJobs(oracleW.Jobs)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	cfg := federation.Config{Nodes: nodes, MaxRestarts: 64}
	if wire {
		cfg.WrapTransport = battery.ChaosWire(chaos.Plan{Seed: seed, PTransient: 0.03, PTimeout: 0.06, PDuplicate: 0.06}, nil)
		cfg.DispatchBudget = 1 << 16
	}
	defs := defsOf(fedW)
	c, err := federation.NewCluster(fedW.Fed, defs, cfg)
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

	// 1. The stitched cross-node schedule is prefix-reducible and no
	// transaction is left in doubt.
	checkStitched(t, c, fedW.Fed, defs)

	// 2. Terminal per-origin outcomes match the sequential oracle, both
	// as the nodes filed them from the hub's answers and as the stitched
	// log shows them.
	want := foldOutcomes(oracleRes.Outcomes)
	for _, src := range []struct {
		name string
		got  map[string]bool
	}{{"node outcomes", foldOutcomes(res.Outcomes)}, {"stitched log", foldStitched(t, c)}} {
		if len(want) != len(src.got) {
			t.Fatalf("%s: origin sets differ: oracle %d, federation %d", src.name, len(want), len(src.got))
		}
		for origin, w := range want {
			g, okG := src.got[origin]
			if !okG {
				t.Fatalf("%s: origin %s missing from federation outcomes", src.name, origin)
			}
			if g != w {
				t.Fatalf("%s: origin %s: work stands in the oracle: %v, in the federation: %v\nrules: %v\nhub:\n%s",
					src.name, origin, w, g, rules, c.Hub().DumpState())
			}
		}
	}
	for _, g := range want {
		if g {
			committed++
		} else {
			aborted++
		}
	}
	return committed, aborted
}

// TestFedDifferentialPRED runs the full battery of seeded workloads
// through the sequential oracle and a multi-node cluster under PRED.
func TestFedDifferentialPRED(t *testing.T) {
	seeds := int64(fedDiffSeeds)
	if testing.Short() {
		seeds = 12
	}
	var committed, aborted int
	var mu sync.Mutex
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			nodes := 2 + int(seed%3) // 2..4 nodes
			wire := seed%2 == 0      // half the seeds add transport chaos
			c, a := runFedDifferential(t, seed, nodes, wire)
			mu.Lock()
			committed += c
			aborted += a
			mu.Unlock()
		})
	}
	t.Cleanup(func() {
		// Both terminal fates must occur across the battery, otherwise
		// the differential compares trivial all-commit runs.
		if committed == 0 || aborted == 0 {
			t.Errorf("degenerate battery: %d committed, %d aborted origins", committed, aborted)
		}
	})
}

// TestFedDifferentialCascade runs a slice of the battery a second time
// over 2 or 3 nodes, with the wire chaos on the odd seeds.
func TestFedDifferentialCascade(t *testing.T) {
	seeds := int64(15)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runFedDifferential(t, seed, 2+int(seed%2), seed%2 == 1)
		})
	}
}
