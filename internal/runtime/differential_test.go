package runtime_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/process"
	"transproc/internal/runtime"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// The differential test validates the concurrent runtime against the
// sequential engine as an oracle. Both engines share the identical
// policy layer, so any admissible-schedule divergence is a concurrency
// bug in the runtime. Probabilistic failures would make outcomes
// interleaving-dependent, so the workloads here use zero failure
// probability plus deterministic per-(process, service) failure rules:
// a rule persists across restarts (the subsystem keys it by the origin
// process name), which makes each origin's terminal fate — committed or
// aborted — a pure function of the workload, not of the interleaving.
//
// Assertions per workload:
//  1. the runtime's observed schedule is prefix-reducible (PRED), and
//  2. per-origin terminal outcomes match the sequential oracle's.

// diffSeeds is the number of seeded workloads (the issue demands >= 50).
const diffSeeds = 60

type failRule struct {
	origin  string
	service string
}

func diffProfile(seed int64) workload.Profile {
	p := workload.DefaultProfile(seed)
	p.Processes = 12
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0
	return p
}

// chooseRules deterministically picks, for roughly a third of the
// processes, one compensatable or pivot service that will permanently
// fail for that process. Retriable services are never failed (their
// failures are transient by contract) and neither are compensations
// (the paper's perfect-compensation assumption — a persistent
// compensation failure would retry forever in either engine).
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

// foldOutcomes reduces per-incarnation outcomes (W3, W3+r1, ...) to a
// per-origin terminal fate: an origin's work stands iff some
// incarnation's does — it committed, or a victim abort past its pivot
// completed it forward (and it was not restarted).
func foldOutcomes(out map[process.ID]*scheduler.Outcome) map[string]bool {
	m := make(map[string]bool)
	for id, o := range out {
		origin := string(id)
		if i := strings.IndexByte(origin, '+'); i >= 0 {
			origin = origin[:i]
		}
		if o.Stands {
			m[origin] = true
		} else if _, seen := m[origin]; !seen {
			m[origin] = false
		}
	}
	return m
}

func runDifferential(t *testing.T, seed int64) (committed, aborted int) {
	t.Helper()
	p := diffProfile(seed)

	// Two identically generated copies of the workload: the oracle and
	// the runtime must not share mutable subsystem state.
	oracleW := workload.MustGenerate(p)
	rtW := workload.MustGenerate(p)
	rules := chooseRules(oracleW, seed)
	injectRules(t, oracleW.Fed, rules)
	injectRules(t, rtW.Fed, rules)

	eng, err := scheduler.New(oracleW.Fed, scheduler.Config{Mode: scheduler.PRED, MaxRestarts: 64})
	if err != nil {
		t.Fatal(err)
	}
	oracleRes, err := eng.RunJobs(oracleW.Jobs)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	// The runtime side runs on a file log, which has a sync phase, so
	// every differential seed also exercises the shared syncs and the
	// write-ahead re-entry (the oracle is single-threaded; its syncs
	// would never be shared).
	log, err := wal.OpenFile(filepath.Join(t.TempDir(), "wal.log"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	r, err := runtime.New(rtW.Fed, runtime.Config{Mode: scheduler.PRED, MaxRestarts: 64, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	rtRes, err := r.Run(context.Background(), rtW.Jobs)
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}

	// 1. Every concurrently observed schedule is prefix-reducible.
	ok, at, _, err := rtRes.Schedule.PRED()
	if err != nil {
		t.Fatalf("PRED check: %v", err)
	}
	if !ok {
		t.Fatalf("runtime schedule not PRED (prefix %d):\n%s", at, rtRes.Schedule)
	}

	// 2. Terminal per-origin outcomes match the sequential oracle.
	want := foldOutcomes(oracleRes.Outcomes)
	got := foldOutcomes(rtRes.Outcomes)
	if len(want) != len(got) {
		t.Fatalf("origin sets differ: oracle %d, runtime %d", len(want), len(got))
	}
	for origin, w := range want {
		g, okG := got[origin]
		if !okG {
			t.Fatalf("origin %s missing from runtime outcomes", origin)
		}
		if g != w {
			t.Fatalf("origin %s: oracle committed=%v, runtime committed=%v\nrules: %v",
				origin, w, g, rules)
		}
		if g {
			committed++
		} else {
			aborted++
		}
	}
	return committed, aborted
}

// TestDifferentialPRED runs the full battery of seeded workloads through
// both engines under the PRED policy and cross-checks them.
func TestDifferentialPRED(t *testing.T) {
	seeds := int64(diffSeeds)
	if testing.Short() {
		seeds = 12
	}
	var committed, aborted int
	var mu sync.Mutex
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			c, a := runDifferential(t, seed)
			mu.Lock()
			committed += c
			aborted += a
			mu.Unlock()
		})
	}
	t.Cleanup(func() {
		// The failure rules must actually bite: across the battery both
		// terminal fates have to occur, otherwise the differential
		// compares trivial all-commit runs.
		if committed == 0 || aborted == 0 {
			t.Errorf("degenerate battery: %d committed, %d aborted origins", committed, aborted)
		}
	})
}

// TestDifferentialCascade runs a slice of the battery a second time: the
// runtime's interleaving of a seed differs from run to run.
func TestDifferentialCascade(t *testing.T) {
	seeds := int64(15)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runDifferential(t, seed)
		})
	}
}
