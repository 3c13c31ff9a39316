// Command tpsim regenerates every experiment of the reproduction: the
// paper's figures and examples (E1-E11) as checked artifacts, the sweeps
// E13-E14, and the quantitative benchmarks (B1-B5) of the scheduler
// protocols.
//
// Usage:
//
//	tpsim [experiment ...]
//	tpsim -metrics[=text|json]
//	tpsim run [-metrics[=text|json]] [-runtime=concurrent] <spec.json> [mode]
//	tpsim battery <torture|chaos|fed|hub|serve> [-seeds N] [-first S] [-seed K] [-ckpt] [-durable] [-json]
//	tpsim fed [-metrics[=text|json]] [-nodes N] [-procs P] [-seed S] [-benchhub] [-json]
//	tpsim serve [-addr A] [-dir D] [-world spec.json] [-mode M]
//
// where experiment is one of e1..e11, e13, e14, b1, b2, b4, b5, or "all" (default),
// and mode is pred (default), serial, conservative or cc-only. "run"
// executes a declarative process definition (see internal/spec for the
// format and examples/specs for samples);
// -runtime=concurrent executes it on the concurrent runtime
// (internal/runtime: the same loop on the real clock) instead of the
// sequential discrete-event engine.
// "battery" runs one of the five seeded batteries (internal/battery):
// crash torture (-ckpt / -durable force fuzzy checkpointing with
// compaction, or file-backed stores, onto every scenario), subsystem
// chaos, federation torture, hub-kill torture and the serve crash
// battery. It exits non-zero when any scenario violates a guarantee,
// prints the line that re-runs each failure, and traps SIGINT/SIGTERM
// to print that line for the scenario in flight.
// "fed" partitions a workload across N scheduler nodes over localhost
// TCP (internal/federation) and verifies the stitched cross-node
// schedule; -benchhub measures hub-kill MTTR (BENCH_fed_hub.json).
// "serve" runs the long-running ingestion service (internal/serve):
// an HTTP API that admits declarative processes into the concurrent
// runtime with admission control, per-tenant budgets, graceful drain
// on SIGTERM and crash-safe restart over its data directory.
//
// -metrics attaches an observability registry to the run and dumps its
// snapshot (counters, histograms, per-service latencies, WAL totals and
// the decision-trace tail) after execution; bare "tpsim -metrics" runs
// a fault-injected demo workload under the instrumented scheduler.
package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

type experiment struct {
	name  string
	title string
	run   func() error
}

func main() {
	exps := []experiment{
		{"e1", "Figure 2/3, Example 1: process P1 and its valid executions", e1},
		{"e2", "Example 2: completion C(P1) in B-REC and F-REC", e2},
		{"e3", "Figure 4, Examples 3-4: serializable vs non-serializable execution", e3},
		{"e4", "Figures 5-6, Examples 5-6: completed schedule and reduction", e4},
		{"e5", "Figure 7, Examples 7/9: prefix-reducible execution", e5},
		{"e6", "Figure 8, Example 8: non-PRED prefix", e6},
		{"e7", "Figure 9, Example 10: quasi-commit interleaving", e7},
		{"e8", "Figure 1, Section 2: CIM scenario under CC-only vs PRED", e8},
		{"e9", "Theorem 1 property check on random schedules", e9},
		{"e10", "Lemmas 1-3 checks on scheduler executions", e10},
		{"e11", "Section 3.5: no SOT-like criterion for processes", e11},
		{"e13", "Resilience sweep: termination under increasing outage rate", e13},
		{"e14", "Bounded-time recovery: checkpoint + compaction vs full replay", e14},
		{"b1", "B1: scheduler comparison and conflict sweep", b1},
		{"b2", "B2/B3: deferred-commit ablation", b2},
		{"b4", "B4: crash recovery sweep", b4},
		{"b5", "B5: single-service fault-injection matrix", b5},
	}
	byName := make(map[string]experiment, len(exps))
	var names []string
	for _, e := range exps {
		byName[e.name] = e
		names = append(names, e.name)
	}
	sort.Strings(names)

	metricsFormat, args, err := extractMetricsFlag(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	engine, args, err := extractRuntimeFlag(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(args) >= 1 && args[0] == "battery" {
		if err := runBattery(args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "battery failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(args) >= 1 && args[0] == "fed" {
		if err := runFed(args[1:], metricsFormat); err != nil {
			fmt.Fprintf(os.Stderr, "fed failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(args) >= 1 && args[0] == "serve" {
		if err := runServe(args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "serve failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(args) >= 2 && args[0] == "run" {
		mode := ""
		if len(args) >= 3 {
			mode = args[2]
		}
		if err := runSpecFile(args[1], mode, metricsFormat, engine); err != nil {
			fmt.Fprintf(os.Stderr, "run failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(args) == 0 && metricsFormat != "" {
		if err := metricsDemo(metricsFormat); err != nil {
			fmt.Fprintf(os.Stderr, "metrics demo failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(args) == 0 || (len(args) == 1 && args[0] == "all") {
		args = make([]string, 0, len(exps))
		for _, e := range exps {
			args = append(args, e.name)
		}
	}
	failed := 0
	for _, name := range args {
		e, ok := byName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (available: %s, all)\n", name, strings.Join(names, ", "))
			os.Exit(2)
		}
		fmt.Printf("\n════ %s — %s ════\n", strings.ToUpper(e.name), e.title)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.name, err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// verdict prints a ✓/✗ line and returns an error on failure.
func verdict(ok bool, format string, args ...any) error {
	mark := "✓"
	if !ok {
		mark = "✗"
	}
	fmt.Printf("  %s %s\n", mark, fmt.Sprintf(format, args...))
	if !ok {
		return fmt.Errorf("check failed: %s", fmt.Sprintf(format, args...))
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
