package main

import (
	"fmt"
	"os"
	"strings"

	"transproc/internal/chaos"
	"transproc/internal/metrics"
	"transproc/internal/scheduler"
	"transproc/internal/workload"
)

// extractMetricsFlag strips -metrics[=text|json] (one or two dashes)
// from the argument list. It returns the requested format ("" when the
// flag is absent, "text" for the bare flag) and the remaining arguments.
func extractMetricsFlag(args []string) (format string, rest []string, err error) {
	for _, a := range args {
		name, value, hasValue := a, "", false
		if i := strings.IndexByte(a, '='); i >= 0 {
			name, value, hasValue = a[:i], a[i+1:], true
		}
		if name != "-metrics" && name != "--metrics" {
			rest = append(rest, a)
			continue
		}
		if !hasValue {
			value = "text"
		}
		if value != "text" && value != "json" {
			return "", nil, fmt.Errorf("invalid -metrics format %q (text|json)", value)
		}
		format = value
	}
	return format, rest, nil
}

// extractRuntimeFlag strips -runtime[=sequential|concurrent] (one or
// two dashes) from the argument list. It returns the selected engine
// ("" when absent, which means sequential) and the remaining arguments.
func extractRuntimeFlag(args []string) (engine string, rest []string, err error) {
	for _, a := range args {
		name, value, hasValue := a, "", false
		if i := strings.IndexByte(a, '='); i >= 0 {
			name, value, hasValue = a[:i], a[i+1:], true
		}
		if name != "-runtime" && name != "--runtime" {
			rest = append(rest, a)
			continue
		}
		if !hasValue {
			value = "concurrent"
		}
		if value != "sequential" && value != "concurrent" {
			return "", nil, fmt.Errorf("invalid -runtime engine %q (sequential|concurrent)", value)
		}
		engine = value
	}
	return engine, rest, nil
}

// dumpSnapshot writes the registry's snapshot to stdout in the
// requested format. The text report includes the last 20 decision-trace
// events as a readable tail.
func dumpSnapshot(reg *metrics.Registry, format string) error {
	if format == "json" {
		return reg.Snapshot().WriteJSON(os.Stdout)
	}
	reg.Snapshot().WriteText(os.Stdout, 20)
	return nil
}

// metricsDemo (bare "tpsim -metrics") runs a fault-injected workload
// under the instrumented PRED scheduler — behind a mildly flaky
// chaos transport so its counters (injected faults, idempotent
// replays, recovered replies) and the driver's re-invocations show up
// alongside the rest — and dumps the full observability snapshot:
// lifecycle counters, deferred-commit and compensation totals,
// per-service latency histograms, WAL totals and the tail of the
// decision trace.
func metricsDemo(format string) error {
	p := workload.DefaultProfile(7)
	p.PermFailureProb = 0.15
	w, err := workload.Generate(p)
	if err != nil {
		return err
	}
	reg := metrics.New()
	plan := chaos.Plan{Seed: p.Seed, PTransient: 0.12, PTimeout: 0.05, PDuplicate: 0.05, PSlow: 0.08}
	eng, err := scheduler.New(w.Fed, scheduler.Config{
		Mode: scheduler.PRED, Metrics: reg, Resilience: chaos.NewTransport(w.Fed, plan, reg),
	})
	if err != nil {
		return err
	}
	if _, err := eng.RunJobs(w.Jobs); err != nil {
		return err
	}
	if format == "text" {
		fmt.Printf("instrumented demo run: %d processes, conflict=%.2f, permFail=%.2f, seed=%d (mode pred, chaos transport)\n\n",
			p.Processes, p.ConflictProb, p.PermFailureProb, p.Seed)
	}
	return dumpSnapshot(reg, format)
}
