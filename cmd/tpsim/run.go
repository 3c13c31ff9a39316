package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"transproc/internal/metrics"
	"transproc/internal/runtime"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/scheduler/policy"
	"transproc/internal/sim"
	"transproc/internal/spec"
)

// runSpecFile loads a declarative JSON definition and executes it under
// the requested mode (default pred), printing the schedule, a
// per-process timeline and the correctness verdicts. A non-empty
// metricsFormat ("text" or "json") attaches an observability registry
// and dumps its snapshot after the run. engine selects the execution
// engine: the sequential discrete-event scheduler (default) or the
// concurrent runtime.
func runSpecFile(path string, modeName string, metricsFormat string, engine string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fed, jobs, err := spec.Load(data)
	if err != nil {
		return err
	}
	mode, err := policy.ParseMode(modeName)
	if err != nil {
		return err
	}
	var reg *metrics.Registry
	if metricsFormat != "" {
		reg = metrics.New()
	}

	var sched *schedule.Schedule
	var m scheduler.Metrics
	if engine == "concurrent" {
		rt, err := runtime.New(fed, runtime.Config{
			Mode: mode, Metrics: reg, Tick: time.Millisecond,
		})
		if err != nil {
			return err
		}
		res, err := rt.Run(context.Background(), jobs)
		if err != nil {
			return err
		}
		sched, m = res.Schedule, res.Metrics
		fmt.Printf("mode: %v (concurrent runtime, %v elapsed)\n", mode, res.Elapsed.Round(time.Millisecond))
		fmt.Println("schedule:", sched)
	} else {
		eng, err := scheduler.New(fed, scheduler.Config{Mode: mode, Metrics: reg})
		if err != nil {
			return err
		}
		res, err := eng.RunJobs(jobs)
		if err != nil {
			return err
		}
		sched, m = res.Schedule, res.Metrics
		fmt.Printf("mode: %v\n", mode)
		fmt.Println("schedule:", sched)
		fmt.Print(sim.Gantt(res, 64))
	}
	fmt.Printf("makespan=%d committed=%d aborted=%d compensations=%d deferrals=%d 2pc=%d\n",
		m.Makespan, m.CommittedProcs, m.AbortedProcs, m.Compensations, m.Deferrals, m.TwoPCCommits)
	ok, at, _, err := sched.PRED()
	if err != nil {
		return err
	}
	if ok {
		fmt.Println("prefix-reducible: true")
	} else {
		fmt.Printf("prefix-reducible: FALSE (shortest bad prefix: %d)\n", at)
	}
	srl := sched.EffectiveSerializable()
	fmt.Println("serializable (committed projection):", srl)
	if n := len(fed.InDoubt()); n > 0 {
		fmt.Printf("WARNING: %d in-doubt transactions remain\n", n)
	}
	if reg != nil {
		fmt.Println()
		return dumpSnapshot(reg, metricsFormat)
	}
	return nil
}
