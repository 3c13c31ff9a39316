package sim

import (
	"fmt"

	"transproc/internal/chaos"
	"transproc/internal/metrics"
	"transproc/internal/scheduler"
	"transproc/internal/workload"
)

// ResilienceSweep runs the same workload behind the fault-injecting
// transport at increasing outage rates (experiment E13): every
// invocation independently fails to reach its subsystem with
// probability rate (a quarter of those as ambiguous timeouts), and the
// driver's typed re-invocation and ◁-path recovery must keep every
// process terminating. The table reports the throughput cost of
// unreliability and the work spent on it: the driver's re-invocations
// of failed retriable work and recovery steps, and lost replies
// recovered through the idempotency table.
func ResilienceSweep(p workload.Profile, rates []float64) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("E13 resilience sweep (procs=%d, conflict=%.2f, seed=%d, mode pred)",
			p.Processes, p.ConflictProb, p.Seed),
		Columns: []string{"outageRate", "makespan", "throughput", "committed", "aborted",
			"terminated", "retries", "recovered"},
	}
	for _, rate := range rates {
		w, err := workload.Generate(p)
		if err != nil {
			return nil, err
		}
		reg := metrics.New()
		plan := chaos.Plan{Seed: p.Seed, PTransient: rate * 0.75, PTimeout: rate * 0.25}
		tr := chaos.NewTransport(w.Fed, plan, reg)
		eng, err := scheduler.New(w.Fed, scheduler.Config{
			Mode: scheduler.PRED, Metrics: reg, Resilience: tr,
		})
		if err != nil {
			return nil, err
		}
		res, err := eng.RunJobs(w.Jobs)
		if err != nil {
			return nil, fmt.Errorf("sim: resilience rate %.2f: %w", rate, err)
		}
		terminated := 0
		for _, o := range res.Outcomes {
			if o.Committed || o.Aborted {
				terminated++
			}
		}
		m := res.Metrics
		t.AddRow(fmt.Sprintf("%.2f", rate),
			fmt.Sprintf("%d", m.Makespan),
			fmt.Sprintf("%.2f", m.Throughput()),
			fmt.Sprintf("%d", m.CommittedProcs),
			fmt.Sprintf("%d", m.AbortedProcs),
			fmt.Sprintf("%d/%d", terminated, len(res.Outcomes)),
			fmt.Sprintf("%d", m.Retries),
			fmt.Sprintf("%d", tr.Stats().RepliesRecovered))
	}
	return t, nil
}
