package scheduler_test

import (
	"fmt"
	"testing"

	"transproc/internal/scheduler"
	"transproc/internal/workload"
)

// BenchmarkEngineBacklog runs BenchmarkRuntimeBacklog's jobs (200
// processes of DefaultProfile at conflict 0.3, no failures, seed i*31+7
// for iteration i) through the sequential engine under PRED. Only
// RunJobs is timed: generating the workload and building the engine are
// not. policyWaits is the mean number of dispatches and recovery steps
// the policy denied per run, and waits/invocation the same per
// invocation: each counts one denial of a process the engine asked,
// which it asks only when the wait index woke it.
func BenchmarkEngineBacklog(b *testing.B) {
	for _, procs := range []int{200} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var waits, invocations int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := workload.DefaultProfile(int64(i)*31 + 7)
				p.Processes = procs
				p.ConflictProb = 0.3
				p.PermFailureProb = 0
				p.TransientFailureProb = 0
				w := workload.MustGenerate(p)
				e, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := e.RunJobs(w.Jobs)
				if err != nil {
					b.Fatal(err)
				}
				waits += res.Metrics.PolicyWaits
				invocations += res.Metrics.Invocations
			}
			b.ReportMetric(float64(waits)/float64(b.N), "policyWaits")
			b.ReportMetric(float64(waits)/float64(invocations), "waits/invocation")
		})
	}
}
