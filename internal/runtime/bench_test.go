package runtime_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"transproc/internal/runtime"
	"transproc/internal/scheduler"
	"transproc/internal/workload"
)

// BenchmarkRuntimeThroughput measures end-to-end process throughput of
// the concurrent runtime at different admission caps. Each iteration
// runs a freshly generated 24-process workload to completion; the Tick
// gives every service invocation a real duration, so the benchmark
// rewards overlap across subsystems rather than raw loop speed. The
// procs/sec metric is what BENCH_runtime.json records as the baseline:
// throughput should scale from 1 worker to 4 workers (the workload has
// 4 subsystems) and not collapse at 16.
func BenchmarkRuntimeThroughput(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var procs int
			start := time.Now()
			for i := 0; i < b.N; i++ {
				p := workload.DefaultProfile(int64(i)*31 + 7)
				p.Processes = 24
				p.ConflictProb = 0.3
				p.PermFailureProb = 0
				p.TransientFailureProb = 0
				w := workload.MustGenerate(p)
				r, err := runtime.New(w.Fed, runtime.Config{
					Mode:    scheduler.PRED,
					Workers: workers,
					Tick:    200 * time.Microsecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.Run(context.Background(), w.Jobs)
				if err != nil {
					b.Fatal(err)
				}
				procs += res.Metrics.CommittedProcs + res.Metrics.AbortedProcs
			}
			b.ReportMetric(float64(procs)/time.Since(start).Seconds(), "procs/sec")
		})
	}
}

// BenchmarkRuntimeBacklog measures what waiting jobs cost the running
// ones: the rt-long profile of bench/ (8 workers, Tick 0, conflict 0.3,
// no failures) at 200, 1,000 and 2,000 processes, so 192 to 1,992 jobs
// are pending throughout. procs/sec is over the whole Run calls, job
// validation included (workload generation and runtime.New are outside
// the clock), and must not fall with the backlog. A measurement, not a
// gate.
func BenchmarkRuntimeBacklog(b *testing.B) {
	for _, procs := range []int{200, 1000, 2000} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var done int
			var running time.Duration
			for i := 0; i < b.N; i++ {
				p := workload.DefaultProfile(int64(i)*31 + 7)
				p.Processes = procs
				p.ConflictProb = 0.3
				p.PermFailureProb = 0
				p.TransientFailureProb = 0
				w := workload.MustGenerate(p)
				r, err := runtime.New(w.Fed, runtime.Config{Mode: scheduler.PRED, Workers: 8})
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				res, err := r.Run(context.Background(), w.Jobs)
				running += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				done += res.Metrics.CommittedProcs + res.Metrics.AbortedProcs
			}
			b.ReportMetric(float64(done)/running.Seconds(), "procs/sec")
		})
	}
}
