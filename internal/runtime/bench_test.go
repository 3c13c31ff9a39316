package runtime_test

import (
	"context"
	"fmt"
	gort "runtime"
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

// allocsPerProc is TestRunAllocationsPerProcess's bound: 25.6 measured
// with the job set's shapes proven before the run (34.8 with them
// explored in it, 61.5 before names were resolved once), plus 10 %.
const allocsPerProc = 28

// TestRunAllocationsPerProcess bounds what Run allocates per process on
// the 200-process rt-long profile of BenchmarkRuntimeBacklog (job
// validation included, against shapes already proven; workload
// generation and runtime.New not): each
// name resolves once at admission, and the lock table, the routes and a
// process's in-flight and prepared work allocate nothing per call.
func TestRunAllocationsPerProcess(t *testing.T) {
	const procs = 200
	p := workload.DefaultProfile(7)
	p.Processes = procs
	p.ConflictProb = 0.3
	p.PermFailureProb = 0
	p.TransientFailureProb = 0
	w := workload.MustGenerate(p)
	r, err := runtime.New(w.Fed, runtime.Config{Mode: scheduler.PRED, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Prove the job set's shapes first: whether an earlier test proved
	// them depends on the order tests run in.
	if err := scheduler.ValidateJobs(w.Fed, w.Jobs); err != nil {
		t.Fatal(err)
	}
	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	res, err := r.Run(context.Background(), w.Jobs)
	gort.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Metrics.CommittedProcs + res.Metrics.AbortedProcs; n != procs {
		t.Fatalf("%d of %d processes terminated", n, procs)
	}
	perProc := float64(after.Mallocs-before.Mallocs) / procs
	t.Logf("%.1f allocations per process", perProc)
	if perProc > allocsPerProc {
		t.Fatalf("Run allocates %.1f times per process, want at most %d", perProc, allocsPerProc)
	}
}
