// Benchmarks regenerating the reproduction's experiments (see
// EXPERIMENTS.md for the experiment index). The paper itself reports no
// empirical tables, so the benchmark harness covers (a) the figure- and
// example-level artifacts as micro-benchmarks of the theory machinery,
// and (b) the quantitative scheduler experiments B1-B4 with custom
// metrics (virtual makespan, committed processes, throughput) reported
// through testing.B.
//
// Run with:
//
//	go test -bench=. -benchmem
package transproc_test

import (
	"fmt"
	"testing"

	"transproc"
	"transproc/internal/metrics"
	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// --- Theory micro-benchmarks (figures & examples) -------------------------

// BenchmarkE1_ValidExecutions enumerates P1's executions (Figure 3).
func BenchmarkE1_ValidExecutions(b *testing.B) {
	p1 := paper.P1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := process.Executions(p1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1_GuaranteedTermination runs the exhaustive validator on P1.
func BenchmarkE1_GuaranteedTermination(b *testing.B) {
	p1 := paper.P1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := process.ValidateGuaranteedTermination(p1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_Completion computes C(P1) in F-REC (Example 2).
func BenchmarkE2_Completion(b *testing.B) {
	in := process.NewInstance(paper.P1())
	in.MarkCommitted(1)
	in.MarkCommitted(2)
	in.MarkCommitted(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.Completion(); err != nil {
			b.Fatal(err)
		}
	}
}

func fig4aSchedule() *schedule.Schedule {
	s := schedule.MustNew(paper.Conflicts(), paper.P1(), paper.P2())
	return s.MustPlay(
		schedule.Ok("P1", 1), schedule.Ok("P2", 1), schedule.Ok("P2", 2),
		schedule.Ok("P2", 3), schedule.Ok("P1", 2), schedule.Ok("P1", 3),
		schedule.Ok("P2", 4),
	)
}

// BenchmarkE3_Serializability checks the Figure 4(a) serialization graph.
func BenchmarkE3_Serializability(b *testing.B) {
	s := fig4aSchedule()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.Serializable() {
			b.Fatal("must be serializable")
		}
	}
}

// BenchmarkE4_CompletedSchedule builds S̃_t2 (Example 5).
func BenchmarkE4_CompletedSchedule(b *testing.B) {
	s := fig4aSchedule()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Completed(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_Reduction reduces S̃_t2 (Example 6).
func BenchmarkE6_Reduction(b *testing.B) {
	s := fig4aSchedule()
	comp, err := s.Completed()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if red := comp.Reduce(); !red.Serial {
			b.Fatal("must reduce to serial")
		}
	}
}

// BenchmarkE8_PREDCheck runs the full prefix-reducibility check on the
// Figure 4(a) schedule (which fails at prefix 4, Example 8).
func BenchmarkE8_PREDCheck(b *testing.B) {
	s := fig4aSchedule()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, at, _, err := s.PRED()
		if err != nil {
			b.Fatal(err)
		}
		if ok || at != 4 {
			b.Fatal("expected failure at prefix 4")
		}
	}
}

// BenchmarkPREDCheckLarge measures the checker on a scheduler-produced
// workload schedule (hundreds of events).
func BenchmarkPREDCheckLarge(b *testing.B) {
	p := workload.DefaultProfile(7)
	p.Processes = 12
	p.ConflictProb = 0.4
	w := workload.MustGenerate(p)
	eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED})
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.RunJobs(w.Jobs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Schedule.Len()), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _, _, err := res.Schedule.PRED()
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// --- B1: scheduler comparison ----------------------------------------------

func benchProfile(conflict, fail float64) workload.Profile {
	p := workload.DefaultProfile(42)
	p.Processes = 24
	if testing.Short() {
		p.Processes = 8
	}
	p.ConflictProb = conflict
	p.PermFailureProb = fail
	return p
}

func runScheduler(b *testing.B, mode scheduler.Mode, p workload.Profile) {
	b.Helper()
	var last *scheduler.Result
	for i := 0; i < b.N; i++ {
		w := workload.MustGenerate(p)
		eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: mode})
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.RunJobs(w.Jobs)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(float64(last.Metrics.Makespan), "vticks")
		b.ReportMetric(float64(last.Metrics.CommittedProcs), "committed")
		b.ReportMetric(last.Metrics.Throughput(), "proc/ktick")
	}
}

// BenchmarkSchedulers compares all scheduler modes on the same workload
// (experiment B1). The custom metrics carry the paper-level result: the
// PRED scheduler's virtual makespan beats serial and conservative
// locking while preserving correctness; CC-only is fast but unsafe.
func BenchmarkSchedulers(b *testing.B) {
	for _, mode := range []scheduler.Mode{
		scheduler.Serial, scheduler.Conservative, scheduler.CCOnly, scheduler.PRED,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			runScheduler(b, mode, benchProfile(0.4, 0.08))
		})
	}
}

// BenchmarkConflictSweep sweeps the conflict probability for the PRED
// and serial schedulers (experiment B1, crossover axis).
func BenchmarkConflictSweep(b *testing.B) {
	for _, c := range []float64{0.0, 0.2, 0.4, 0.6, 0.8} {
		for _, mode := range []scheduler.Mode{scheduler.Serial, scheduler.PRED} {
			b.Run(fmt.Sprintf("c%.1f/%s", c, mode), func(b *testing.B) {
				runScheduler(b, mode, benchProfile(c, 0.08))
			})
		}
	}
}

// BenchmarkFailureSweep sweeps the permanent failure probability
// (experiment B1, recovery axis).
func BenchmarkFailureSweep(b *testing.B) {
	for _, f := range []float64{0.0, 0.1, 0.2, 0.3} {
		b.Run(fmt.Sprintf("f%.1f/pred", f), func(b *testing.B) {
			runScheduler(b, scheduler.PRED, benchProfile(0.4, f))
		})
	}
}

// --- B2/B3: deferred-commit (quasi-commit) ablation ------------------------

// BenchmarkQuasiCommitAblation compares executing non-compensatable
// activities into the prepared state (deferred 2PC commit, the paper's
// prescription) against blocking them outright.
func BenchmarkQuasiCommitAblation(b *testing.B) {
	for _, v := range []struct {
		name string
		cfg  scheduler.Config
	}{
		{"defer-2pc", scheduler.Config{Mode: scheduler.PRED}},
		{"block-pivots", scheduler.Config{Mode: scheduler.PRED, BlockPivots: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			p := benchProfile(0.5, 0.0)
			var last *scheduler.Result
			for i := 0; i < b.N; i++ {
				w := workload.MustGenerate(p)
				eng, err := scheduler.New(w.Fed, v.cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := eng.RunJobs(w.Jobs)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Metrics.Makespan), "vticks")
			b.ReportMetric(float64(last.Metrics.Deferrals), "deferrals")
		})
	}
}

// --- B4: crash recovery -----------------------------------------------------

// BenchmarkCrashRecovery measures full crash recovery (WAL analysis,
// 2PC resolution, group abort) after a mid-run crash.
func BenchmarkCrashRecovery(b *testing.B) {
	p := benchProfile(0.4, 0.05)
	p.Processes = 12
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := workload.MustGenerate(p)
		eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED, CrashAfterEvents: 20})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RunJobs(w.Jobs); err == nil {
			b.Fatal("expected crash")
		}
		defs := make([]*transproc.Process, 0, len(w.Jobs))
		for _, j := range w.Jobs {
			defs = append(defs, j.Proc)
		}
		b.StartTimer()
		if _, err := scheduler.Recover(w.Fed, eng.Log(), defs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineInstrumentation measures the cost of the observability
// layer on the full scheduler: "noop" runs with no registry (the
// default nil no-op sink — its per-call overhead must be a nil check
// and nothing else), "instrumented" with a live registry recording
// counters, histograms and the decision trace.
func BenchmarkEngineInstrumentation(b *testing.B) {
	for _, v := range []struct {
		name string
		reg  func() *metrics.Registry
	}{
		{"noop", func() *metrics.Registry { return nil }},
		{"instrumented", metrics.New},
	} {
		b.Run(v.name, func(b *testing.B) {
			p := benchProfile(0.4, 0.08)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := workload.MustGenerate(p)
				eng, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED, Metrics: v.reg()})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.RunJobs(w.Jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALAppend measures write-ahead log throughput (in-memory).
func BenchmarkWALAppend(b *testing.B) {
	log := wal.NewMemLog()
	rec := wal.Record{Type: wal.RecDispatch, Proc: "P1", Local: 3, Service: "svc"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := log.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALFileAppend measures the file-backed log without fsync.
func BenchmarkWALFileAppend(b *testing.B) {
	log, err := wal.OpenFile(b.TempDir()+"/bench.wal", false)
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	rec := wal.Record{Type: wal.RecDispatch, Proc: "P1", Local: 3, Service: "svc"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := log.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
