package main

import "fmt"

// metricDef names one reported metric. Bound is the share of the
// earlier value by which the metric may get worse before -aa (and the
// driver, for the metrics also listed in BENCHMARK.json) calls it a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// contractE2E are the end-to-end metrics every workload reports on its
// JSON result line; BENCHMARK.json lists exactly these (a test keeps
// the two in step). They are the metrics that mean the same thing on
// all six workloads:
//
//   - op_ms is the time one caller waits for one operation: one Run on
//     the batch workloads and open + Recover (recover_ms) on
//     recover-50k, as the mean of the faster half of the reps; due →
//     Final (settle_p50_ms) on serve-open;
//   - procs_per_s is the processes of one operation over op_ms, and
//     goodput_per_s on serve-open.
var contractE2E = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"procs_per_s", "1/s", "higher", 0.25},
	{"commit_share", "share", "higher", 0.10},
	{"retained_heap_mb", "MB", "lower", 0.20},
	{"op_ms", "ms", "lower", 0.25},
}

// nativeE2E are the workload-specific end-to-end metrics of the human
// report, compared by -aa but absent from BENCHMARK.json because a
// metric listed there must exist, and never be 0, on every workload.
// failed_share is reported too, but as attempted/failed counts: it is 0
// on a passing run.
var nativeE2E = []metricDef{
	{"admit_p50_ms", "ms", "lower", 0.25},
	{"admit_p95_ms", "ms", "lower", 0.25},
	{"settle_p50_ms", "ms", "lower", 0.25},
	{"settle_p95_ms", "ms", "lower", 0.25},
	{"goodput_per_s", "1/s", "higher", 0.25},
	{"overload_shed_share", "share", "lower", 0.25},
	{"recover_ms", "ms", "lower", 0.25},
	{"recover_durable_ms", "ms", "lower", 0.25},
}

// perLayer are the traced-run metrics, named layer.metric after this
// repository's modules. A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"policy.decide_us_h100", "us", "lower", 0},
	{"policy.decide_us_h1k", "us", "lower", 0},
	{"policy.decide_us_h10k", "us", "lower", 0},
	{"policy.decide_allocs_h1k", "count", "lower", 0},
	{"policy.waits", "count", "lower", 0},
	{"policy.deferrals", "count", "lower", 0},

	{"runtime.shard_groups", "count", "higher", 0},
	{"runtime.lock_waits", "count", "lower", 0},
	{"runtime.restarts", "count", "lower", 0},
	{"runtime.victim_aborts", "count", "lower", 0},
	{"runtime.cpu_util", "share", "higher", 0},
	{"runtime.allocs_per_proc", "count", "lower", 0},
	{"runtime.alloc_kb_per_proc", "KB", "lower", 0},
	{"runtime.gc_cpu_share", "share", "lower", 0},

	{"scheduler.seq_procs_per_s", "1/s", "higher", 0},
	{"scheduler.recover_us_per_record", "us", "lower", 0},
	{"scheduler.recover_replayed_records", "count", "lower", 0},
	{"scheduler.recover_ckpt_ms", "ms", "lower", 0},
	{"scheduler.recover_durable_ms", "ms", "lower", 0},

	{"wal.appends", "count", "lower", 0},
	{"wal.appends_per_proc", "count", "lower", 0},
	{"wal.append_busy_s", "s", "lower", 0},
	{"wal.append_p50_us", "us", "lower", 0},
	{"wal.append_p99_us", "us", "lower", 0},
	{"wal.bytes_per_proc", "B", "lower", 0},
	{"wal.append_mem_us", "us", "lower", 0},
	{"wal.append_fsync_us", "us", "lower", 0},
	{"wal.append_group_us", "us", "lower", 0},
	{"wal.replay_us_per_record", "us", "lower", 0},

	{"store.put_us", "us", "lower", 0},
	{"store.get_hit_us", "us", "lower", 0},
	{"store.get_miss_us", "us", "lower", 0},
	{"store.flushed_pages", "count", "lower", 0},
	{"store.bytes_per_key", "B", "lower", 0},
	{"store.busy_s", "s", "lower", 0},

	{"subsystem.invocations", "count", "lower", 0},
	{"subsystem.aborts", "count", "lower", 0},
	{"subsystem.lock_denials", "count", "lower", 0},
	{"subsystem.invoke_us", "us", "lower", 0},
	{"subsystem.useful_ratio", "share", "higher", 0},
	{"twopc.commits", "count", "lower", 0},
	{"twopc.rollbacks", "count", "lower", 0},

	{"fed.wire_encode_ns", "ns", "lower", 0},
	{"fed.wire_decode_ns", "ns", "lower", 0},
	{"fed.rpc_rtt_us", "us", "lower", 0},
	{"fed.journal_appends", "count", "lower", 0},
	{"fed.journal_busy_s", "s", "lower", 0},
	{"fed.node_wal_busy_s", "s", "lower", 0},
	{"fed.records_per_proc", "count", "lower", 0},
	{"fed.baseline_1node_procs_per_s", "1/s", "higher", 0},
	{"fed.scaleout_ratio", "ratio", "higher", 0},

	{"serve.admit_inproc_us", "us", "lower", 0},
	{"serve.http_rtt_us", "us", "lower", 0},
	{"serve.engine_wal_busy_s", "s", "lower", 0},
	{"serve.gen_late_p99_us", "us", "lower", 0},
	{"serve.settle_p50_ms_r200", "ms", "lower", 0},
	{"serve.admit_p50_ms", "ms", "lower", 0},
	{"serve.admit_p95_ms", "ms", "lower", 0},
	{"serve.settle_p95_ms", "ms", "lower", 0},
	{"serve.overload_shed_share", "share", "lower", 0},

	{"workload.generate_ms", "ms", "lower", 0},
	{"spec.submit_body_bytes", "B", "lower", 0},

	{"trace_overhead_share", "share", "lower", 0},
}

func findMetric(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{contractE2E, nativeE2E, perLayer} {
		for _, d := range set {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// worseBy returns by what share of a the value b is worse than a in
// the metric's direction (negative when b is better).
func (d metricDef) worseBy(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		a = 1e-12
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// value is one reported number with the count of samples behind it.
type value struct {
	V float64
	N int
}

// report is what one workload run produced.
type report struct {
	Workload  string
	Why       string
	E2E       map[string]value
	Layer     map[string]float64
	Attempted int
	Failed    int
	Problems  []string
	Notes     []string
	Stages    *stageTable
	// Samples are the per-rep values behind the time-based metrics,
	// printed by -samples.
	Samples map[string][]float64
	// untracedWall / tracedWall of the paired reps of a traced run.
	UntracedWall, TracedWall float64
}

func newReport(name, why string) *report {
	return &report{Workload: name, Why: why, E2E: map[string]value{}, Layer: map[string]float64{}, Samples: map[string][]float64{}}
}

func (r *report) fail(n int, format string, args ...any) {
	r.Failed += n
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}
