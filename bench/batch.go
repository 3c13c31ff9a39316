package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"syscall"
	"time"

	"transproc/internal/fault"
	"transproc/internal/federation"
	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/runtime"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/serve"
	"transproc/internal/spec"
	"transproc/internal/store"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// batchSpec describes one closed-batch workload: a generated job set
// run to completion by the concurrent runtime or by a federation
// cluster, once per rep on fresh inputs.
type batchSpec struct {
	name, why string
	procs     int
	conflict  float64
	permFail  float64
	transFail float64
	durable   bool // file WAL with fsync + group commit, one heap file per subsystem
	nodes     int  // > 0: federation cluster of that many nodes
	minReps   int
}

// engineWorkers is the runtime's admission cap on every workload.
const engineWorkers = 8

// groupCommit is the batching of every fsynced log in the benchmark.
var groupCommit = wal.GroupCommit{MaxBatch: 16}

// batchRep is what one rep of a batch workload produced.
type batchRep struct {
	gen         *generated
	genTime     time.Duration
	setup, wall time.Duration
	submitted   int
	committed   int
	aborted     int
	nonTerminal int
	heapMB      float64
	device      modelSyncs // rt-durable: the modelled device's syncs during Run
	sched       *schedule.Schedule
	inDoubt     int
	err         error

	// traced extras
	m           scheduler.Metrics
	shardGroups int
	reg         *metrics.Registry
	walDevice   *meter // device-level log time (stage "wal")
	walCaller   *meter // caller-visible append latency
	journal     *meter
	devices     []*timedDevice
	records     int
	walBytes    int
	cpuSeconds  float64
	mallocs     uint64
	allocBytes  uint64
	gcCPUShare  float64
	runSpan     int64
}

func (b batchSpec) profile(scale int) workload.Profile {
	return baseProfile(max(b.procs/scale, 8), b.conflict, b.permFail, b.transFail)
}

// rep runs one rep on the stream-th input of the run seed. With a
// tracer it runs the traced variant: timing decorators around every
// log, journal and heap-file device, the metrics registry on, and
// process-level resource counters around Run.
func (b batchSpec) rep(o *options, stream int, tr *tracer) *batchRep {
	rep := &batchRep{}
	fail := func(err error) *batchRep { rep.err = err; return rep }
	traced := tr != nil
	root := tr.rep()
	dir := filepath.Join(o.dataDir, fmt.Sprintf("%s-%d", b.name, stream))

	setupScope, endSetup := root.begin("setup")
	_, endGen := setupScope.begin("generate")
	g, err := generate(b.profile(o.scale), o.seed, b.name, stream)
	rep.genTime = endGen()
	if err != nil {
		return fail(err)
	}
	rep.gen = g
	rep.submitted = len(g.defs)
	if traced {
		rep.reg = metrics.New()
		rep.walDevice = &meter{name: "wal"}
		rep.walCaller = rep.walDevice
		rep.journal = &meter{name: "journal"}
	}

	var closers []func() error
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		if b.durable {
			os.RemoveAll(dir)
		}
	}()

	// run is the timed region; post derives fates and the schedule from
	// what it left, outside it.
	var run, post func() error
	var keep any
	if b.nodes > 0 {
		cfg := federation.Config{Nodes: b.nodes, MaxRestarts: 8}
		if traced {
			cfg.Metrics = rep.reg
			cfg.NodeWAL = func(int) wal.Log { return newTimedBatchLog(wal.NewMemLog(), rep.walDevice) }
			cfg.HubJournal = &timedJournal{inner: federation.NewMemJournal(), m: rep.journal}
		}
		c, err := federation.NewCluster(g.w.Fed, g.defs, cfg)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, func() error { c.Close(); return nil })
		keep = c
		var res *federation.RunResult
		run = func() error { res = c.Run(); return nil }
		post = func() error {
			if res.HubErr != nil {
				return fmt.Errorf("hub: %w", res.HubErr)
			}
			for i, nerr := range res.NodeErrs {
				if nerr != nil {
					return fmt.Errorf("node %d: %w", i, nerr)
				}
			}
			rep.fold(res.Outcomes)
			if traced {
				rep.m = metricsFromRegistry(rep.reg)
			}
			recs, err := c.Stitched()
			if err != nil {
				return err
			}
			rep.records = len(recs)
			if traced {
				rep.walBytes = jsonlBytes(recs)
			}
			table, err := g.w.Fed.ConflictTable()
			if err != nil {
				return err
			}
			rep.sched, err = fault.ScheduleFromWAL(table, g.defs, recs, len(recs))
			return err
		}
	} else {
		cfg := runtime.Config{Mode: scheduler.PRED, Workers: engineWorkers}
		if traced {
			cfg.Metrics = rep.reg
		}
		switch {
		case b.durable:
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fail(err)
			}
			file, err := wal.OpenFile(filepath.Join(dir, "wal.log"), false)
			if err != nil {
				return fail(err)
			}
			closers = append(closers, file.Close)
			flog := modelLog{file, &rep.device}
			barrier := flog.Sync
			if traced {
				// device-level decorator under the group appender, a
				// caller-level one in front of it
				inner := newTimedBatchLog(flog, rep.walDevice)
				barrier = inner.Sync
				rep.walCaller = &meter{name: "wal.wait"}
				cfg.Log = &timedLog{inner: wal.NewGroupAppender(inner, groupCommit, nil), m: rep.walCaller}
			} else {
				cfg.Log = flog
				cfg.GroupCommit = groupCommit
			}
			for _, sub := range g.w.Fed.Subsystems() {
				fd, err := store.OpenFileDevice(filepath.Join(dir, sub.Name()+".pages"))
				if err != nil {
					return fail(err)
				}
				var dev store.Device = modelDevice{fd, &rep.device}
				opts := store.Options{Barrier: barrier}
				if traced {
					td := &timedDevice{inner: dev, m: &meter{name: "store"}}
					rep.devices = append(rep.devices, td)
					dev, opts.Metrics = td, rep.reg
				}
				st, err := store.Open(dev, opts)
				if err != nil {
					return fail(err)
				}
				closers = append(closers, st.Close)
				if err := sub.AttachStore(st); err != nil {
					return fail(err)
				}
			}
		case traced:
			cfg.Log = newTimedBatchLog(wal.NewMemLog(), rep.walDevice)
		}
		rt, err := runtime.New(g.w.Fed, cfg)
		if err != nil {
			return fail(err)
		}
		keep = rt
		var res *runtime.Result
		run = func() (err error) {
			if res, err = rt.Run(context.Background(), g.w.Jobs); err != nil || !b.durable {
				return err
			}
			// the batch is done when its state is on disk
			return g.w.Fed.FlushStores()
		}
		post = func() error {
			rep.fold(res.Outcomes)
			rep.m = res.Metrics
			rep.shardGroups = res.ShardGroups
			rep.sched = res.Schedule
			if traced {
				recs, err := cfg.Log.Records()
				if err != nil {
					return err
				}
				rep.walBytes = jsonlBytes(recs)
			}
			return nil
		}
	}
	rep.setup = endSetup()

	gort.GC()
	var before resources
	if traced {
		before = readResources()
	}
	runScope, endRun := root.begin("run")
	rep.runSpan = runScope.parent
	if traced {
		rep.walDevice.attach(runScope)
		rep.walCaller.attach(runScope)
		rep.journal.attach(runScope)
		for _, d := range rep.devices {
			d.m.attach(runScope)
		}
	}
	rep.device.n.Store(0) // opening the stores synced too
	rep.err = run()
	rep.wall = endRun()
	if rep.err == nil {
		rep.err = post()
	}
	if traced {
		after := readResources()
		rep.cpuSeconds = after.cpu - before.cpu
		rep.mallocs = after.mallocs - before.mallocs
		rep.allocBytes = after.allocBytes - before.allocBytes
		if rep.cpuSeconds > 0 {
			rep.gcCPUShare = (after.gcCPU - before.gcCPU) / rep.cpuSeconds
		}
	}
	rep.heapMB = retainedHeapMB(keep, rep)
	rep.inDoubt = len(g.w.Fed.InDoubt())
	return rep
}

// fold reduces per-incarnation outcomes (W3, W3+r1, …) to per-origin
// fates: an origin committed iff any incarnation did, aborted iff all
// its incarnations terminated without committing.
func (r *batchRep) fold(out map[process.ID]*scheduler.Outcome) {
	type fate struct{ committed, open bool }
	fates := make(map[string]*fate)
	for id, o := range out {
		origin := string(id)
		if i := strings.IndexByte(origin, '+'); i >= 0 {
			origin = origin[:i]
		}
		f := fates[origin]
		if f == nil {
			f = &fate{}
			fates[origin] = f
		}
		switch {
		case o.Committed:
			f.committed = true
		case !o.Aborted:
			f.open = true
		}
	}
	for _, d := range r.gen.defs {
		f := fates[string(d.ID)]
		switch {
		case f == nil, f.open && !f.committed:
			r.nonTerminal++
		case f.committed:
			r.committed++
		default:
			r.aborted++
		}
	}
}

// retainedHeapMB is HeapAlloc after two full collections (sync.Pool
// contents, such as encoding/json's buffers, survive the first) with
// the engine and its result still referenced.
func retainedHeapMB(keep ...any) float64 {
	gort.GC()
	gort.GC()
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	gort.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// resources are process-wide counters read around a traced Run.
type resources struct {
	cpu, gcCPU float64
	mallocs    uint64
	allocBytes uint64
}

func readResources() resources {
	var r resources
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		r.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	r.mallocs, r.allocBytes = ms.Mallocs, ms.TotalAlloc
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	return r
}

// metricsFromRegistry maps the registry's counters onto the fields of
// scheduler.Metrics the report uses; the federation returns no Metrics
// of its own.
func metricsFromRegistry(reg *metrics.Registry) scheduler.Metrics {
	return scheduler.Metrics{
		PolicyWaits:   reg.Counter(metrics.InvokePolicyBlocked),
		LockWaits:     reg.Counter(metrics.InvokeLockBlocked),
		Deferrals:     reg.Counter(metrics.CommitsDeferred),
		Compensations: reg.Counter(metrics.CompensationsIssued),
		TwoPCCommits:  reg.Counter(metrics.DeferredCommitted2PC),
		Rollbacks:     reg.Counter(metrics.DeferredRolledBack),
		Restarts:      reg.Counter(metrics.ProcsRestarted),
		VictimAborts:  reg.Counter(metrics.VictimAborts),
	}
}

// checkBatch is the output check of a rep, run outside every timed
// region: all processes terminal, fates add up, nothing in doubt, the
// observed schedule effectively serializable with no materialized
// process-recoverability violation, and — on the small canary only —
// fully prefix-reducible.
func checkBatch(r *report, rep *batchRep, label string, fullPRED bool) {
	if !checkFates(r, rep, label) {
		return
	}
	if rep.sched == nil {
		r.fail(1, "%s: no schedule to check", label)
		return
	}
	if !rep.sched.EffectiveSerializable() {
		r.fail(1, "%s: observed schedule is not effectively serializable", label)
	}
	if ok, vs := rep.sched.ProcessRecoverable(); !ok {
		for _, v := range vs {
			if rep.sched.ViolationMaterialized(v) {
				r.fail(1, "%s: materialized Proc-REC violation: %s", label, v.Detail)
				break
			}
		}
	}
	if fullPRED {
		ok, at, _, err := rep.sched.PRED()
		switch {
		case err != nil:
			r.fail(1, "%s: PRED check: %v", label, err)
		case !ok:
			r.fail(1, "%s: schedule not prefix-reducible (prefix %d)", label, at)
		}
	}
}

// checkFates is the part of the output check every rep gets: no error,
// all processes terminal, fates add up, nothing in doubt. It reports
// whether the rep ran at all.
func checkFates(r *report, rep *batchRep, label string) bool {
	if rep.err != nil {
		r.fail(max(rep.submitted, 1), "%s: %v", label, rep.err)
		return false
	}
	if rep.nonTerminal > 0 {
		r.fail(rep.nonTerminal, "%s: %d processes not terminal", label, rep.nonTerminal)
	}
	if rep.committed+rep.aborted+rep.nonTerminal != rep.submitted {
		r.fail(1, "%s: committed %d + aborted %d != submitted %d", label, rep.committed, rep.aborted, rep.submitted)
	}
	if rep.inDoubt > 0 {
		r.fail(rep.inDoubt, "%s: %d subsystems hold in-doubt transactions", label, rep.inDoubt)
	}
	return true
}

// canaryProcs is the size of the canary a full Schedule.PRED() is
// affordable on (the check costs 26 s at 120 processes).
const canaryProcs = 24

// run measures the workload for o.seconds: reps on fresh inputs until
// the budget is spent, then the output checks on the last rep and the
// canary. With o.trace it runs one untraced and one traced rep of the
// same input instead and fills the per-layer metrics.
func (b batchSpec) run(o *options, micro map[string]float64) *report {
	r := newReport(b.name, b.why)
	start := time.Now()
	var reps []*batchRep
	var cal calibration
	if o.trace {
		reps = append(reps, b.rep(o, 0, nil))
	} else {
		for i := 0; i < b.minReps || time.Since(start).Seconds() < o.seconds; i++ {
			reps = append(reps, b.rep(o, i, nil))
			if reps[i].err != nil {
				break
			}
			cal.sample(reps[i].setup + reps[i].wall)
			if i > 0 {
				// only the last rep's inputs and schedule are checked;
				// holding the earlier ones would count as retained heap
				reps[i-1].gen, reps[i-1].sched = nil, nil
			}
		}
	}
	var setup, wallMS, deviceMS, heap, commit []float64
	for _, rep := range reps {
		r.Attempted += rep.submitted
		if rep.err != nil {
			continue
		}
		setup = append(setup, rep.setup.Seconds())
		wallMS = append(wallMS, ms(rep.wall))
		deviceMS = append(deviceMS, ms(rep.device.busy()))
		heap = append(heap, rep.heapMB)
		commit = append(commit, float64(rep.committed)/float64(rep.submitted))
	}
	n := len(wallMS)
	r.Samples["wall_ms"], r.Samples["setup_s"], r.Samples["heap_mb"], r.Samples["ref_ms"] = wallMS, setup, heap, cal.passMS
	opMS := r.atReference(&cal, fasterHalf(wallMS), median(deviceMS), median(setup), n)
	// every rep submits the same number of processes and, the checks
	// below insist, brings all of them to a terminal state
	if n > 0 {
		r.E2E["procs_per_s"] = value{float64(reps[0].submitted) / (opMS / 1e3), n}
	}
	r.E2E["commit_share"] = value{median(commit), n}
	r.E2E["retained_heap_mb"] = value{median(heap), n}

	last := reps[len(reps)-1]
	for _, rep := range reps[:len(reps)-1] {
		checkFates(r, rep, "rep")
	}
	checkBatch(r, last, "last rep", false)
	canary := b
	canary.procs = canaryProcs * o.scale // stays 24 under -quick
	crep := canary.rep(o, 1<<20, nil)
	r.Attempted += crep.submitted
	checkBatch(r, crep, "canary", true)
	if last.gen != nil {
		r.Notes = append(r.Notes, fmt.Sprintf("%d processes per rep, realised conflict share %.3f (nominal %.2f, closest of %d candidate seeds)",
			last.submitted, last.gen.share, b.conflict, genCandidates))
	}

	if o.trace && last.err == nil {
		b.traced(o, r, last, micro)
	}
	return r
}

// traced runs the traced twin of the untraced rep and derives the
// per-layer metrics and the stage table from it.
func (b batchSpec) traced(o *options, r *report, plain *batchRep, micro map[string]float64) {
	// One pair of walls is a noisy ratio, so untraced and traced reps of
	// the same input alternate while half the budget lasts (at most
	// five pairs) and the overhead compares their medians. Everything
	// else is read off the last traced rep.
	start := time.Now()
	plainWalls := []float64{plain.wall.Seconds()}
	var tracedWalls []float64
	var t *batchRep
	for pair := 0; pair < 5 && (pair == 0 || time.Since(start).Seconds() < o.seconds/2); pair++ {
		if pair > 0 {
			u := b.rep(o, 0, nil)
			r.Attempted += u.submitted
			if u.err != nil {
				checkBatch(r, u, "untraced twin", false)
				return
			}
			plainWalls = append(plainWalls, u.wall.Seconds())
		}
		t = b.rep(o, 0, o.tr)
		r.Attempted += t.submitted
		if t.err != nil {
			break
		}
		tracedWalls = append(tracedWalls, t.wall.Seconds())
	}
	checkBatch(r, t, "traced rep", false)
	if t.err != nil {
		return
	}
	procs := float64(t.submitted)
	L := r.Layer
	r.UntracedWall, r.TracedWall = median(plainWalls), median(tracedWalls)
	L["trace_overhead_share"] = r.TracedWall/r.UntracedWall - 1

	L["policy.waits"] = float64(t.m.PolicyWaits)
	L["policy.deferrals"] = float64(t.m.Deferrals)
	L["runtime.shard_groups"] = float64(t.shardGroups)
	L["runtime.lock_waits"] = float64(t.m.LockWaits)
	L["runtime.restarts"] = float64(t.m.Restarts)
	L["runtime.victim_aborts"] = float64(t.m.VictimAborts)
	L["runtime.cpu_util"] = t.cpuSeconds / (t.wall.Seconds() * float64(gort.GOMAXPROCS(0)))
	L["runtime.allocs_per_proc"] = float64(t.mallocs) / procs
	L["runtime.alloc_kb_per_proc"] = float64(t.allocBytes) / 1024 / procs
	L["runtime.gc_cpu_share"] = t.gcCPUShare
	L["twopc.commits"] = float64(t.m.TwoPCCommits)
	L["twopc.rollbacks"] = float64(t.m.Rollbacks)

	var inv, aborts, denials int64
	for _, sub := range t.gen.w.Fed.Subsystems() {
		i, a, d := sub.Stats()
		inv, aborts, denials = inv+i, aborts+a, denials+d
	}
	L["subsystem.invocations"] = float64(inv)
	L["subsystem.aborts"] = float64(aborts)
	L["subsystem.lock_denials"] = float64(denials)
	if inv > 0 {
		L["subsystem.useful_ratio"] = max(0, float64(inv-aborts-t.m.Compensations)/float64(inv))
	}

	calls, _ := t.walCaller.snapshot()
	_, deviceBusy := t.walDevice.snapshot()
	appendUS := durationsUS(calls)
	L["wal.appends"] = float64(len(calls))
	L["wal.appends_per_proc"] = float64(len(calls)) / procs
	L["wal.append_busy_s"] = deviceBusy.Seconds()
	L["wal.append_p50_us"] = median(appendUS)
	L["wal.append_p99_us"] = percentile(appendUS, 0.99)
	L["wal.bytes_per_proc"] = float64(t.walBytes) / procs
	for _, d := range t.devices {
		_, busy := d.m.snapshot()
		L["store.busy_s"] += busy.Seconds()
		L["store.flushed_pages"] += float64(d.pageWrites())
	}

	if b.nodes > 0 {
		jcalls, jbusy := t.journal.snapshot()
		L["fed.journal_appends"] = float64(len(jcalls))
		L["fed.journal_busy_s"] = jbusy.Seconds()
		L["fed.node_wal_busy_s"] = deviceBusy.Seconds()
		L["fed.records_per_proc"] = float64(t.records) / procs
		one := b
		one.nodes = 1
		base := one.rep(o, 0, nil)
		r.Attempted += base.submitted
		checkBatch(r, base, "1-node baseline", false)
		if base.err == nil {
			L["fed.baseline_1node_procs_per_s"] = procs / base.wall.Seconds()
			L["fed.scaleout_ratio"] = base.wall.Seconds() / r.UntracedWall
		}
	}

	L["workload.generate_ms"] = ms(t.genTime)
	L["spec.submit_body_bytes"] = meanBodyBytes(t.gen.defs)
	if v, err := sequentialRate(t.gen); err != nil {
		r.fail(1, "sequential oracle: %v", err)
	} else {
		L["scheduler.seq_procs_per_s"] = v
	}

	r.Stages = buildStages(o.tr.spans(), t.runSpan, []string{"wal", "store", "journal"},
		[]stageRow{{"subsystem invoke (count × invoke_us)", float64(inv) * micro["subsystem.invoke_us"] / 1e6}},
		"policy + runtime (remainder)")
}

// jsonlBytes is the size of the records in the file log's format, one
// JSON document per line, whichever log held them.
func jsonlBytes(recs []wal.Record) int {
	n := 0
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			return 0
		}
		n += len(b) + 1
	}
	return n
}

// sequentialRate runs the sequential oracle on an untouched copy of
// the same jobs and returns terminated processes per wall second.
func sequentialRate(g *generated) (float64, error) {
	fresh, err := g.regenerate()
	if err != nil {
		return 0, err
	}
	eng, err := scheduler.New(fresh.w.Fed, scheduler.Config{Mode: scheduler.PRED})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := eng.RunJobs(fresh.w.Jobs); err != nil {
		return 0, err
	}
	return float64(len(fresh.defs)) / time.Since(start).Seconds(), nil
}

// submitBody is the POST /v1/processes body of one process.
func submitBody(p *process.Process) ([]byte, error) {
	return json.Marshal(serve.SubmitRequest{Tenant: "bench", Proc: spec.FromProcess(p)})
}

func meanBodyBytes(defs []*process.Process) float64 {
	total := 0
	for _, d := range defs {
		body, err := submitBody(d)
		if err != nil {
			return 0
		}
		total += len(body)
	}
	return float64(total) / float64(len(defs))
}
