package battery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"transproc/internal/chaos"
	"transproc/internal/fault"
	"transproc/internal/metrics"
	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/runtime"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// ChaosScenario is one fully determined chaos case: a seeded workload (or a
// directed paper fixture), a transport-fault plan and the engine to run it
// under. chaosScenarioFor(seed) is a pure function, so a failing seed
// reproduces the exact same scenario anywhere.
type ChaosScenario struct {
	Seed  int64
	Class string
	// Engine selects the execution engine: "engine" (sequential) or
	// "runtime" (concurrent).
	Engine string
	Plan   chaos.Plan
	// CrashAfterWAL, when positive, composes the chaos transport with the
	// crash injector: the run dies after that many WAL appends and must
	// recover (fault.CheckRecovered judges the result).
	CrashAfterWAL int
	// GroupCommit, when enabled, wraps the sequential engine's log in
	// the group appender so chaos (and mid-chaos crashes) also run
	// through shared syncs. The runtime groups its syncs on every log
	// with a sync phase — a crash-armed one included — regardless.
	GroupCommit wal.GroupCommit
}

// chaosScenarioFor derives the deterministic scenario of a seed. Eight
// classes cycle by seed: transient storms, timeout ambiguity, duplicate
// deliveries, latency spikes, a sustained outage steering the CIM
// construction process onto its ◁ alternative, a sustained outage
// forcing the CIM production process into backward recovery, a mixed
// plan under the concurrent runtime, and chaos composed with a
// mid-chaos crash plus recovery.
func chaosScenarioFor(seed int64) ChaosScenario {
	rng := rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))
	sc := ChaosScenario{Seed: seed, Engine: "engine"}
	if seed%2 == 1 {
		sc.GroupCommit = wal.GroupCommit{MaxBatch: 2 + rng.Intn(15)}
	}
	sc.Plan.Seed = seed
	switch seed % 8 {
	case 0:
		sc.Class = "transient-storm"
		sc.Plan.PTransient = 0.15 + 0.25*rng.Float64()
		sc.Plan.PSlow = 0.10
	case 1:
		sc.Class = "timeout-ambiguity"
		sc.Plan.PTimeout = 0.20 + 0.20*rng.Float64()
		sc.Plan.PTransient = 0.05
	case 2:
		sc.Class = "duplicate-delivery"
		sc.Plan.PDuplicate = 0.25 + 0.15*rng.Float64()
		sc.Plan.PTransient = 0.05
	case 3:
		sc.Class = "latency-spike"
		sc.Plan.PSlow = 0.35 + 0.25*rng.Float64()
		sc.Plan.SlowTicks = int64(8 + rng.Intn(40))
		sc.Plan.PTransient = 0.05
	case 4:
		sc.Class = "outage-failover"
		// The PDM never answers: enterBOM (compensatable) fails at the
		// transport, and the construction process must take its ◁
		// alternative (document the CAD drawing) instead of stalling.
		sc.Plan.Outages = []chaos.Outage{{Subsystem: "pdm", From: 0, To: 1 << 40}}
	case 5:
		sc.Class = "outage-backward"
		// The production floor never answers: produce (pivot, no
		// alternative) fails and the production process falls back to
		// backward recovery, compensating everything before the pivot.
		sc.Plan.Outages = []chaos.Outage{{Subsystem: "floor", From: 0, To: 1 << 40}}
	case 6:
		sc.Class = "runtime-mixed"
		sc.Engine = "runtime"
		sc.Plan.PTransient = 0.10 + 0.10*rng.Float64()
		sc.Plan.PTimeout = 0.08
		sc.Plan.PDuplicate = 0.08
		sc.Plan.PSlow = 0.05
	case 7:
		sc.Class = "chaos-crash"
		sc.Plan.PTransient = 0.12
		sc.Plan.PTimeout = 0.08
		sc.Plan.PDuplicate = 0.08
		sc.CrashAfterWAL = 5 + rng.Intn(120)
	}
	return sc
}

// chaosProfile is the generated workload the generic classes run.
func chaosProfile(seed int64) workload.Profile {
	p := workload.DefaultProfile(seed)
	p.Processes = 10
	p.ConflictProb = 0.35
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.05
	return p
}

// chaosFixtures builds the scenario's federation and jobs.
func chaosFixtures(sc ChaosScenario) (*subsystem.Federation, []scheduler.Job, error) {
	switch sc.Class {
	case "outage-failover":
		fed := paper.CIMFederation(sc.Seed)
		var jobs []scheduler.Job
		for i := 1; i <= 8; i++ {
			jobs = append(jobs, scheduler.Job{
				Proc: paper.CIMConstruction(process.ID(fmt.Sprintf("C%d", i))),
			})
		}
		return fed, jobs, nil
	case "outage-backward":
		fed := paper.CIMFederation(sc.Seed)
		var jobs []scheduler.Job
		for i := 1; i <= 4; i++ {
			jobs = append(jobs, scheduler.Job{
				Proc: paper.CIMProduction(process.ID(fmt.Sprintf("M%d", i))),
			})
		}
		return fed, jobs, nil
	default:
		w, err := workload.Generate(chaosProfile(sc.Seed))
		if err != nil {
			return nil, nil, err
		}
		return w.Fed, w.Jobs, nil
	}
}

// runChaosScenario executes one scenario end to end and checks every
// resilience invariant; the returned error describes the violated one
// and embeds the reproducing seed. nil means the scenario passed.
func runChaosScenario(sc ChaosScenario) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("seed %d (%s): %s", sc.Seed, sc.Class, fmt.Sprintf(format, args...))
	}
	fed, jobs, err := chaosFixtures(sc)
	if err != nil {
		return fail("fixtures: %v", err)
	}
	defs := make([]*process.Process, 0, len(jobs))
	for _, j := range jobs {
		defs = append(defs, j.Proc)
	}
	reg := metrics.New()
	tr := chaos.NewTransport(fed, sc.Plan, reg)

	// The run writes through the (possibly crash-armed) wrapper; recovery
	// and checks read and write the backend directly — the wrapper drops
	// post-crash appends, as a crashed system must.
	backend := wal.NewMemLog()
	var log wal.Log = backend
	if sc.CrashAfterWAL > 0 {
		log = fault.WrapWAL(backend, sc.CrashAfterWAL)
	}

	var res chaosResult
	crashed := false
	switch sc.Engine {
	case "runtime":
		r, nerr := runtime.New(fed, runtime.Config{
			Mode: scheduler.PRED, Log: log, MaxRestarts: 64,
			Metrics: reg, Resilience: tr,
		})
		if nerr != nil {
			return fail("new runtime: %v", nerr)
		}
		out, rerr := r.Run(context.Background(), jobs)
		if rerr != nil {
			if errors.Is(rerr, scheduler.ErrCrashed) && sc.CrashAfterWAL > 0 {
				crashed = true
			} else {
				return fail("run: %v", rerr)
			}
		}
		if out != nil {
			res = chaosResult{sched: out.Schedule, metrics: out.Metrics, outcomes: out.Outcomes}
		}
	default:
		eng, nerr := scheduler.New(fed, scheduler.Config{
			Mode: scheduler.PRED, Log: log, MaxRestarts: 64,
			Metrics: reg, Resilience: tr, GroupCommit: sc.GroupCommit,
		})
		if nerr != nil {
			return fail("new engine: %v", nerr)
		}
		out, rerr := eng.RunJobs(jobs)
		if rerr != nil {
			if errors.Is(rerr, scheduler.ErrCrashed) && sc.CrashAfterWAL > 0 {
				crashed = true
			} else {
				return fail("run: %v", rerr)
			}
		}
		if out != nil {
			res = chaosResult{sched: out.Schedule, metrics: out.Metrics, outcomes: out.Outcomes}
		}
	}

	// Recovery: crashed runs must be repaired; clean runs must make it a
	// no-op. Recovery runs on the reliable path (no chaos), as a
	// restarted scheduler would.
	preRecs, err := backend.Records()
	if err != nil {
		return fail("reading log: %v", err)
	}
	pre := len(preRecs)
	if _, err := scheduler.Recover(fed, backend, defs); err != nil {
		return fail("recovery: %v", err)
	}
	if err := fault.CheckRecovered(fault.CheckInput{
		Fed: fed, Log: backend, Defs: defs, PreCrashRecords: pre,
	}); err != nil {
		return fail("%v", err)
	}

	// Live-run invariants (the observed schedule only exists for clean
	// runs; a crashed run is judged through its log above).
	if !crashed {
		if res.sched == nil {
			return fail("clean run returned no schedule")
		}
		ok, at, _, perr := res.sched.PRED()
		if perr != nil {
			return fail("PRED check: %v", perr)
		}
		if !ok {
			return fail("observed schedule not prefix-reducible (prefix %d)", at)
		}
		for id, o := range res.outcomes {
			if !o.Committed && !o.Aborted {
				return fail("process %s not terminal", id)
			}
		}
	}

	// Lemma 2 over the whole log: conflicting (or same-process)
	// compensations must run in reverse order of their bases' commits.
	if err := checkCompensationOrder(fed, preRecs); err != nil {
		return fail("%v", err)
	}

	if err := tr.CheckConsistent(); err != nil {
		return fail("%v", err)
	}

	return checkChaosClass(sc, fed, tr.Stats(), res, fail)
}

// chaosResult is the engine-independent slice of a run result the checks
// need.
type chaosResult struct {
	sched    *schedule.Schedule
	metrics  scheduler.Metrics
	outcomes map[process.ID]*scheduler.Outcome
}

// checkChaosClass asserts the scenario class did what it is named for.
func checkChaosClass(sc ChaosScenario, fed *subsystem.Federation, ts chaos.TransportStats, res chaosResult, fail func(string, ...any) error) error {
	switch sc.Class {
	case "transient-storm":
		if ts.Attempts >= 30 && ts.Transient == 0 {
			return fail("class assert: no transient failures injected over %d attempts", ts.Attempts)
		}
	case "timeout-ambiguity":
		if ts.Attempts >= 30 && ts.Timeouts == 0 {
			return fail("class assert: no timeouts injected over %d attempts", ts.Attempts)
		}
	case "duplicate-delivery":
		if ts.Attempts >= 30 && ts.Duplicates == 0 {
			return fail("class assert: no duplicates injected over %d attempts", ts.Attempts)
		}
		// Exactly-once mechanics: delivered duplicates must show up as
		// idempotent replays, never as second executions.
		var replays int64
		for _, sub := range fed.Subsystems() {
			_, r := sub.IdemStats()
			replays += r
		}
		if ts.Duplicates >= 3 && replays == 0 {
			return fail("class assert: %d duplicate deliveries but zero idempotent replays", ts.Duplicates)
		}
	case "latency-spike":
		if ts.Attempts >= 30 && ts.Slow == 0 {
			return fail("class assert: no latency spikes injected over %d attempts", ts.Attempts)
		}
	case "outage-failover":
		// The ◁-path assertion of the battery: with the PDM dead, every
		// construction process must still commit — via the docCAD
		// alternative.
		for id, o := range res.outcomes {
			if !o.Committed {
				return fail("class assert: process %s did not commit despite ◁ alternative", id)
			}
		}
		alt := 0
		for _, ev := range res.sched.Events() {
			if ev.Type == schedule.Invoke && ev.Service == paper.SvcDocCAD {
				alt++
			}
		}
		if alt == 0 {
			return fail("class assert: no process took the %s ◁ alternative", paper.SvcDocCAD)
		}
	case "outage-backward":
		// No alternative avoids the floor: every production process must
		// terminate via backward recovery, compensating its
		// pre-pivot work.
		for id, o := range res.outcomes {
			if !o.Aborted {
				return fail("class assert: process %s did not abort despite dead pivot subsystem", id)
			}
		}
		if res.metrics.Compensations < 3 {
			return fail("class assert: only %d compensations (want >= 3 per aborted process)", res.metrics.Compensations)
		}
	case "runtime-mixed":
		if ts.Attempts == 0 {
			return fail("class assert: runtime run made no transport attempts")
		}
	case "chaos-crash":
		// Judged by CheckRecovered above.
	}
	return nil
}

// Chaos is the unreliable-subsystem battery: flaky transport, the
// driver's typed re-invocation and ◁-path failover through both engines,
// judged by fault.CheckRecovered, PRED of the observed schedule, the
// Lemma-2 log check and the transport's own accounting.
var Chaos = &Battery{
	Name: "chaos",
	Classes: []string{
		"transient-storm", "timeout-ambiguity", "duplicate-delivery", "latency-spike",
		"outage-failover", "outage-backward", "runtime-mixed", "chaos-crash",
	},
	ScenarioFor: func(seed int64, _ Variants) (string, string) {
		sc := chaosScenarioFor(seed)
		return sc.Class, fmt.Sprintf("%+v", sc)
	},
	Run: func(seed int64, _ Variants, _ string) (Stats, error) {
		return nil, runChaosScenario(chaosScenarioFor(seed))
	},
}

// checkCompensationOrder asserts Lemma 2 over a run's log: when two
// compensations undo base activities that conflict (or belong to the
// same process) and both bases executed before either compensation ran,
// the compensations must run in reverse order of their bases. A base
// that only executed after the other compensation belongs to a later,
// independent episode and is unconstrained.
func checkCompensationOrder(fed *subsystem.Federation, recs []wal.Record) error {
	table, err := fed.ConflictTable()
	if err != nil {
		return fmt.Errorf("conflict table: %w", err)
	}
	type comp struct {
		proc    string
		local   int
		pos     int // compensation position in the log
		basePos int // base execution position in the log
		baseSvc string
	}
	svc := make(map[string]string)  // proc/local -> base service
	basePos := make(map[string]int) // proc/local -> latest execution position
	var comps []comp
	for i, r := range recs {
		key := fmt.Sprintf("%s/%d", r.Proc, r.Local)
		switch {
		case r.Type == wal.RecDispatch:
			svc[key] = r.Service
		case r.Type == wal.RecOutcome && (r.Outcome == "prepared" || r.Outcome == "committed"):
			// Execution (serialization) order, not 2PC-resolution order:
			// a deferred commit resolves at process termination, long
			// after the local transaction took its locks.
			basePos[key] = i
		case r.Type == wal.RecCompensate:
			b, known := basePos[key]
			if !known {
				return fmt.Errorf("compensated %s whose base execution is not in the log", key)
			}
			comps = append(comps, comp{proc: r.Proc, local: r.Local, pos: i, basePos: b, baseSvc: svc[key]})
		}
	}
	for i := 0; i < len(comps); i++ {
		for j := i + 1; j < len(comps); j++ {
			a, b := comps[i], comps[j]
			// Lemma 2 orders compensations of *conflicting* bases;
			// non-conflicting ones (e.g. parallel siblings of one
			// process) may compensate in any order.
			related := a.baseSvc != "" && b.baseSvc != "" &&
				table.Conflicts(a.baseSvc, b.baseSvc)
			// Violation: conflicting bases, executed a-then-b, both live
			// when a's compensation ran, yet a was compensated first.
			if related && a.basePos < b.basePos && b.basePos < a.pos {
				return fmt.Errorf("Lemma 2 violated: compensation of %s/%d (base @%d) before %s/%d (base @%d)",
					a.proc, a.local, a.basePos, b.proc, b.local, b.basePos)
			}
		}
	}
	return nil
}
