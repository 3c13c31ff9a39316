// The serve torture battery: seeded end-to-end crash scenarios against
// a real server over real HTTP. Each scenario generates a deterministic
// workload, submits it over the wire, kills the server at a seeded
// crash point (mid-request, mid-ack, mid-drain, mid-batch, inside the
// engines, inside a shared WAL sync, or under overload), restarts it
// over the same data directory, and judges the restart with
// fault.CheckRecovered over the server's WAL — then releases the resume
// set and asserts that every admitted submission settles to a terminal
// state with exactly-once effects and a prefix-reducible accumulated
// history. Every failure message embeds the reproducing seed.
package battery

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"transproc/internal/activity"
	"transproc/internal/fault"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/serve"
	"transproc/internal/spec"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// ServeScenario is one fully determined serve-torture case. serveScenarioFor is a
// pure function of the seed, so a failing seed reproduces the exact
// same scenario anywhere.
type ServeScenario struct {
	Seed  int64
	Class string
	// Plan arms the first server incarnation's crash (the injected
	// kill -9); the WAL-budget field is applied via Config.WrapLog.
	Plan fault.Plan
	// RerunBudget arms a second WAL budget on the restarted server, so
	// the resumed work crashes again (double restart).
	RerunBudget int
	// Overload shrinks the admission window and submits concurrently,
	// so the scenario sheds load before it crashes.
	Overload bool
	// DrainCrash calls Drain mid-flight and crashes inside it.
	DrainCrash bool
	// Park drains cleanly with a tiny deadline mid-flight, parking
	// queued submissions for the restart to resume.
	Park bool
	// RetryIndex, when >= 0, re-submits that submission's idempotency
	// key after the restart and requires a deduplicated answer.
	RetryIndex int
	// CheckpointEvery / CompactOnCheckpoint pass through to the engine.
	CheckpointEvery     int
	CompactOnCheckpoint bool
	// GroupCommit is passed to serve.Config, which ignores it: the
	// runtime shares syncs on the server's file log regardless.
	GroupCommit wal.GroupCommit
	// Procs and Tenants size the workload.
	Procs   int
	Tenants int
	// Tick slows virtual service time so drains and overloads catch
	// work in flight.
	Tick time.Duration
}

// serveClasses is the scenario-class cycle: ten seeds, nine classes
// (seeds ≡ 9 run wal-budget as well as seeds ≡ 3).
const serveClasses = 10

// serveScenarioFor derives the deterministic scenario of a seed. Nine
// classes cycle by seed: a crash after the journal append but before
// the enqueue (mid-request), after the enqueue but before the 202
// (mid-ack, followed by an idempotent retry after restart), inside the
// drain sequence, on a WAL record budget under load, at the engines'
// own force-log and 2PC points, in a shared WAL sync before it syncs,
// under overload with live shedding, a clean mid-flight drain that
// parks work for the restart, and a double crash where the restarted
// server dies again while re-running the resume set.
func serveScenarioFor(seed int64) ServeScenario {
	rng := rand.New(rand.NewSource(seed*2862933555777941757 + 3037000493))
	sc := ServeScenario{
		Seed: seed, RetryIndex: -1,
		Procs: 10, Tenants: 1 + int(seed%3),
	}
	if seed%2 == 1 {
		sc.GroupCommit = wal.GroupCommit{MaxBatch: 2 + rng.Intn(8)}
	}
	if seed%5 == 0 {
		sc.CheckpointEvery = 6 + rng.Intn(8)
		sc.CompactOnCheckpoint = seed%10 == 0
	}
	budget := 10 + rng.Intn(110)
	sc.Plan.Seed = seed
	switch seed % serveClasses {
	case 0:
		sc.Class = "admit-crash"
		sc.Plan.CrashAtPoint = serve.PointAdmit
		sc.Plan.CrashAtCount = 1 + rng.Intn(sc.Procs)
	case 1:
		sc.Class = "ack-crash"
		sc.Plan.CrashAtPoint = serve.PointAck
		sc.Plan.CrashAtCount = 1 + rng.Intn(sc.Procs)
		sc.RetryIndex = sc.Plan.CrashAtCount - 1
	case 2:
		sc.Class = "drain-crash"
		sc.DrainCrash = true
		sc.Plan.CrashAtPoint = serve.PointDrain
		sc.Plan.CrashAtCount = 1
		sc.Tick = 200 * time.Microsecond
	case 3, 9:
		sc.Class = "wal-budget"
		sc.Plan.CrashAfterWALRecords = budget
	case 4:
		sc.Class = "engine-point"
		pts := []string{fault.PointBeforeForceLog, fault.PointAfterForceLog,
			fault.PointAfterDecision, fault.PointMidResolve}
		sc.Plan.CrashAtPoint = pts[rng.Intn(len(pts))]
		if sc.Plan.CrashAtPoint == fault.PointAfterDecision || sc.Plan.CrashAtPoint == fault.PointMidResolve {
			sc.Plan.CrashAtCount = 1 + rng.Intn(3)
		} else {
			sc.Plan.CrashAtCount = 1 + rng.Intn(25)
		}
	case 5:
		sc.Class = "group-fsync"
		sc.GroupCommit = wal.GroupCommit{MaxBatch: 2 + rng.Intn(8)}
		sc.Plan.CrashAtPoint = wal.PointGroupFsync
		sc.Plan.CrashAtCount = 1 + rng.Intn(10)
	case 6:
		sc.Class = "overload"
		sc.Overload = true
		sc.Tick = 300 * time.Microsecond
		sc.Procs = 16
		sc.Plan.CrashAfterWALRecords = 15 + rng.Intn(60)
	case 7:
		sc.Class = "drain-park"
		sc.Park = true
		sc.Tick = 300 * time.Microsecond
	case 8:
		sc.Class = "double-crash"
		sc.Plan.CrashAfterWALRecords = budget
		sc.RerunBudget = 5 + rng.Intn(40)
	}
	return sc
}

// serveProfile is the workload a scenario runs: conflict-heavy, no
// probabilistic permanent failures (those are chosen deterministically
// below), mild transient noise.
func serveProfile(sc ServeScenario) workload.Profile {
	p := workload.DefaultProfile(sc.Seed)
	p.Processes = sc.Procs
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.10
	return p
}

// serveWorld generates a scenario's world: the federation, the
// submissions in wire form (tenant + declarative spec, in submission
// order) and the deterministic permanent-failure rules keyed by origin
// ("tenant/proc"), applied to the federation.
func serveWorld(sc ServeScenario) (*subsystem.Federation, []serve.SubmitRequest, error) {
	return serveWorldFrom(sc, serveProfile(sc))
}

// serveWorldFrom is serveWorld over an explicit profile (the
// differential test zeroes transient noise so outcomes are a pure
// function of the world).
func serveWorldFrom(sc ServeScenario, p workload.Profile) (*subsystem.Federation, []serve.SubmitRequest, error) {
	w, err := workload.Generate(p)
	if err != nil {
		return nil, nil, fmt.Errorf("seed %d: generating workload: %w", sc.Seed, err)
	}
	rng := rand.New(rand.NewSource(sc.Seed*7919 + 13))
	var reqs []serve.SubmitRequest
	for i, j := range w.Jobs {
		tenant := fmt.Sprintf("t%d", i%sc.Tenants)
		ps := spec.FromProcess(j.Proc)
		reqs = append(reqs, serve.SubmitRequest{
			Tenant: tenant, Key: fmt.Sprintf("key-%s", ps.ID), Proc: ps,
		})
		origin := tenant + "/" + ps.ID
		// Deterministic permanent failures for roughly a third of the
		// processes, forward compensatable/pivot services only (the
		// differential-battery idiom).
		if rng.Float64() >= 0.35 {
			continue
		}
		var candidates []string
		for _, svc := range scheduler.Footprint(j.Proc) {
			spec, ok := w.Fed.Spec(svc)
			if ok && (spec.Kind == activity.Compensatable || spec.Kind == activity.Pivot) {
				candidates = append(candidates, svc)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		sort.Strings(candidates)
		svc := candidates[rng.Intn(len(candidates))]
		sub, ok := w.Fed.Owner(svc)
		if !ok {
			return nil, nil, fmt.Errorf("seed %d: no owner for %s", sc.Seed, svc)
		}
		sub.FailService(origin, svc)
	}
	return w.Fed, reqs, nil
}

// scenarioConfig builds the server config of one incarnation.
func scenarioConfig(sc ServeScenario, dir string, plan fault.Plan, walBudget int, hold bool) serve.Config {
	cfg := serve.Config{
		Dir: dir, NoSync: true,
		Tick:            sc.Tick,
		CheckpointEvery: sc.CheckpointEvery, CompactOnCheckpoint: sc.CompactOnCheckpoint,
		GroupCommit: sc.GroupCommit,
		HoldResume:  hold,
		BatchWait:   time.Millisecond,
	}
	if sc.Overload {
		cfg.QueueDepth = 2
		cfg.BatchMax = 2
	}
	if sc.Park {
		cfg.BatchMax = 2
		cfg.DrainTimeout = 25 * time.Millisecond
	}
	if plan.CrashAtPoint != "" {
		inj := fault.NewInjector(plan)
		cfg.Inject = inj.Point
	}
	if walBudget > 0 {
		cfg.WrapLog = func(l wal.Log) wal.Log { return fault.WrapWAL(l, walBudget) }
	}
	return cfg
}

// submitAll drives the submissions over HTTP. Sequential normally;
// overload scenarios submit concurrently against a tiny admission
// window. Returns per-request HTTP status (0 = connection died).
func submitAll(base string, reqs []serve.SubmitRequest, concurrent bool) []int {
	codes := make([]int, len(reqs))
	post := func(i int) {
		data, err := json.Marshal(reqs[i])
		if err != nil {
			codes[i] = -1
			return
		}
		resp, err := http.Post(base+"/v1/processes", "application/json", bytes.NewReader(data))
		if err != nil {
			codes[i] = 0 // connection died mid-request (the crash)
			return
		}
		resp.Body.Close()
		codes[i] = resp.StatusCode
	}
	if !concurrent {
		for i := range reqs {
			post(i)
		}
		return codes
	}
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			post(i)
		}(i)
	}
	wg.Wait()
	return codes
}

// flushAbandoned pushes a crashed server's buffered WAL tail to its
// file. The battery runs with NoSync for speed, so an abandoned log can
// hold records only in the user-space buffer — but the surviving
// in-process federation models the paper's locally-recovering
// subsystems, and under the force-log discipline (append before
// effect) any effect the federation holds must have its record on
// disk; judging against a shorter log would be judging an impossible
// world. Production servers run with per-append fsync, where the
// buffer is always empty.
func flushAbandoned(s *serve.Server) {
	if _, crashed := s.Crashed(); crashed {
		s.Log().Records()
	}
}

// preCrashBoundary reads the abandoned (or cleanly closed) server
// WAL from disk and returns the CheckRecovered boundary in expanded
// and full coordinates, plus the boundary LSN (the highest LSN in the
// log — stable across later checkpoints and compaction, unlike the
// positional coordinates).
func preCrashBoundary(dir string) (pre, preFull int, lsn int64, err error) {
	fl, err := wal.OpenFile(filepath.Join(dir, "wal.log"), false)
	if err != nil {
		return 0, 0, 0, err
	}
	recs, err := fl.Records()
	fl.Close()
	if err != nil {
		return 0, 0, 0, err
	}
	pre, preFull = crashBoundaries(recs)
	for _, r := range recs {
		lsn = max(lsn, r.LSN)
	}
	return pre, preFull, lsn, nil
}

// checkSettled asserts the battery's end-state invariants over a fully
// idle server: every journaled submission is terminal and sealed, the
// accumulated schedule (all incarnations folded by origin) is
// prefix-reducible, and subsystem state equals exactly the committed
// work in the log — nothing lost, nothing doubled across any number of
// crashes and restarts.
func checkSettled(s *serve.Server, crashLSNs []int64) error {
	sts := s.Statuses("", "")
	for _, st := range sts {
		if !st.Final || (st.State != "committed" && st.State != "aborted") {
			return fmt.Errorf("submission %s not terminal: %+v", st.ID, st)
		}
	}
	raw, err := s.Log().Records()
	if err != nil {
		return fmt.Errorf("reading final log: %w", err)
	}
	exp := wal.Expand(raw)
	recs := exp.Records
	// Once per submission: at most one incarnation of an origin keeps
	// committed work no compensation undid. A second one is a submission
	// executed twice, which the accounting below cannot see — both
	// executions are in the log it counts.
	if err := fault.OncePerOrigin(recs); err != nil {
		return fmt.Errorf("submission executed twice: %w", err)
	}
	if err := sealsMatchWork(sts, recs); err != nil {
		return err
	}
	table, err := s.Federation().ConflictTable()
	if err != nil {
		return err
	}
	// The accumulated log spans every crash epoch of the scenario: the
	// LSN boundaries tell the reconstruction which incarnations each
	// crash interrupted (their post-boundary records are recovery's and
	// synthesize the crash abort) while the re-run incarnations past
	// each boundary are ordinary forward work.
	sched, err := fault.ScheduleFromWALEpochs(table, s.Defs(), recs, crashLSNs)
	if err != nil {
		return fmt.Errorf("reconstructing final schedule: %w", err)
	}
	ok, at, _, err := sched.PRED()
	if err != nil {
		return fmt.Errorf("final PRED check: %w", err)
	}
	if !ok {
		return fmt.Errorf("final schedule not prefix-reducible (prefix %d)", at)
	}
	// Exactly-once accounting over the whole history (checkpoint
	// summaries included).
	fed := s.Federation()
	want := make(map[string]int64)
	if exp.Checkpoint != nil {
		for svc, n := range exp.Checkpoint.AppliedSvc {
			spec, ok := fed.Spec(svc)
			if !ok {
				return fmt.Errorf("checkpoint summarizes unknown service %q", svc)
			}
			delta := n
			if spec.Kind == activity.Compensation {
				delta = -n
			}
			sub, _ := fed.Owner(svc)
			for _, item := range spec.WriteSet {
				want[sub.Name()+"/"+item] += delta
			}
		}
	}
	for _, ev := range sched.Events() {
		if ev.Type != schedule.Invoke {
			continue
		}
		spec, ok := fed.Spec(ev.Service)
		if !ok {
			return fmt.Errorf("final schedule uses unknown service %q", ev.Service)
		}
		delta := int64(1)
		if spec.Kind == activity.Compensation {
			delta = -1
		}
		sub, _ := fed.Owner(ev.Service)
		for _, item := range spec.WriteSet {
			want[sub.Name()+"/"+item] += delta
		}
	}
	got := fed.Snapshot()
	for item, v := range got {
		if v != want[item] {
			return fmt.Errorf("exactly-once: item %s has %d, committed work accounts for %d", item, v, want[item])
		}
	}
	for item, v := range want {
		if v != 0 && got[item] != v {
			return fmt.Errorf("exactly-once: item %s wants %d, subsystem has %d", item, v, got[item])
		}
	}
	return nil
}

// sealsMatchWork asserts that a submission is sealed committed exactly
// when the work of one of its incarnations stands in the log — committed,
// or aborted past its pivot and completed forward. A live batch and a
// restart must seal the same history alike; a client told "aborted"
// while its work stands may resubmit it. A submission whose incarnations
// a checkpoint summarized away has no image left to judge and is
// skipped.
func sealsMatchWork(sts []serve.Status, recs []wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	images, err := wal.Analyze(recs)
	if err != nil {
		return fmt.Errorf("analyzing final log: %w", err)
	}
	seen := make(map[process.ID]bool)
	stands := make(map[process.ID]bool)
	for id, img := range images {
		o := process.ID(id).Origin()
		seen[o] = true
		stands[o] = stands[o] || img.Stands
	}
	for _, st := range sts {
		o := process.ID(st.ID)
		if !seen[o] {
			continue
		}
		if committed := st.State == "committed"; committed != stands[o] {
			return fmt.Errorf("submission %s sealed %s, but standing work in the log is %v", st.ID, st.State, stands[o])
		}
	}
	return nil
}

// restartAndJudge opens a fresh server over the crashed incarnation's
// directory with the resume set held, runs CheckRecovered at the
// post-recovery point, then releases the resume set. walBudget > 0 arms
// the next crash.
func restartAndJudge(sc ServeScenario, fed *subsystem.Federation, dir string, pre, preFull, walBudget int, priorLSNs []int64) (*serve.Server, error) {
	srv, err := serve.Open(fed, scenarioConfig(sc, dir, fault.Plan{}, walBudget, true))
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	if err := fault.CheckRecovered(fault.CheckInput{
		Fed: fed, Log: srv.Log(), Defs: srv.Defs(),
		PreCrashRecords: pre, PreCrashFull: preFull,
		Compacted:      sc.CompactOnCheckpoint,
		PriorCrashLSNs: priorLSNs,
	}); err != nil {
		srv.Close()
		return nil, err
	}
	srv.Resume()
	return srv, nil
}

const serveWait = 30 * time.Second

// runServeScenario executes one scenario end to end. dir must be an empty
// directory the scenario may fill (the server's data dir). The returned
// error describes the violated invariant; nil means the scenario
// passed.
func runServeScenario(sc ServeScenario, dir string) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("seed %d (%s): %s", sc.Seed, sc.Class, fmt.Sprintf(format, args...))
	}
	fed, reqs, err := serveWorld(sc)
	if err != nil {
		return err
	}
	srv, err := serve.Open(fed, scenarioConfig(sc, dir, sc.Plan, sc.Plan.CrashAfterWALRecords, false))
	if err != nil {
		return fail("open: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return fail("start: %v", err)
	}
	base := "http://" + addr

	codes := submitAll(base, reqs, sc.Overload)
	accepted, shed := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			shed++
		}
	}

	switch {
	case sc.DrainCrash:
		// Drain mid-flight; the injected crash fires inside the drain
		// sequence and the call must report it.
		if _, err := srv.Drain(newTimeoutCtx(serveWait)); err == nil {
			return fail("drain crash scenario: Drain returned no error")
		}
		if _, crashed := srv.Crashed(); !crashed {
			return fail("drain crash scenario: server not crashed after drain")
		}
	case sc.Park:
		// Clean mid-flight drain with a tiny deadline: whatever misses
		// it parks in the journal.
		rep, err := srv.Drain(newTimeoutCtx(serveWait))
		if err != nil {
			return fail("park drain: %v", err)
		}
		if rep.Finished+rep.Parked != accepted {
			return fail("park drain lost work: finished %d + parked %d != accepted %d",
				rep.Finished, rep.Parked, accepted)
		}
	default:
		// Crash scenarios: wait until the armed crash fires or the work
		// finishes (a budget can legitimately outlive the run).
		srv.WaitIdle(serveWait)
		if _, crashed := srv.Crashed(); !crashed {
			if _, err := srv.Drain(newTimeoutCtx(serveWait)); err != nil {
				return fail("clean drain: %v", err)
			}
		}
	}
	srv.Close()
	flushAbandoned(srv)

	// The crash boundary, read from the abandoned WAL.
	pre, preFull, lsn, err := preCrashBoundary(dir)
	if err != nil {
		return fail("pre-crash boundary: %v", err)
	}
	crashLSNs := []int64{lsn}

	// Restart over the same directory; judge recovery, then release the
	// resume set.
	srv2, err := restartAndJudge(sc, fed, dir, pre, preFull, sc.RerunBudget, nil)
	if err != nil {
		return fail("%v", err)
	}

	// Idempotent retry across the crash: the client whose ack was lost
	// re-submits with the same key and must get the original, not a
	// duplicate.
	if sc.RetryIndex >= 0 && sc.RetryIndex < len(reqs) && codes[sc.RetryIndex] != http.StatusTooManyRequests {
		addr2, err := srv2.Start("127.0.0.1:0")
		if err != nil {
			srv2.Close()
			return fail("restart http: %v", err)
		}
		data, _ := json.Marshal(reqs[sc.RetryIndex])
		resp, err := http.Post("http://"+addr2+"/v1/processes", "application/json", bytes.NewReader(data))
		if err != nil {
			srv2.Close()
			return fail("retry after restart: %v", err)
		}
		var sr serve.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil {
			srv2.Close()
			return fail("retry decode: %v", err)
		}
		if resp.StatusCode != http.StatusOK || !sr.Deduped {
			srv2.Close()
			return fail("retry after restart not deduplicated: code %d, %+v", resp.StatusCode, sr)
		}
	}

	srv2.WaitIdle(serveWait)
	final := srv2
	if _, crashed := srv2.Crashed(); crashed {
		// Double crash: the resumed work died too. One more restart must
		// settle everything.
		srv2.Close()
		flushAbandoned(srv2)
		pre2, preFull2, lsn2, err := preCrashBoundary(dir)
		if err != nil {
			return fail("second boundary: %v", err)
		}
		crashLSNs = append(crashLSNs, lsn2)
		srv3, err := restartAndJudge(sc, fed, dir, pre2, preFull2, 0, []int64{lsn})
		if err != nil {
			return fail("second restart: %v", err)
		}
		if !srv3.WaitIdle(serveWait) {
			srv3.Close()
			return fail("third incarnation never settled")
		}
		final = srv3
	} else if sc.RerunBudget > 0 {
		// The second budget never fired — the resume set was smaller
		// than the budget. Fine: the invariants below still apply.
		if !srv2.WaitIdle(serveWait) {
			srv2.Close()
			return fail("second incarnation never settled")
		}
	}

	if _, crashed := final.Crashed(); crashed {
		final.Close()
		return fail("final incarnation crashed unexpectedly at %v", func() string { p, _ := final.Crashed(); return p }())
	}
	if !final.WaitIdle(serveWait) {
		final.Close()
		return fail("final incarnation never went idle")
	}
	// Every admitted submission must be terminal; sealed exactly once;
	// effects exactly once; PRED over the whole accumulated history.
	if err := checkSettled(final, crashLSNs); err != nil {
		final.Close()
		return fail("%v", err)
	}
	// Shed submissions were never admitted: the restarted server must
	// not know them.
	for i, c := range codes {
		if c != http.StatusTooManyRequests {
			continue
		}
		origin := reqs[i].Tenant + "/" + reqs[i].Proc.ID
		if _, ok := final.StatusOf(origin); ok {
			// A 429 whose journal append nonetheless happened would be a
			// double-admission bug — the shed decision precedes the
			// journal write.
			final.Close()
			return fail("shed submission %s known after restart", origin)
		}
	}
	if err := final.Close(); err != nil {
		return fail("final close: %v", err)
	}
	return nil
}

// newTimeoutCtx is context.WithTimeout without the cancel-leak
// boilerplate at call sites (the contexts are short-lived).
func newTimeoutCtx(d time.Duration) timeoutCtx { return timeoutCtx{time.Now().Add(d)} }

// timeoutCtx is a minimal deadline-only context.
type timeoutCtx struct{ deadline time.Time }

func (t timeoutCtx) Deadline() (time.Time, bool) { return t.deadline, true }
func (timeoutCtx) Done() <-chan struct{}         { return nil }
func (timeoutCtx) Err() error                    { return nil }
func (timeoutCtx) Value(any) any                 { return nil }

// Serve is the serve crash battery: seeded kill -9 scenarios against
// a real server over real HTTP, each restart judged by
// fault.CheckRecovered and the settled end state by PRED and
// exactly-once accounting over the whole accumulated history.
var Serve = &Battery{
	Name: "serve",
	Classes: []string{
		"admit-crash", "ack-crash", "drain-crash", "wal-budget", "engine-point",
		"group-fsync", "overload", "drain-park", "double-crash",
	},
	ScenarioFor: func(seed int64, _ Variants) (string, string) {
		sc := serveScenarioFor(seed)
		return sc.Class, fmt.Sprintf("%+v", sc)
	},
	Run: func(seed int64, _ Variants, dir string) (Stats, error) {
		return nil, runServeScenario(serveScenarioFor(seed), dir)
	},
}
