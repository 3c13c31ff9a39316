package battery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"transproc/internal/activity"
	"transproc/internal/fault"
	"transproc/internal/process"
	"transproc/internal/runtime"
	"transproc/internal/scheduler"
	"transproc/internal/store"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// TortureScenario is one fully determined crash-torture case: a seeded
// workload, a fault plan and the engine/log flavour to run it under.
// tortureScenarioFor(seed) is a pure function, so a failing seed reproduces
// the exact same scenario anywhere.
type TortureScenario struct {
	Seed  int64
	Class string
	// Engine selects the execution engine: "engine" (sequential
	// discrete-event scheduler) or "runtime" (concurrent).
	Engine string
	// FileWAL runs over a file-backed log that is closed and reopened
	// across the crash (exercising torn-tail handling).
	FileWAL bool
	// GarbageTail appends a partial junk record to the file after the
	// crash instead of tearing the final record.
	GarbageTail bool
	// CrashRecoveryAfter, when positive, crashes the first Recover
	// pass after that many appended records; a second pass then
	// finishes the job.
	CrashRecoveryAfter int
	// CheckpointEvery / CheckpointLimit / CompactOnCheckpoint are
	// passed through to the engine config: fuzzy checkpoints every N
	// force-log appends, at most Limit of them (0 = unlimited), with
	// optional physical compaction after each.
	CheckpointEvery     int
	CheckpointLimit     int
	CompactOnCheckpoint bool
	// GroupCommit, when enabled, wraps the sequential engine's log in
	// the group appender so crashes land inside shared syncs. The
	// runtime groups its syncs on every log with a sync phase — the
	// fault wrapper is one — regardless.
	GroupCommit wal.GroupCommit
	// Durable backs every subsystem with a file-backed heap store
	// (internal/store): the crash kills scheduler state AND the
	// subsystems' in-memory state, recovery reopens the pages and runs
	// scheduler.RecoverDurable, and fault.CheckDurableStores verifies the
	// storage-level guarantees on top of fault.CheckRecovered.
	Durable bool
	// StorePoolPages sets the buffer-pool size (0 = store default); a
	// tiny pool forces constant eviction traffic.
	StorePoolPages int
	// StoreFlushEach flushes the stores after every mutation,
	// maximizing the pages-ahead-of-log window recovery must undo.
	StoreFlushEach bool
	// TornStorePage flips one byte of one heap page after the crash —
	// a torn page write the reopened store must detect and repair.
	TornStorePage bool
	// StoreRecoveryPoint / StoreRecoveryCount arm a store crash point
	// for the FIRST recovery pass only (crash during
	// recovery-of-pages); a second pass must finish the job.
	StoreRecoveryPoint string
	StoreRecoveryCount int
	// StoreStress concentrates the workload (single subsystem, double
	// the processes) so its heap file spans multiple pages and a tiny
	// buffer pool must constantly evict.
	StoreStress bool
	Plan        fault.Plan
}

// tortureScenarioFor derives the deterministic scenario of a seed. Nineteen
// scenario classes cycle by seed: WAL-budget crashes (mem and file,
// torn and garbage tails), every named crash point, concurrent-runtime
// kills, crash-during-recovery double faults, the checkpointing
// classes — crash mid-checkpoint, crash inside compaction's
// rename/dir-fsync window, a stale checkpoint under a long tail,
// crash during recovery-from-checkpoint — a crash in a shared sync
// before it syncs, and the durable-store classes: a torn heap page
// after the crash, a crash inside a buffer pool eviction, pages flushed
// ahead of the log, and a crash during the page-recovery pass itself.
// Independently of the class, half of all scenarios run with group
// commit enabled so every crash flavour of the sequential engine is
// also exercised through the group appender.
func tortureScenarioFor(seed int64) TortureScenario {
	rng := rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))
	sc := TortureScenario{Seed: seed, Engine: "engine"}
	if seed%2 == 1 {
		sc.GroupCommit = wal.GroupCommit{MaxBatch: 2 + rng.Intn(15)}
	}
	budget := 5 + rng.Intn(140)
	hits := 1 + rng.Intn(40)
	sc.Plan.Seed = seed
	switch seed % 19 {
	case 0:
		sc.Class = "wal-budget"
		sc.Plan.CrashAfterWALRecords = budget
	case 1:
		sc.Class = "before-forcelog"
		sc.Plan.CrashAtPoint = fault.PointBeforeForceLog
		sc.Plan.CrashAtCount = hits
	case 2:
		sc.Class = "after-forcelog"
		sc.Plan.CrashAtPoint = fault.PointAfterForceLog
		sc.Plan.CrashAtCount = hits
	case 3:
		sc.Class = "2pc-after-decision"
		sc.Plan.CrashAtPoint = fault.PointAfterDecision
		sc.Plan.CrashAtCount = 1 + rng.Intn(3)
	case 4:
		sc.Class = "2pc-mid-resolve"
		sc.Plan.CrashAtPoint = fault.PointMidResolve
		sc.Plan.CrashAtCount = 1 + rng.Intn(3)
	case 5:
		sc.Class = "file-torn-tail"
		sc.FileWAL = true
		sc.Plan.CrashAfterWALRecords = budget
		sc.Plan.TornTailBytes = 1 + rng.Intn(30)
	case 6:
		sc.Class = "file-garbage-tail"
		sc.FileWAL = true
		sc.GarbageTail = true
		sc.Plan.CrashAfterWALRecords = budget
	case 7:
		sc.Class = "runtime-kill-dispatch"
		sc.Engine = "runtime"
		sc.Plan.KillAtDispatch = 1 + rng.Intn(30)
	case 8:
		sc.Class = "runtime-wal-budget"
		sc.Engine = "runtime"
		sc.Plan.CrashAfterWALRecords = budget
	case 9:
		sc.Class = "crash-during-recovery"
		sc.Plan.CrashAfterWALRecords = budget
		sc.CrashRecoveryAfter = 1 + rng.Intn(12)
	case 10:
		// Crash inside the checkpoint itself: either before the build's
		// log snapshot or right before the checkpoint record append
		// (the fuzzy window). Recovery must come up from whatever made
		// it to disk — the previous checkpoint or a full replay.
		sc.Class = "ckpt-mid-build"
		sc.CheckpointEvery = 4 + rng.Intn(8)
		sc.FileWAL = rng.Intn(2) == 0
		sc.Plan.CrashAtPoint = fault.PointCheckpointBuild
		if rng.Intn(2) == 0 {
			sc.Plan.CrashAtPoint = fault.PointCheckpointAppend
		}
		sc.Plan.CrashAtCount = 1 + rng.Intn(3)
	case 11:
		// Crash inside compaction's atomic-swap window: after the temp
		// file is durable but before the rename, or after the rename
		// but before the parent-dir fsync. Either the old or the new
		// complete log must be what recovery reopens.
		sc.Class = "compact-crash"
		sc.FileWAL = true
		sc.CheckpointEvery = 4 + rng.Intn(8)
		sc.CompactOnCheckpoint = true
		sc.Plan.CrashAtPoint = fault.PointCompactRename
		if rng.Intn(2) == 0 {
			sc.Plan.CrashAtPoint = fault.PointCompactDirSync
		}
		sc.Plan.CrashAtCount = 1 + rng.Intn(2)
	case 12:
		// A checkpoint taken early and never again (CheckpointLimit 1):
		// the crash hits under a long post-checkpoint tail, so recovery
		// replays a stale checkpoint plus many tail records.
		sc.Class = "stale-ckpt-long-tail"
		sc.CheckpointEvery = 4 + rng.Intn(4)
		sc.CheckpointLimit = 1
		sc.FileWAL = rng.Intn(2) == 0
		sc.CompactOnCheckpoint = sc.FileWAL && rng.Intn(2) == 0
		sc.Plan.CrashAfterWALRecords = 40 + rng.Intn(100)
		if sc.FileWAL && rng.Intn(2) == 0 {
			sc.Plan.TornTailBytes = 1 + rng.Intn(30)
		}
	case 13:
		// Crash during recovery-from-checkpoint: the run checkpoints
		// (and sometimes compacts), crashes on a WAL budget, and the
		// first Recover pass dies too; the second pass must finish from
		// checkpoint + tail + the interrupted pass's records.
		sc.Class = "ckpt-recovery-crash"
		if rng.Intn(2) == 0 {
			sc.Engine = "runtime"
		}
		sc.CheckpointEvery = 4 + rng.Intn(8)
		sc.CompactOnCheckpoint = rng.Intn(2) == 0
		sc.Plan.CrashAfterWALRecords = budget
		sc.CrashRecoveryAfter = 1 + rng.Intn(12)
	case 14:
		// Crash in a shared sync before it syncs: on a file log every
		// record written since the last sync is lost with the write
		// buffer, but no subsystem commit followed any of them (a
		// write-ahead record's transition waits for the sync), so
		// recovery must see a merely shorter log. The concurrent runtime
		// drives real shared syncs.
		sc.Class = "group-fsync"
		sc.Engine = "runtime"
		sc.GroupCommit = wal.GroupCommit{MaxBatch: 2 + rng.Intn(15)}
		sc.FileWAL = rng.Intn(2) == 0
		sc.Plan.CrashAtPoint = wal.PointGroupFsync
		sc.Plan.CrashAtCount = 1 + rng.Intn(20)
	case 15:
		// Crash on a WAL budget, then flip one byte of a subsystem heap
		// page: the torn page must be detected by its checksum at
		// reopen, repaired, and its lost records redone from the WAL.
		// Eager flushing guarantees the heap files hold real pages at
		// crash time — otherwise there is nothing to tear.
		sc.Class = "store-torn-page"
		sc.Durable = true
		sc.StoreFlushEach = true
		sc.Plan.CrashAfterWALRecords = budget
		sc.TornStorePage = true
		sc.FileWAL = rng.Intn(2) == 0
	case 16:
		// Crash inside the buffer pool under eviction pressure: with a
		// single frame, every fetch of a second page must first write
		// back the dirty resident one (eviction is the only way pages
		// reach the device here — no eager flushing), and the crash hits
		// an eviction write-back, a page write, or a fresh-page
		// allocation.
		sc.Class = "store-evict-crash"
		sc.Durable = true
		sc.StorePoolPages = 1
		sc.StoreStress = true
		pts := []string{fault.PointStoreEvict, fault.PointStorePageWrite, fault.PointStoreAlloc}
		sc.Plan.CrashAtPoint = pts[rng.Intn(len(pts))]
		sc.Plan.CrashAtCount = 1 + rng.Intn(12)
		if sc.Plan.CrashAtPoint == fault.PointStoreAlloc {
			// The heap grows by a page only a couple of times per run.
			sc.Plan.CrashAtCount = 1 + rng.Intn(2)
		}
	case 17:
		// Pages ahead of the log: every store mutation flushes eagerly
		// and the crash lands right before a force-log append, so the
		// pages can carry effects whose log record never made it — the
		// page-level undo path.
		sc.Class = "store-flush-vs-wal"
		sc.Durable = true
		sc.StoreFlushEach = true
		sc.Plan.CrashAtPoint = fault.PointBeforeForceLog
		sc.Plan.CrashAtCount = hits
	case 18:
		// Double fault during the page-recovery pass: the first
		// RecoverDurable dies at a store crash point (mid-reconcile or
		// mid-flush); the second pass must finish from whatever state
		// reached the disk. Eager flushing during the run leaves real
		// pre-crash pages for the interrupted pass to reconcile against.
		sc.Class = "store-recovery-crash"
		sc.Durable = true
		sc.StoreFlushEach = true
		sc.Plan.CrashAfterWALRecords = budget
		sc.StoreRecoveryPoint = fault.PointStorePageWrite
		if rng.Intn(2) == 0 {
			sc.StoreRecoveryPoint = fault.PointStorePageFsync
		}
		sc.StoreRecoveryCount = 1 + rng.Intn(4)
	}
	// Deterministic permanent failures for roughly a third of the
	// processes (compensatable or pivot forward services only, like
	// the differential battery: retriables fail only transiently and
	// compensations never, per the paper's perfect-compensation
	// assumption).
	sc.Plan.SubsystemFail = tortureFailures(sc)
	return sc
}

// tortureProfile is the workload a scenario runs. Store-stress
// scenarios concentrate everything into a single subsystem with twice
// the processes, so one heap file accumulates enough records (2PC
// fates, data items) to span multiple pages.
func tortureProfile(sc TortureScenario) workload.Profile {
	p := workload.DefaultProfile(sc.Seed)
	p.Processes = 12
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0.10
	if sc.StoreStress {
		p.Subsystems = 1
		p.Processes = 48
	}
	return p
}

// tortureFailures picks the deterministic failure rules of a scenario
// against its own workload.
func tortureFailures(sc TortureScenario) []fault.SubsystemFail {
	w, err := workload.Generate(tortureProfile(sc))
	if err != nil {
		return nil
	}
	return chooseFailures(w, sc.Seed)
}

// chooseFailures picks deterministic permanent failures for roughly a
// third of a workload's processes (compensatable or pivot forward
// services only); the crash-torture, federation and hub batteries share
// it.
func chooseFailures(w *workload.Workload, seed int64) []fault.SubsystemFail {
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	var rules []fault.SubsystemFail
	for _, j := range w.Jobs {
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
		rules = append(rules, fault.SubsystemFail{
			Proc:    string(j.Proc.ID),
			Service: candidates[rng.Intn(len(candidates))],
		})
	}
	return rules
}

// tortureWorld regenerates a scenario's deterministic world: the
// seeded workload with its failure rules applied and the process
// definitions recovery needs. Durable scenarios rebuild it after every
// simulated crash — a crash kills the subsystems' in-memory state too,
// so recovery starts from a factory-fresh federation plus whatever the
// heap files retained.
func tortureWorld(sc TortureScenario) (*subsystem.Federation, []scheduler.Job, []*process.Process, error) {
	w, err := workload.Generate(tortureProfile(sc))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("seed %d: generating workload: %w", sc.Seed, err)
	}
	for _, r := range sc.Plan.SubsystemFail {
		sub, ok := w.Fed.Owner(r.Service)
		if !ok {
			return nil, nil, nil, fmt.Errorf("seed %d: no owner for failed service %s", sc.Seed, r.Service)
		}
		sub.FailService(r.Proc, r.Service)
	}
	defs := make([]*process.Process, 0, len(w.Jobs))
	for _, j := range w.Jobs {
		defs = append(defs, j.Proc)
	}
	return w.Fed, w.Jobs, defs, nil
}

// crashTortureScenario runs one scenario until the injected crash (or
// clean finish), mangles the log tail where the plan says so and reopens
// the log across the crash: what it returns is what a restart finds.
// dir is where file-backed logs and heap files live. The caller closes
// the returned log.
func crashTortureScenario(sc TortureScenario, dir string) (fed *subsystem.Federation, defs []*process.Process, recLog wal.Log, crashed bool, err error) {
	fed, jobs, defs, err := tortureWorld(sc)
	if err != nil {
		return nil, nil, nil, false, err
	}
	var inner wal.Log
	var kl *fault.KillLog
	var path string
	if sc.FileWAL {
		path = filepath.Join(dir, fmt.Sprintf("wal-%d.log", sc.Seed))
		if kl, err = fault.OpenKillLog(path); err != nil {
			return nil, nil, nil, false, fmt.Errorf("seed %d: opening log: %w", sc.Seed, err)
		}
		inner = kl
	} else {
		inner = wal.NewMemLog()
	}
	fw := fault.WrapWAL(inner, sc.Plan.CrashAfterWALRecords)
	inj := fault.NewInjector(sc.Plan)
	if sc.Durable {
		if err := attachStores(fed, sc, dir, fw, inj); err != nil {
			return nil, nil, nil, false, fmt.Errorf("seed %d (%s): %w", sc.Seed, sc.Class, err)
		}
	}

	crashed, err = runUntilCrash(sc, fed, fw, inj, jobs)
	if err != nil {
		return nil, nil, nil, false, fmt.Errorf("seed %d (%s): run: %w", sc.Seed, sc.Class, err)
	}
	if sc.Durable {
		// The crash (or shutdown) drops every dirty pool page: only what
		// reached the device survives into recovery. A clean finish is
		// treated the same way — an unflushed shutdown — so every durable
		// scenario recovers pages, not memory.
		abandonStores(fed)
		if crashed && sc.TornStorePage {
			if err := tearStorePage(fed, sc, dir); err != nil {
				return nil, nil, nil, false, fmt.Errorf("seed %d (%s): tearing store page: %w", sc.Seed, sc.Class, err)
			}
		}
	}

	// Reopen across the crash. A crash is a process kill: what sat in
	// the log's write buffer is lost — except in the torn- and
	// garbage-tail classes, whose final write reached the disk in part.
	// Those tails only exist for file-backed logs and only make sense
	// when the run actually crashed (a clean run's final append returned
	// — tearing it would simulate losing an acknowledged write, which no
	// log survives).
	if !sc.FileWAL {
		return fed, defs, inner, crashed, nil
	}
	if crashed && sc.Plan.TornTailBytes == 0 && !sc.GarbageTail {
		_, err = kl.Kill()
	} else {
		err = kl.Close()
	}
	if err != nil {
		return nil, nil, nil, false, fmt.Errorf("seed %d: closing log: %w", sc.Seed, err)
	}
	if crashed {
		if sc.Plan.TornTailBytes > 0 {
			if err := tearTail(path, sc.Plan.TornTailBytes); err != nil {
				return nil, nil, nil, false, fmt.Errorf("seed %d: tearing tail: %w", sc.Seed, err)
			}
		}
		if sc.GarbageTail {
			if err := appendGarbage(path); err != nil {
				return nil, nil, nil, false, fmt.Errorf("seed %d: garbage tail: %w", sc.Seed, err)
			}
		}
	}
	fl, err := wal.OpenFile(path, false)
	if err != nil {
		return nil, nil, nil, false, fmt.Errorf("seed %d: reopening log: %w", sc.Seed, err)
	}
	return fed, defs, fl, crashed, nil
}

// crashBoundaries locates the end of a crashed log for
// fault.CheckInput: the invariants run in expanded coordinates
// (checkpoint live set + post-horizon tail), the full-replay differential
// also needs the boundary in raw non-checkpoint coordinates.
func crashBoundaries(recs []wal.Record) (pre, preFull int) {
	for _, r := range recs {
		if r.Type != wal.RecCheckpoint {
			preFull++
		}
	}
	return len(wal.Expand(recs).Records), preFull
}

// runTortureScenario executes one scenario end to end: crash it, recover
// — possibly crashing and re-recovering — and check every recovery
// guarantee. The returned error describes the violated invariant; nil
// means the scenario passed.
func runTortureScenario(sc TortureScenario, dir string) error {
	fed, defs, recLog, crashed, err := crashTortureScenario(sc, dir)
	if err != nil {
		return err
	}
	defer recLog.Close()
	preRecs, err := recLog.Records()
	if err != nil {
		return fmt.Errorf("seed %d: reading pre-recovery log: %w", sc.Seed, err)
	}
	pre, preFull := crashBoundaries(preRecs)

	// First recovery, optionally crashed mid-way by a fresh WAL budget
	// (double-fault: the recovering system dies too) and/or — durable
	// scenarios only — by an armed store crash point inside the
	// page-recovery pass.
	if crashed && (sc.CrashRecoveryAfter > 0 || (sc.Durable && sc.StoreRecoveryCount > 0)) {
		var rw wal.Log = recLog
		if sc.CrashRecoveryAfter > 0 {
			rw = fault.WrapWAL(recLog, sc.CrashRecoveryAfter)
		}
		rfed, rdefs := fed, defs
		// The armed store crash point can fire anywhere in the pass —
		// including inside AttachStore's own write-throughs while the
		// pages are being reopened — so the whole reopen+recover runs
		// under fault.Protect.
		rerr := fault.Protect(func() error {
			if sc.Durable {
				ffed, _, fdefs, err := tortureWorld(sc)
				if err != nil {
					return err
				}
				rfed, rdefs = ffed, fdefs
				recInj := fault.NewInjector(fault.Plan{CrashAtPoint: sc.StoreRecoveryPoint, CrashAtCount: sc.StoreRecoveryCount})
				if err := reopenStores(rfed, sc, dir, rw, recInj); err != nil {
					return fmt.Errorf("reopening stores for interrupted recovery: %w", err)
				}
			}
			_, e := scheduler.RecoverDurable(rfed, rw, rdefs, nil)
			return e
		})
		if rerr != nil {
			if _, isCrash := fault.AsCrash(rerr); !isCrash {
				return fmt.Errorf("seed %d (%s): interrupted recovery: %w", sc.Seed, sc.Class, rerr)
			}
		}
		if sc.Durable {
			abandonStores(rfed)
		}
	}
	if sc.Durable {
		// Final recovery on a fresh federation over the surviving pages;
		// no injector this time — the system finally stays up.
		ffed, _, fdefs, err := tortureWorld(sc)
		if err != nil {
			return err
		}
		if err := reopenStores(ffed, sc, dir, recLog, nil); err != nil {
			return fmt.Errorf("seed %d (%s): reopening stores: %w", sc.Seed, sc.Class, err)
		}
		fed, defs = ffed, fdefs
	}
	if _, err := scheduler.RecoverDurable(fed, recLog, defs, nil); err != nil {
		return fmt.Errorf("seed %d (%s): recovery: %w", sc.Seed, sc.Class, err)
	}

	if err := fault.CheckRecovered(fault.CheckInput{
		Fed: fed, Log: recLog, Defs: defs, PreCrashRecords: pre,
		PreCrashFull: preFull, Compacted: sc.CompactOnCheckpoint,
	}); err != nil {
		return fmt.Errorf("seed %d (%s): %w", sc.Seed, sc.Class, err)
	}
	if sc.Durable {
		if err := fault.CheckDurableStores(fed); err != nil {
			return fmt.Errorf("seed %d (%s): %w", sc.Seed, sc.Class, err)
		}
	}
	return nil
}

// tortureMaxRestarts bounds per-process restarts in torture runs.
// Permanently failed services (fault.SubsystemFail rules) make their process
// retry until the budget is exhausted and then group-abort; a large
// budget turns that into a retry storm whose multi-thousand-record log
// makes the PRED invariant check (quadratic in prefixes) take minutes
// for a single seed. 24 keeps the exhaustion path exercised while
// bounding the schedule the checker must reduce.
const tortureMaxRestarts = 24

// runUntilCrash drives the scenario's engine until the injected crash
// or clean completion; crashed reports which.
func runUntilCrash(sc TortureScenario, fed *subsystem.Federation, log wal.Log, inj *fault.Injector, jobs []scheduler.Job) (crashed bool, err error) {
	switch sc.Engine {
	case "runtime":
		r, err := runtime.New(fed, runtime.Config{
			Mode: scheduler.PRED, Log: log, MaxRestarts: tortureMaxRestarts, Inject: inj.Point,
			CheckpointEvery: sc.CheckpointEvery, CheckpointLimit: sc.CheckpointLimit,
			CompactOnCheckpoint: sc.CompactOnCheckpoint,
		})
		if err != nil {
			return false, err
		}
		_, err = r.Run(context.Background(), jobs)
		if err == nil {
			return false, nil
		}
		if errors.Is(err, scheduler.ErrCrashed) {
			return true, nil
		}
		return false, err
	default:
		eng, err := scheduler.New(fed, scheduler.Config{
			Mode: scheduler.PRED, Log: log, MaxRestarts: tortureMaxRestarts, Inject: inj.Point,
			CheckpointEvery: sc.CheckpointEvery, CheckpointLimit: sc.CheckpointLimit,
			CompactOnCheckpoint: sc.CompactOnCheckpoint, GroupCommit: sc.GroupCommit,
		})
		if err != nil {
			return false, err
		}
		_, err = eng.RunJobs(jobs)
		if err == nil {
			return false, nil
		}
		if errors.Is(err, scheduler.ErrCrashed) {
			return true, nil
		}
		return false, err
	}
}

// lastFrame reads the log file at path and returns its intact frames
// and where the final one begins (at the end, for a log without one).
func lastFrame(path string) (data []byte, start int, err error) {
	data, err = os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	b := wal.FrameBounds(data)
	if len(b) < 2 {
		return data, len(data), nil
	}
	return data[:b[len(b)-1]], b[len(b)-2], nil
}

// tearTail truncates up to n bytes off the file's final frame (never
// reaching into earlier, acknowledged records): the write that was in
// flight when the crash hit reached the disk only partially.
func tearTail(path string, n int) error {
	data, start, err := lastFrame(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, int64(len(data)-min(n, len(data)-start)))
}

// appendGarbage leaves what a torn write of this format leaves behind:
// a frame header promising more body than follows (a cut copy of the
// final frame).
func appendGarbage(path string) error {
	data, start, err := lastFrame(path)
	if err != nil {
		return err
	}
	frame := data[start:]
	return os.WriteFile(path, append(data, frame[:len(frame)-len(frame)/4]...), 0o644)
}

// forceVariants overlays the run's variants onto a scenario without
// disturbing classes that configure their own checkpoint cadence.
func forceVariants(sc *TortureScenario, v Variants) {
	if v.Ckpt {
		if sc.CheckpointEvery == 0 {
			sc.CheckpointEvery = 6
		}
		sc.CompactOnCheckpoint = true
	}
	if v.Durable {
		sc.Durable = true
	}
}

// Torture is the crash-torture battery: a seeded workload run under a
// seeded fault plan, recovered, and checked against every recovery
// guarantee (fault.CheckRecovered, fault.CheckDurableStores).
var Torture = &Battery{
	Name: "torture",
	Classes: []string{
		"wal-budget", "before-forcelog", "after-forcelog", "2pc-after-decision",
		"2pc-mid-resolve", "file-torn-tail", "file-garbage-tail",
		"runtime-kill-dispatch", "runtime-wal-budget", "crash-during-recovery",
		"ckpt-mid-build", "compact-crash", "stale-ckpt-long-tail", "ckpt-recovery-crash",
		"group-fsync", "store-torn-page", "store-evict-crash", "store-flush-vs-wal",
		"store-recovery-crash",
	},
	Accepts: Variants{Ckpt: true, Durable: true},
	ScenarioFor: func(seed int64, v Variants) (string, string) {
		sc := tortureScenarioFor(seed)
		forceVariants(&sc, v)
		return sc.Class, fmt.Sprintf("%+v", sc)
	},
	Run: func(seed int64, v Variants, dir string) (Stats, error) {
		sc := tortureScenarioFor(seed)
		forceVariants(&sc, v)
		// Armed-plan attribution only (a plan can legitimately outlive the
		// run, e.g. a budget larger than the log; the scenario checks its
		// invariants either way).
		st := Stats{"unarmed": 1}
		if sc.Plan.CrashAfterWALRecords > 0 || sc.Plan.CrashAtPoint != "" || sc.Plan.KillAtDispatch > 0 {
			st = Stats{"armed": 1}
		}
		return st, runTortureScenario(sc, dir)
	},
}

// storePath names a subsystem's heap file within a scenario.
func storePath(dir string, seed int64, sub string) string {
	return filepath.Join(dir, fmt.Sprintf("store-%d-%s.pages", seed, sub))
}

// storeOptions builds the store configuration of a scenario: the
// scenario's pool size and flush mode, the fault injector as the crash
// hook, and the scenario WAL's Sync as the write-ahead barrier (a dirty
// page never reaches the device before the log it depends on).
func storeOptions(sc TortureScenario, log wal.Log, inj *fault.Injector) store.Options {
	opts := store.Options{
		PoolPages: sc.StorePoolPages,
		FlushEach: sc.StoreFlushEach,
		Inject:    inj.Point,
	}
	// wal.Log deliberately omits Sync; every real log (MemLog, FileLog,
	// the fault wrapper) has it, so the barrier is wired by assertion.
	if s, ok := log.(interface{ Sync() error }); ok {
		opts.Barrier = s.Sync
	}
	return opts
}

// attachStores opens a fresh heap file per subsystem (removing any
// leftover from an earlier run of the same seed) and attaches it.
func attachStores(fed *subsystem.Federation, sc TortureScenario, dir string, log wal.Log, inj *fault.Injector) error {
	for _, sub := range fed.Subsystems() {
		path := storePath(dir, sc.Seed, sub.Name())
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("removing stale store %s: %w", path, err)
		}
		st, err := store.OpenFile(path, storeOptions(sc, log, inj))
		if err != nil {
			return fmt.Errorf("opening store %s: %w", path, err)
		}
		if err := sub.AttachStore(st); err != nil {
			return fmt.Errorf("attaching store %s: %w", path, err)
		}
	}
	return nil
}

// reopenStores reopens the scenario's heap files — whatever the crash
// left on disk — into a (fresh) federation's subsystems.
func reopenStores(fed *subsystem.Federation, sc TortureScenario, dir string, log wal.Log, inj *fault.Injector) error {
	for _, sub := range fed.Subsystems() {
		path := storePath(dir, sc.Seed, sub.Name())
		st, err := store.OpenFile(path, storeOptions(sc, log, inj))
		if err != nil {
			return fmt.Errorf("reopening store %s: %w", path, err)
		}
		if err := sub.AttachStore(st); err != nil {
			return fmt.Errorf("attaching reopened store %s: %w", path, err)
		}
	}
	return nil
}

// abandonStores closes every attached store crash-style: dirty pool
// pages are dropped, only what reached the device survives.
func abandonStores(fed *subsystem.Federation) {
	for _, sub := range fed.Subsystems() {
		if st := sub.DurableStore(); st != nil {
			st.Abandon()
		}
	}
}

// tearStorePage simulates a torn page write: one byte of one page of
// one subsystem's heap file is flipped (seed-deterministic choice), so
// the page's checksum fails at the next Open and the store must repair
// it and recovery must redo its lost records from the WAL. Files with
// no pages are skipped.
func tearStorePage(fed *subsystem.Federation, sc TortureScenario, dir string) error {
	rng := rand.New(rand.NewSource(sc.Seed*2654435761 + 97))
	subs := fed.Subsystems()
	for _, off := range rng.Perm(len(subs)) {
		path := storePath(dir, sc.Seed, subs[off].Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("reading store for tear: %w", err)
		}
		if len(data) < store.PageSize {
			continue
		}
		page := rng.Intn(len(data) / store.PageSize)
		at := int64(page*store.PageSize + rng.Intn(store.PageSize))
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		b := []byte{data[at] ^ 0xff}
		if _, err := f.WriteAt(b, at); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil // no store has a full page yet — nothing to tear
}
