package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"time"

	"transproc/internal/fault"
	"transproc/internal/scheduler"
	"transproc/internal/store"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// recoverSpec is the restart-recovery workload: a file-backed log of
// terminated history with a crashed live tail on top, recovered by
// wal.OpenFile + scheduler.Recover and — on a second fixture whose
// subsystems lost their unflushed heap pages — by RecoverDurable.
type recoverSpec struct {
	name, why string
	records   int // history size
	liveProcs int
	liveTail  int // records the crashed live run gets to append
	conflict  float64
	minReps   int
}

// historyTemplates is how many distinct template runs one fixture's
// history is cloned from.
const historyTemplates = 8

// durableReps is how many of a run's recoveries are durable ones.
const durableReps = 3

// fixture is one crashed system ready to be recovered.
type fixture struct {
	dir     string
	logPath string
	gen     *generated // the live run's inputs; for durable, a factory-fresh copy
	history int        // records of terminated history
	procs   int        // processes in the log (history clones + live)
	setup   time.Duration
	genTime time.Duration
}

// recoverRep is one timed recovery.
type recoverRep struct {
	fx       *fixture
	durable  bool
	wall     time.Duration
	heapMB   float64
	procs    int
	commits  int
	nonTerm  int
	inDoubt  int
	flushed  int
	replayed int
	forward  int   // processes recovery had to drive forward
	runSpan  int64 // id of the timed span when tracing
	err      error
}

func (s recoverSpec) attachStores(fed *subsystem.Federation, dir string, barrier func() error) error {
	for _, sub := range fed.Subsystems() {
		st, err := store.OpenFile(filepath.Join(dir, sub.Name()+".pages"), store.Options{Barrier: barrier})
		if err != nil {
			return err
		}
		if err := sub.AttachStore(st); err != nil {
			return err
		}
	}
	return nil
}

func closeStores(fed *subsystem.Federation, abandon bool) {
	for _, sub := range fed.Subsystems() {
		if st := sub.DurableStore(); st != nil {
			if abandon {
				st.Abandon()
			} else {
				st.Close()
			}
		}
	}
}

// build makes the stream-th fixture of the run seed: a clean template
// run of the live workload on the sequential engine, cloned under
// renamed process ids until the file log holds s.records records, then
// the same workload run again on top and crashed after s.liveTail
// appends. withCkpt checkpoints and compacts the history first. For
// durable the live federation writes through heap files, the crash
// drops every unflushed page, and recovery gets a factory-fresh
// federation: pages and log are all that survive.
func (s recoverSpec) build(o *options, stream int, durable, withCkpt bool) (*fixture, error) {
	start := time.Now()
	fx := &fixture{dir: filepath.Join(o.dataDir, fmt.Sprintf("%s-%d", s.name, stream))}
	if err := os.MkdirAll(fx.dir, 0o755); err != nil {
		return nil, err
	}
	fx.logPath = filepath.Join(fx.dir, "wal.log")

	// The history is cloned from historyTemplates template runs in
	// turn, so that records per process and replay cost per record are
	// those of the profile and not of one 12-process draw.
	var tmplGen *generated
	var tmpls [][]wal.Record
	for j := 0; j < historyTemplates; j++ {
		genStart := time.Now()
		// The first template is also the live run's workload and gets
		// the pinned conflict structure; replaying terminated history
		// costs the same whatever conflicted, so the others are plain
		// draws.
		pick := generate
		if j > 0 {
			pick = draw
		}
		g, err := pick(baseProfile(s.liveProcs, s.conflict, 0, 0), o.seed, s.name, stream*historyTemplates+j)
		if err != nil {
			return nil, err
		}
		fx.genTime += time.Since(genStart)
		if j == 0 {
			tmplGen = g
		}
		tlog := wal.NewMemLog()
		eng, err := scheduler.New(g.w.Fed, scheduler.Config{Mode: scheduler.PRED, Log: tlog, MaxRestarts: 16})
		if err != nil {
			return nil, err
		}
		if _, err := eng.RunJobs(g.w.Jobs); err != nil {
			return nil, fmt.Errorf("template run: %w", err)
		}
		tmpl, err := tlog.Records()
		if err != nil {
			return nil, err
		}
		if len(tmpl) == 0 {
			return nil, fmt.Errorf("template run logged nothing")
		}
		tmpls = append(tmpls, tmpl)
	}

	flog, err := wal.OpenFile(fx.logPath, false)
	if err != nil {
		return nil, err
	}
	for k := 0; fx.history < s.records/o.scale; k++ {
		for _, r := range tmpls[k%len(tmpls)] {
			// A clone lives in its own id and transaction-id range so
			// history can never collide with the live run.
			if r.Proc != "" {
				r.Proc = fmt.Sprintf("%s~%d", r.Proc, k)
			}
			if r.Tx != 0 {
				r.Tx += int64(k+1) * 1_000_000
			}
			if _, err := flog.Append(r); err != nil {
				flog.Close()
				return nil, err
			}
			fx.history++
		}
		fx.procs += len(tmplGen.defs)
	}
	fx.procs += len(tmplGen.defs)

	live, err := tmplGen.regenerate()
	if err != nil {
		flog.Close()
		return nil, err
	}
	if withCkpt {
		table, err := live.w.Fed.ConflictTable()
		if err == nil {
			_, err = wal.TakeCheckpoint(flog, table.Conflicts, nil, nil)
		}
		if err == nil {
			err = flog.Compact(nil)
		}
		if err != nil {
			flog.Close()
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
	}
	if durable {
		if err := s.attachStores(live.w.Fed, fx.dir, flog.Sync); err != nil {
			flog.Close()
			return nil, err
		}
	}
	crash := fault.WrapWAL(flog, s.liveTail)
	liveEng, err := scheduler.New(live.w.Fed, scheduler.Config{Mode: scheduler.PRED, Log: crash, MaxRestarts: 16})
	if err != nil {
		flog.Close()
		return nil, err
	}
	if _, err := liveEng.RunJobs(live.w.Jobs); !errors.Is(err, scheduler.ErrCrashed) {
		flog.Close()
		return nil, fmt.Errorf("live run: want ErrCrashed, got %v", err)
	}
	if err := flog.Close(); err != nil {
		return nil, err
	}
	fx.gen = live
	if durable {
		closeStores(live.w.Fed, true)
		if fx.gen, err = tmplGen.regenerate(); err != nil {
			return nil, err
		}
	}
	fx.setup = time.Since(start)
	return fx, nil
}

// recover times open + recover on a fixture and reads the recovered
// state back.
func (s recoverSpec) recover(fx *fixture, durable bool, sc scope) *recoverRep {
	rep := &recoverRep{fx: fx, durable: durable, procs: fx.procs}
	fed := fx.gen.w.Fed
	// every recovery starts on a collected heap, whatever building its
	// fixture left behind
	gort.GC()
	runScope, endRun := sc.begin("run")
	rep.runSpan = runScope.parent
	_, endOpen := runScope.begin("wal.open")
	log, err := wal.OpenFile(fx.logPath, false)
	endOpen()
	if err != nil {
		rep.err = err
		return rep
	}
	defer log.Close()
	_, endRecover := runScope.begin("recover")
	if durable {
		var dr *scheduler.DurableReport
		if err = s.attachStores(fed, fx.dir, log.Sync); err == nil {
			dr, err = scheduler.RecoverDurable(fed, log, fx.gen.defs, nil)
		}
		if dr != nil {
			rep.flushed = dr.FlushedPages
			rep.forward = len(dr.ForwardRecovered)
		}
		defer closeStores(fed, false)
	} else {
		var rr *scheduler.RecoveryReport
		if rr, err = scheduler.Recover(fed, log, fx.gen.defs); rr != nil {
			rep.forward = len(rr.ForwardRecovered)
		}
	}
	endRecover()
	rep.wall = endRun()
	if err != nil {
		rep.err = fmt.Errorf("recovery: %w", err)
		return rep
	}
	rep.heapMB = retainedHeapMB(log, fed)

	after, err := log.Records()
	if err != nil {
		rep.err = err
		return rep
	}
	exp := wal.Expand(after)
	rep.replayed = len(exp.Records)
	images, err := wal.Analyze(exp.Records)
	if err != nil {
		rep.err = err
		return rep
	}
	for _, img := range images {
		if !img.Terminated {
			rep.nonTerm++
		} else if img.TerminatedCommitted {
			rep.commits++
		}
	}
	rep.inDoubt = len(fed.InDoubt())
	if durable {
		if err := fault.CheckDurableStores(fed); err != nil {
			rep.err = fmt.Errorf("durable stores after recovery: %w", err)
		}
	}
	return rep
}

// checkRecovered is the output check of one recovery; on the last rep
// it also demands that a second Recover finds nothing left to do.
func (s recoverSpec) checkRecovered(r *report, rep *recoverRep, label string, again bool) {
	if rep.err != nil {
		r.fail(1, "%s: %v", label, rep.err)
		return
	}
	if rep.inDoubt != 0 || rep.nonTerm != 0 {
		r.fail(1, "%s: inDoubt = %d, nonTerminal = %d after recovery", label, rep.inDoubt, rep.nonTerm)
	}
	if !again {
		return
	}
	log, err := wal.OpenFile(rep.fx.logPath, false)
	if err != nil {
		r.fail(1, "%s: reopen: %v", label, err)
		return
	}
	defer log.Close()
	before, _ := log.Records()
	rr, err := scheduler.Recover(rep.fx.gen.w.Fed, log, rep.fx.gen.defs)
	after, _ := log.Records()
	switch {
	case err != nil:
		r.fail(1, "%s: second Recover: %v", label, err)
	case len(after) != len(before) || rr.Compensations+rr.ForwardInvocations+rr.Resolved2PCCommitted+rr.Resolved2PCAborted != 0 ||
		len(rr.BackwardRecovered)+len(rr.ForwardRecovered) != 0:
		r.fail(1, "%s: second Recover was not a no-op (%d records appended, report %+v)", label, len(after)-len(before), *rr)
	}
}

func (s recoverSpec) run(o *options, _ map[string]float64) *report {
	r := newReport(s.name, s.why)
	start := time.Now()
	var reps []*recoverRep
	var setup []float64
	// A durable recovery after every two plain ones until durableReps are
	// in, then plain ones only: the kinds share the machine state of the
	// run's first seconds, and the plain kind, which the metrics common
	// to all workloads are read from, gets the rest of the budget.
	limit := 1 << 30
	if o.trace {
		limit = 3
	}
	durables := 0
	var cal calibration
	var plainMS, durableMS, procs, heap, commit []float64
	for i := 0; i < limit && (i < 3*s.minReps || time.Since(start).Seconds() < o.seconds); i++ {
		durable := i%3 == 2 && durables < durableReps
		fx, err := s.build(o, i, durable, false)
		if err != nil {
			r.Attempted++
			r.fail(1, "fixture %d: %v", i, err)
			break
		}
		setup = append(setup, fx.setup.Seconds())
		rep := s.recover(fx, durable, scope{})
		r.Attempted += rep.procs
		s.checkRecovered(r, rep, fmt.Sprintf("recovery %d", i), false)
		os.RemoveAll(fx.dir)
		if !o.trace {
			cal.sample(fx.setup + rep.wall)
		}
		// a fixture kept past its rep would count as the next one's
		// retained heap
		rep.fx = nil
		reps = append(reps, rep)
		if durable {
			durables++
		}
		if rep.err != nil {
			continue
		}
		if rep.forward > 0 {
			// Driving a process forward re-ranks the whole log, ten times
			// the cost of everything else; liveTail is sized so that it
			// does not happen, and a rep where it did is not a sample of
			// decode and replay.
			r.Notes = append(r.Notes, fmt.Sprintf("recovery %d drove %d processes forward (%.0f ms); left out of the medians", i, rep.forward, ms(rep.wall)))
			continue
		}
		if rep.durable {
			durableMS = append(durableMS, ms(rep.wall))
			continue
		}
		plainMS = append(plainMS, ms(rep.wall))
		procs = append(procs, float64(rep.procs))
		heap = append(heap, rep.heapMB)
		commit = append(commit, float64(rep.commits)/float64(rep.procs))
	}
	r.Samples["wall_ms"], r.Samples["durable_ms"], r.Samples["setup_s"], r.Samples["heap_mb"], r.Samples["ref_ms"] = plainMS, durableMS, setup, heap, cal.passMS
	opMS := r.atReference(&cal, fasterHalf(plainMS), 0, median(setup), len(plainMS))
	r.E2E["recover_ms"] = r.E2E["op_ms"]
	r.E2E["recover_durable_ms"] = value{fasterHalf(durableMS) * cal.toReference(), len(durableMS)}
	if len(plainMS) > 0 {
		r.E2E["procs_per_s"] = value{median(procs) / (opMS / 1e3), len(plainMS)}
	}
	r.E2E["commit_share"] = value{median(commit), len(commit)}
	r.E2E["retained_heap_mb"] = value{median(heap), len(heap)}

	// The no-op check needs the fixture's files, so it gets one of its own.
	if fx, err := s.build(o, 1<<20, false, false); err != nil {
		r.fail(1, "check fixture: %v", err)
	} else {
		rep := s.recover(fx, false, scope{})
		r.Attempted += rep.procs
		s.checkRecovered(r, rep, "check recovery", true)
		r.Notes = append(r.Notes, fmt.Sprintf("%d records of terminated history + a crashed %d-process live tail; %d processes in the log, %d records replayed",
			fx.history, s.liveProcs, fx.procs, rep.replayed))
		os.RemoveAll(fx.dir)
	}
	if o.trace {
		s.traced(o, r, reps)
	}
	return r
}

// traced recovers one more plain fixture under spans, one
// checkpointed + compacted fixture, and times a bare decode of the
// log.
func (s recoverSpec) traced(o *options, r *report, untraced []*recoverRep) {
	L := r.Layer
	fx, err := s.build(o, 0, false, false)
	if err != nil {
		r.fail(1, "traced fixture: %v", err)
		return
	}
	defer os.RemoveAll(fx.dir)

	// wal.replay: open + Records on the crashed log, nothing else.
	start := time.Now()
	log, err := wal.OpenFile(fx.logPath, false)
	var recs []wal.Record
	if err == nil {
		recs, err = log.Records()
		log.Close()
	}
	decode := time.Since(start)
	if err != nil || len(recs) == 0 {
		r.fail(1, "replay: %v (%d records)", err, len(recs))
		return
	}
	L["wal.replay_us_per_record"] = us(decode) / float64(len(recs))

	rep := s.recover(fx, false, o.tr.rep())
	r.Attempted += rep.procs
	s.checkRecovered(r, rep, "traced recovery", false)
	if rep.err != nil {
		return
	}
	L["scheduler.recover_us_per_record"] = us(rep.wall) / float64(rep.replayed)
	L["scheduler.recover_replayed_records"] = float64(rep.replayed)
	L["workload.generate_ms"] = ms(fx.genTime)
	L["spec.submit_body_bytes"] = meanBodyBytes(fx.gen.defs)
	for _, u := range untraced {
		if u.err != nil {
			continue
		}
		if u.durable {
			L["scheduler.recover_durable_ms"] = ms(u.wall)
			L["store.flushed_pages"] = float64(u.flushed)
		} else {
			r.UntracedWall, r.TracedWall = u.wall.Seconds(), rep.wall.Seconds()
			L["trace_overhead_share"] = rep.wall.Seconds()/u.wall.Seconds() - 1
		}
	}

	cfx, err := s.build(o, 1, false, true)
	if err != nil {
		r.fail(1, "checkpointed fixture: %v", err)
	} else {
		crep := s.recover(cfx, false, scope{})
		r.Attempted += crep.procs
		s.checkRecovered(r, crep, "checkpointed recovery", false)
		if crep.err == nil {
			L["scheduler.recover_ckpt_ms"] = ms(crep.wall)
		}
		os.RemoveAll(cfx.dir)
	}

	r.Stages = buildStages(o.tr.spans(), rep.runSpan, []string{"wal.open", "recover"}, nil, "unattributed (remainder)")
}
