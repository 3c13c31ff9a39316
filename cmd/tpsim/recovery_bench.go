package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"transproc/internal/fault"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/store"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// recoveryFixture builds a file-backed log carrying roughly size
// records of terminated history (a clean template run cloned under
// renamed process ids), arms a crashed live run on top of it, and
// reports what recovery had to do. withCkpt takes a fuzzy checkpoint
// and compacts the log before the live run — the history then enters
// recovery only as the checkpoint summary instead of replayed records.
type recoveryStats struct {
	HistoryRecords int
	ReplayRecords  int
	LiveTail       int
	RecoverMillis  float64
	InDoubt        int
	NonTerminal    int
	// Durable-variant extras: what the composed page recovery did.
	RedoItems    int
	FlushedPages int
}

// benchSeed fixes the synthetic-history workload; the template run and
// the crashed live run are both derived from it deterministically.
const benchSeed = 21

func benchProfile() workload.Profile {
	p := workload.DefaultProfile(benchSeed)
	p.Processes = 12
	p.ConflictProb = 0.4
	p.PermFailureProb = 0
	p.TransientFailureProb = 0
	return p
}

// cloneRecord renames a template record into clone k's namespace; the
// log assigns fresh LSNs on append. Transaction ids are shifted into a
// per-clone range so historic txs can never collide with the live
// run's (the durable recovery pass tracks in-doubt txs by raw id).
func cloneRecord(r wal.Record, k int) wal.Record {
	if r.Proc != "" {
		r.Proc = fmt.Sprintf("%s~%d", r.Proc, k)
	}
	if r.Tx != 0 {
		r.Tx += int64(k+1) * 1_000_000
	}
	return r
}

// attachBenchStores opens (or reopens) one heap file per subsystem
// under dir and attaches it; sync is the WAL barrier.
func attachBenchStores(fed *subsystem.Federation, size int, withCkpt bool, dir string, sync func() error) error {
	for _, sub := range fed.Subsystems() {
		path := filepath.Join(dir, fmt.Sprintf("bench-%d-%v-%s.pages", size, withCkpt, sub.Name()))
		sst, err := store.OpenFile(path, store.Options{Barrier: sync})
		if err != nil {
			return fmt.Errorf("opening store %s: %w", path, err)
		}
		if err := sub.AttachStore(sst); err != nil {
			return fmt.Errorf("attaching store %s: %w", path, err)
		}
	}
	return nil
}

// recoveryFixture is one benchmark datapoint. durable backs the live
// federation with file-backed heap stores, simulates the crash by
// dropping every unflushed page, and recovers pages and scheduler
// state together via RecoverDurable on a fresh federation.
func recoveryFixture(size int, withCkpt, durable bool, dir string) (recoveryStats, error) {
	var st recoveryStats

	// Template: one clean run of the workload on an in-memory log.
	wt := workload.MustGenerate(benchProfile())
	tlog := wal.NewMemLog()
	eng, err := scheduler.New(wt.Fed, scheduler.Config{Mode: scheduler.PRED, Log: tlog, MaxRestarts: 16})
	if err != nil {
		return st, err
	}
	if _, err := eng.RunJobs(wt.Jobs); err != nil {
		return st, fmt.Errorf("template run: %w", err)
	}
	tmpl, err := tlog.Records()
	if err != nil {
		return st, err
	}
	if len(tmpl) == 0 {
		return st, fmt.Errorf("template run produced no records")
	}

	// History: the template cloned until roughly size records sit in the
	// file, every clone under renamed (terminated) process ids.
	path := filepath.Join(dir, fmt.Sprintf("bench-%d-%v-%v.log", size, withCkpt, durable))
	flog, err := wal.OpenFile(path, false)
	if err != nil {
		return st, err
	}
	defer flog.Close()
	clones := size / len(tmpl)
	if clones < 1 {
		clones = 1
	}
	var histLSN int64
	for k := 0; k < clones; k++ {
		for _, r := range tmpl {
			lsn, err := flog.Append(cloneRecord(r, k))
			if err != nil {
				return st, fmt.Errorf("cloning history: %w", err)
			}
			histLSN = lsn
		}
	}
	st.HistoryRecords = clones * len(tmpl)

	// Fresh federation for the live run (same services, clean state).
	w := workload.MustGenerate(benchProfile())
	defs := make([]*process.Process, 0, len(w.Jobs))
	for _, j := range w.Jobs {
		defs = append(defs, j.Proc)
	}
	table, err := w.Fed.ConflictTable()
	if err != nil {
		return st, err
	}

	if withCkpt {
		if _, err := wal.TakeCheckpoint(flog, table.Conflicts, nil, nil); err != nil {
			return st, fmt.Errorf("checkpoint: %w", err)
		}
		if err := flog.Compact(nil); err != nil {
			return st, fmt.Errorf("compact: %w", err)
		}
	}
	if durable {
		if err := attachBenchStores(w.Fed, size, withCkpt, dir, flog.Sync); err != nil {
			return st, err
		}
	}

	// Crashed live run on top of the history.
	fw := fault.WrapWAL(flog, 60)
	live, err := scheduler.New(w.Fed, scheduler.Config{Mode: scheduler.PRED, Log: fw, MaxRestarts: 16})
	if err != nil {
		return st, err
	}
	if _, err := live.RunJobs(w.Jobs); !errors.Is(err, scheduler.ErrCrashed) {
		return st, fmt.Errorf("live run: want ErrCrashed, got %v", err)
	}

	// Reopen across the crash and time recovery. A durable crash also
	// drops every unflushed heap page and hands recovery a factory-fresh
	// federation: pages + log are all that survive.
	if err := flog.Close(); err != nil {
		return st, err
	}
	if durable {
		for _, sub := range w.Fed.Subsystems() {
			if sst := sub.DurableStore(); sst != nil {
				sst.Abandon()
			}
		}
		w = workload.MustGenerate(benchProfile())
		defs = defs[:0]
		for _, j := range w.Jobs {
			defs = append(defs, j.Proc)
		}
	}
	rlog, err := wal.OpenFile(path, false)
	if err != nil {
		return st, err
	}
	defer rlog.Close()
	if durable {
		if err := attachBenchStores(w.Fed, size, withCkpt, dir, rlog.Sync); err != nil {
			return st, err
		}
	}
	recs, err := rlog.Records()
	if err != nil {
		return st, err
	}
	exp := wal.Expand(recs)
	st.ReplayRecords = len(exp.Records)
	// The live tail is everything the crashed run appended after the
	// synthetic history (and, in the checkpointed variant, after the
	// checkpoint — it is taken between the two).
	for _, r := range recs {
		if r.Type != wal.RecCheckpoint && r.LSN > histLSN {
			st.LiveTail++
		}
	}

	startT := time.Now()
	rep, err := scheduler.RecoverDurable(w.Fed, rlog, defs, nil)
	if err != nil {
		return st, fmt.Errorf("recovery: %w", err)
	}
	st.RecoverMillis = float64(time.Since(startT).Microseconds()) / 1000
	st.RedoItems = rep.RedoItems
	st.FlushedPages = rep.FlushedPages
	if durable {
		// Storage-level post-conditions: no torn page, no stale intent,
		// pages byte-equal to the sequential oracle.
		if err := fault.CheckDurableStores(w.Fed); err != nil {
			return st, fmt.Errorf("durable recovery check: %w", err)
		}
	}

	// Sanity on the recovered state: every live process terminal, no
	// in-doubt transactions.
	after, err := rlog.Records()
	if err != nil {
		return st, err
	}
	images, err := wal.Analyze(wal.Expand(after).Records)
	if err != nil && err != wal.ErrNoLog {
		return st, err
	}
	for _, img := range images {
		if !img.Terminated {
			st.NonTerminal++
		}
	}
	st.InDoubt = len(w.Fed.InDoubt())
	return st, nil
}

// e14 checks the bounded-time recovery claim deterministically: with a
// checkpoint and compaction, the records recovery replays after a crash
// are bounded by the live tail regardless of how much terminated
// history the log accumulated, while full-log recovery replays all of
// it; both paths still finish every process and resolve every in-doubt
// transaction.
func e14() error {
	dir, err := os.MkdirTemp("", "tpsim-e14")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	sizes := []int{500, 2000, 8000}
	var ckptReplays []int
	var errs []error
	for _, size := range sizes {
		full, err := recoveryFixture(size, false, false, dir)
		if err != nil {
			return fmt.Errorf("size %d full: %w", size, err)
		}
		ckpt, err := recoveryFixture(size, true, false, dir)
		if err != nil {
			return fmt.Errorf("size %d ckpt: %w", size, err)
		}
		durable, err := recoveryFixture(size, false, true, dir)
		if err != nil {
			return fmt.Errorf("size %d durable: %w", size, err)
		}
		fmt.Printf("  history ≈%d records: full replays %d (%.1fms), checkpointed replays %d (%.1fms), durable replays %d (%.1fms, %d redo items onto %d pages)\n",
			size, full.ReplayRecords, full.RecoverMillis, ckpt.ReplayRecords, ckpt.RecoverMillis,
			durable.ReplayRecords, durable.RecoverMillis, durable.RedoItems, durable.FlushedPages)
		errs = append(errs,
			verdict(full.ReplayRecords == full.HistoryRecords+full.LiveTail,
				"full-log recovery replays history + tail (%d = %d + %d)",
				full.ReplayRecords, full.HistoryRecords, full.LiveTail),
			verdict(ckpt.ReplayRecords == ckpt.LiveTail,
				"checkpointed recovery replays only the live tail (%d records)", ckpt.ReplayRecords),
			verdict(full.NonTerminal == 0 && full.InDoubt == 0,
				"full-log recovery terminates every process, no in-doubt left"),
			verdict(ckpt.NonTerminal == 0 && ckpt.InDoubt == 0,
				"checkpointed recovery terminates every process, no in-doubt left"),
			// The durable fixture's CheckDurableStores already enforced
			// torn-page-freedom and oracle byte-equality; assert the
			// composed recovery also finished the scheduler side and
			// actually redid work into pages.
			verdict(durable.NonTerminal == 0 && durable.InDoubt == 0,
				"durable recovery terminates every process, no in-doubt left"),
			verdict(durable.RedoItems > 0 && durable.FlushedPages > 0,
				"durable recovery redid subsystem state into heap pages (%d items, %d pages)",
				durable.RedoItems, durable.FlushedPages),
		)
		ckptReplays = append(ckptReplays, ckpt.ReplayRecords)
	}
	spread := ckptReplays[len(ckptReplays)-1] - ckptReplays[0]
	if spread < 0 {
		spread = -spread
	}
	errs = append(errs, verdict(spread <= 8,
		"checkpointed replay length is independent of history size (spread %d across %v)", spread, ckptReplays))
	return firstErr(errs...)
}
