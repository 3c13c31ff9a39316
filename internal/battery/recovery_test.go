package battery

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/fault"
	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// recoveryReportLine crashes one torture scenario and recovers it in a
// single uninterrupted pass (the scenario's own crash-during-recovery
// budget counts recovery's appends, so where it cuts is a property of
// the implementation, not of the log), and renders the part of the
// report that is a function of the crashed state alone.
func recoveryReportLine(t *testing.T, name string, seed int64, v Variants) string {
	t.Helper()
	sc := tortureScenarioFor(seed)
	forceVariants(&sc, v)
	if sc.Engine != "engine" {
		return ""
	}
	dir := t.TempDir()
	fed, defs, log, _, err := crashTortureScenario(sc, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var rep *scheduler.RecoveryReport
	if sc.Durable {
		// As the scenario's final pass: a factory-fresh federation over
		// the heap files the crash left.
		if fed, _, defs, err = tortureWorld(sc); err != nil {
			t.Fatal(err)
		}
		if err := reopenStores(fed, sc, dir, log, nil); err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		dr, err := scheduler.RecoverDurable(fed, log, defs, nil)
		if err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		rep = dr.RecoveryReport
	} else if rep, err = scheduler.Recover(fed, log, defs); err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	ids := func(in []process.ID) string {
		out := make([]string, len(in))
		for i, id := range in {
			out[i] = string(id)
		}
		sort.Strings(out)
		return "[" + strings.Join(out, ",") + "]"
	}
	return fmt.Sprintf("%s %d backward=%s forward=%s compensations=%d forwardInvocations=%d committed2PC=%d aborted2PC=%d\n",
		name, seed, ids(rep.BackwardRecovered), ids(rep.ForwardRecovered),
		rep.Compensations, rep.ForwardInvocations, rep.Resolved2PCCommitted, rep.Resolved2PCAborted)
}

// TestRecoveryReportTable holds restart recovery to the committed table
// of what it reported, per torture seed 0..199 plain and with forced
// checkpoints, at the commit before the group abort moved onto the
// protocol driver (the scenarios that crash the sequential engine; the
// concurrent runtime's logs differ run to run). Who is recovered which
// way, how many steps their completions hold and how the in-doubt
// transactions resolve are decided by the log and the surviving
// subsystems, not by the order recovery works in — so a recovery that
// orders its steps through other code must still report exactly this.
func TestRecoveryReportTable(t *testing.T) {
	t.Parallel() // with the crash sweep, once the batteries are through
	want, err := os.ReadFile("testdata/recovery_reports.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, variant := range []struct {
		name string
		v    Variants
	}{{"plain", Variants{}}, {"ckpt", Variants{Ckpt: true}}} {
		for seed := int64(0); seed < 200; seed++ {
			got.WriteString(recoveryReportLine(t, variant.name, seed, variant.v))
		}
	}
	if got.String() == string(want) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("table has %d lines, recovery produced %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("line %d:\n   table: %s\nrecovery: %s", i+1, wantLines[i], gotLines[i])
		}
	}
}

// TestRecoveryCrashSweep crashes small runs at every force-log and each
// of those recoveries at every one of its own: the geometries of the
// paper's Figures 7 and 8 (a21 behind a backward-recoverable P1; figure7
// admits the pair in the other order, a11 behind P2) and 9 (a31 behind a
// quasi-committed P1), clean and with a permanent failure at each
// activity that can fail, on a plain log and with a checkpoint every six
// appends plus compaction. fault.CheckRecovered judges every recovery,
// single and doubly crashed. -battery.count sets the processes per
// geometry (2 by default, 3 nightly).
func TestRecoveryCrashSweep(t *testing.T) {
	perGeometry := 2
	if selected.count > 0 {
		perGeometry = int(min(selected.count, 3))
	}
	for _, g := range []struct {
		name  string
		procs []*process.Process
	}{
		{"figure7", []*process.Process{paper.P2(), paper.P1(), paper.P3()}},
		{"figure8", []*process.Process{paper.P1(), paper.P2(), paper.P3()}},
		{"figure9", []*process.Process{paper.P1(), paper.P3(), paper.P2()}},
	} {
		defs := g.procs[:perGeometry]
		failures := [][2]string{{}} // {process, service}; the first is "none"
		for _, d := range defs {
			for _, a := range d.Activities() {
				if a.Kind == activity.Compensatable || a.Kind == activity.Pivot {
					failures = append(failures, [2]string{string(d.ID), a.Service})
				}
			}
		}
		for _, ckpt := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ckpt=%v", g.name, ckpt), func(t *testing.T) {
				t.Parallel()
				for _, fail := range failures {
					sweepCrashes(t, defs, fail, ckpt)
				}
			})
		}
	}
}

// sweepCrashes is one cell of TestRecoveryCrashSweep: fail names the
// {process, service} that fails permanently ("" for none).
func sweepCrashes(t *testing.T, defs []*process.Process, fail [2]string, ckpt bool) {
	// crash runs the processes until the k-th force-log.
	crash := func(k int) (*subsystem.Federation, wal.Log, bool) {
		fed := paper.Federation(1)
		if fail[0] != "" {
			sub, _ := fed.Owner(fail[1])
			sub.FailService(fail[0], fail[1])
		}
		log := wal.NewMemLog()
		cfg := scheduler.Config{Mode: scheduler.PRED, Log: fault.WrapWAL(log, k)}
		if ckpt {
			cfg.CheckpointEvery, cfg.CompactOnCheckpoint = 6, true
		}
		eng, err := scheduler.New(fed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Run(defs)
		if err != nil && !errors.Is(err, scheduler.ErrCrashed) {
			t.Fatalf("fail=%v k=%d: run: %v", fail, k, err)
		}
		return fed, log, err != nil
	}
	recoverAndJudge := func(fed *subsystem.Federation, log wal.Log, pre, preFull int, where string) {
		if _, err := scheduler.Recover(fed, log, defs); err != nil {
			t.Fatalf("fail=%v %s: recovery: %v", fail, where, err)
		}
		if err := fault.CheckRecovered(fault.CheckInput{
			Fed: fed, Log: log, Defs: defs, PreCrashRecords: pre, PreCrashFull: preFull, Compacted: ckpt,
		}); err != nil {
			t.Fatalf("fail=%v %s: %v", fail, where, err)
		}
	}
	for k := 1; ; k++ {
		fed, log, crashed := crash(k)
		if !crashed {
			if k < 10 {
				t.Fatalf("fail=%v: the run made only %d force-logs", fail, k-1)
			}
			return
		}
		before, _ := log.Records()
		pre, preFull := crashBoundaries(before)
		recoverAndJudge(fed, log, pre, preFull, fmt.Sprintf("k=%d", k))
		after, _ := log.Records()
		// The second Recover inside the judge appended nothing, so the
		// difference is the first one's force-logs.
		for j := 1; j <= len(after)-len(before); j++ {
			fed, log, _ := crash(k)
			err := fault.Protect(func() error {
				_, err := scheduler.Recover(fed, fault.WrapWAL(log, j), defs)
				return err
			})
			if _, isCrash := fault.AsCrash(err); !isCrash {
				t.Fatalf("fail=%v k=%d j=%d: recovery did not crash: %v", fail, k, j, err)
			}
			recoverAndJudge(fed, log, pre, preFull, fmt.Sprintf("k=%d j=%d", k, j))
		}
	}
}

// TestRecoveryOrdersForwardStepsThroughTerminatedMediator is the case
// the order through terminated history exists for. Pz and Pa are both
// past their pivots with one forward step left, and the steps conflict.
// Nothing of Pz conflicts with anything of Pa, but T, which committed
// and terminated in between, ran after Pz's a (conflict) and before Pa's
// b (conflict): Pz → T → Pa, so Pz's step must run first although Pa is
// first in every other order. Recovered from the full log, from a
// checkpoint that summarized T away before Pa's b (the order survives in
// the checkpoint's shadow services) and from one taken after it (in its
// closure edges): the same step order, and the judge is content.
func TestRecoveryOrdersForwardStepsThroughTerminatedMediator(t *testing.T) {
	chain := func(id process.ID, first, pivot, last string) *process.Process {
		return process.NewBuilder(id).
			Add(1, first, activity.Compensatable).Add(2, pivot, activity.Pivot).Add(3, last, activity.Retriable).
			Seq(1, 2).Seq(2, 3).MustBuild()
	}
	defs := []*process.Process{
		chain("Pz", "a", "pz", "fz"),
		chain("Pa", "b", "pa", "fa"),
		process.NewBuilder("T").Add(1, "t1", activity.Compensatable).Add(2, "t2", activity.Compensatable).Seq(1, 2).MustBuild(),
	}
	for _, ckptAfter := range []string{"", "T", "Pa/1"} { // "": full log
		sub := subsystem.New("s", 1)
		for svc, spec := range map[string]activity.Spec{
			"a": {Kind: activity.Compensatable, WriteSet: []string{"x"}}, "t1": {Kind: activity.Compensatable, WriteSet: []string{"x"}},
			"t2": {Kind: activity.Compensatable, WriteSet: []string{"y"}}, "b": {Kind: activity.Compensatable, WriteSet: []string{"y"}},
			"fz": {Kind: activity.Retriable, WriteSet: []string{"z"}}, "fa": {Kind: activity.Retriable, WriteSet: []string{"z"}},
			"pz": {Kind: activity.Pivot, WriteSet: []string{"pz"}}, "pa": {Kind: activity.Pivot, WriteSet: []string{"pa"}},
		} {
			spec.Name, spec.Subsystem, spec.Cost = svc, "s", 1
			if spec.Kind == activity.Compensatable {
				spec.Compensation = process.DefaultCompensationName(svc)
			}
			sub.MustRegister(spec)
		}
		fed := subsystem.NewFederation()
		fed.MustAdd(sub)
		table, err := fed.ConflictTable()
		if err != nil {
			t.Fatal(err)
		}
		log := wal.NewMemLog()
		checkpoint := func(at string) {
			if at != ckptAfter {
				return
			}
			if _, err := wal.TakeCheckpoint(log, table.Conflicts, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := log.Compact(nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range defs {
			log.Append(wal.Record{Type: wal.RecStart, Proc: string(d.ID)})
		}
		commit := func(proc string, local int, svc string) {
			res, err := fed.Invoke(proc, svc, subsystem.AutoCommit)
			if err != nil {
				t.Fatal(err)
			}
			log.Append(wal.Record{Type: wal.RecOutcome, Proc: proc, Local: local, Service: svc, Subsystem: "s", Tx: int64(res.Tx), Outcome: "committed"})
		}
		commit("Pz", 1, "a")
		commit("Pz", 2, "pz") // Pz is forward-recoverable: a stays, T may follow it
		commit("T", 1, "t1")
		commit("T", 2, "t2")
		log.Append(wal.Record{Type: wal.RecTerminate, Proc: "T", Committed: true})
		checkpoint("T")
		commit("Pa", 1, "b")
		checkpoint("Pa/1")
		commit("Pa", 2, "pa")

		preRecs, _ := log.Records()
		pre, preFull := crashBoundaries(preRecs)
		if _, err := scheduler.Recover(fed, log, defs); err != nil {
			t.Fatalf("checkpoint after %q: %v", ckptAfter, err)
		}
		recs, _ := log.Records()
		var steps []string
		for _, r := range recs {
			if r.Type == wal.RecOutcome && r.Local == 3 {
				steps = append(steps, r.Service)
			}
		}
		if got := strings.Join(steps, " "); got != "fz fa" {
			t.Errorf("checkpoint after %q: forward steps ran as %q, want \"fz fa\"", ckptAfter, got)
		}
		if err := fault.CheckRecovered(fault.CheckInput{
			Fed: fed, Log: log, Defs: defs, PreCrashRecords: pre, PreCrashFull: preFull, Compacted: ckptAfter != "",
		}); err != nil {
			t.Errorf("checkpoint after %q: %v", ckptAfter, err)
		}
	}
}
