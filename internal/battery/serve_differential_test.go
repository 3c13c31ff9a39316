package battery

import (
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"transproc/internal/fault"
	"transproc/internal/scheduler"
	"transproc/internal/serve"
	"transproc/internal/spec"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// TestRestartResumeDifferential is the restart-resume differential: a
// server killed at a seeded crash point and restarted must settle every
// admitted submission to the same per-origin outcome as an identical
// server that was never interrupted. Transient noise is zeroed so
// outcomes are a pure function of the world (its deterministic
// permanent-failure rules), which makes outcome equality a hard
// invariant rather than a statistical one. The crash run's accumulated
// history must also pass the settled-state invariants (PRED,
// exactly-once effects) — both properties hold under -race.
func TestRestartResumeDifferential(t *testing.T) {
	// Crash classes only (admit-crash, ack-crash, wal-budget,
	// engine-point, group-fsync, double-crash): overload sheds a
	// timing-dependent subset and drains park rather than kill, so
	// neither compares 1:1 against an uninterrupted run.
	seeds := []int64{0, 1, 3, 4, 5, 8, 10, 13, 14, 15, 18, 21}
	if testing.Short() {
		seeds = seeds[:6]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferential(t, seed)
		})
	}
}

func runDifferential(t *testing.T, seed int64) {
	sc := serveScenarioFor(seed)
	prof := serveProfile(sc)
	prof.TransientFailureProb = 0

	// Baseline: the same world, never interrupted.
	fedA, reqs, err := serveWorldFrom(sc, prof)
	if err != nil {
		t.Fatal(err)
	}
	dirA := t.TempDir()
	srvA, err := serve.Open(fedA, scenarioConfig(sc, dirA, fault.Plan{}, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	addrA, err := srvA.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range submitAll("http://"+addrA, reqs, false) {
		if c != http.StatusAccepted {
			t.Fatalf("baseline submit %d: %d", i, c)
		}
	}
	if !srvA.WaitIdle(serveWait) {
		t.Fatal("baseline never idle")
	}
	if pt, crashed := srvA.Crashed(); crashed {
		t.Fatalf("baseline crashed at %v", pt)
	}
	want := make(map[string]bool)
	for _, st := range srvA.Statuses("", "") {
		if !st.Final {
			t.Fatalf("baseline %s not final: %+v", st.ID, st)
		}
		want[st.ID] = st.Committed
	}
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash run: identical world, killed at the scenario's seeded crash
	// point, restarted until settled.
	fedB, reqsB, err := serveWorldFrom(sc, prof)
	if err != nil {
		t.Fatal(err)
	}
	dirB := t.TempDir()
	srv, err := serve.Open(fedB, scenarioConfig(sc, dirB, sc.Plan, sc.Plan.CrashAfterWALRecords, false))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	submitAll("http://"+addr, reqsB, false)
	srv.WaitIdle(serveWait)
	if _, crashed := srv.Crashed(); !crashed {
		// The seeded budget outlived the run; the differential still
		// holds (restart over a cleanly drained directory).
		if _, err := srv.Drain(newTimeoutCtx(serveWait)); err != nil {
			t.Fatalf("clean drain: %v", err)
		}
	}
	srv.Close()
	flushAbandoned(srv)

	var crashLSNs []int64
	if _, _, lsn, err := preCrashBoundary(dirB); err == nil {
		crashLSNs = append(crashLSNs, lsn)
	}
	var final *serve.Server
	for attempt := 0; attempt < 4; attempt++ {
		rs, err := serve.Open(fedB, scenarioConfig(sc, dirB, fault.Plan{}, 0, false))
		if err != nil {
			t.Fatalf("restart %d: %v", attempt, err)
		}
		if !rs.WaitIdle(serveWait) {
			rs.Close()
			t.Fatalf("restart %d never settled", attempt)
		}
		if _, crashed := rs.Crashed(); crashed {
			rs.Close()
			flushAbandoned(rs)
			if _, _, lsn, err := preCrashBoundary(dirB); err == nil {
				crashLSNs = append(crashLSNs, lsn)
			}
			continue
		}
		final = rs
		break
	}
	if final == nil {
		t.Fatal("crash run never settled within the restart budget")
	}
	defer final.Close()

	// Per-origin outcome equality over every submission the crash run
	// admitted (a kill mid-request may legitimately lose later ones).
	sts := final.Statuses("", "")
	if len(sts) == 0 {
		t.Fatal("crash run admitted nothing")
	}
	for _, st := range sts {
		if !st.Final {
			t.Fatalf("crash run %s not final: %+v", st.ID, st)
		}
		wantCommitted, ok := want[st.ID]
		if !ok {
			t.Fatalf("crash run admitted %s, baseline did not", st.ID)
		}
		if st.Committed != wantCommitted {
			t.Errorf("seed %d: origin %s: crash run committed=%v, uninterrupted run committed=%v",
				seed, st.ID, st.Committed, wantCommitted)
		}
	}
	// The crash run's accumulated history passes the settled-state
	// invariants: PRED and exactly-once effects across the crash.
	if err := checkSettled(final, crashLSNs); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

// TestRestartPastPivotRunsOnce kills a server at every WAL record of
// one submission — book (compensatable) → charge (pivot) → confirm
// (retriable) — and reopens the directory. Whatever the crash position,
// the submission ends committed with every data item written exactly
// once. When the crash fell after the pivot committed, recovery
// completes the process forward (Definition 8.2b) and restart seals that
// verdict: re-running it as a new incarnation would execute it twice.
func TestRestartPastPivotRunsOnce(t *testing.T) {
	trip := serve.SubmitRequest{Tenant: "a", Proc: spec.ProcessSpec{
		ID: "trip",
		Activities: []spec.ActivitySpec{
			{Local: 1, Service: "book"}, {Local: 2, Service: "charge"}, {Local: 3, Service: "confirm"},
		},
		Seq: [][2]int{{1, 2}, {2, 3}},
	}}
	pastPivot := 0
	for budget := 1; budget <= 12; budget++ {
		fed, err := spec.BuildFederation([]spec.SubsystemSpec{
			{Name: "hotel", Seed: 1, Services: []spec.ServiceSpec{
				{Name: "book", Kind: "compensatable", Writes: []string{"rooms"}, Cost: 1},
				{Name: "confirm", Kind: "retriable", Writes: []string{"mail"}, Cost: 1},
			}},
			{Name: "pay", Seed: 2, Services: []spec.ServiceSpec{
				{Name: "charge", Kind: "pivot", Writes: []string{"ledger"}, Cost: 1},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		srv, err := serve.Open(fed, serve.Config{Dir: dir, NoSync: true,
			WrapLog: func(l wal.Log) wal.Log { return fault.WrapWAL(l, budget) }})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if codes := submitAll("http://"+addr, []serve.SubmitRequest{trip}, false); codes[0] != http.StatusAccepted {
			t.Fatalf("budget %d: submit: %d", budget, codes[0])
		}
		srv.WaitIdle(serveWait)
		srv.Close()
		// Was the process past its pivot, and unterminated, at the crash?
		forward := false
		if _, crashed := srv.Crashed(); crashed {
			recs, err := srv.Log().Records()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				forward = forward || r.Local == 2 &&
					(r.Type == wal.RecOutcome && r.Outcome == "committed" || r.Type == wal.RecResolved && r.Commit)
				forward = forward && r.Type != wal.RecTerminate
			}
		}

		rs, err := serve.Open(fed, serve.Config{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatalf("budget %d: reopen: %v", budget, err)
		}
		if !rs.WaitIdle(serveWait) {
			t.Fatalf("budget %d: never idle after reopen", budget)
		}
		st, _ := rs.StatusOf("a/trip")
		if !st.Final || !st.Committed {
			t.Errorf("budget %d: status after reopen: %+v", budget, st)
		}
		if got := fed.Snapshot(); got["hotel/rooms"] != 1 || got["pay/ledger"] != 1 || got["hotel/mail"] != 1 {
			t.Errorf("budget %d: items after reopen %v, want each exactly 1 (runId %s)", budget, got, st.RunID)
		}
		if forward {
			pastPivot++
			_, reruns := rs.Resumed()
			if st.RunID != st.ID || reruns != 0 || !slices.Contains(rs.RecoveryReport().ForwardRecovered, "a/trip") {
				t.Errorf("budget %d: crash past the pivot: runId %s, %d reruns, report %+v; want no rerun and a/trip forward-recovered",
					budget, st.RunID, reruns, rs.RecoveryReport())
			}
		}
		rs.Close()
	}
	if pastPivot == 0 {
		t.Error("no budget crashed the submission past its pivot")
	}
}

// TestServeSealsStandingVictim runs the CCOnly contention that wedges
// processes (TestRuntimeCCOnlyVictimResolution's world) through a
// server, so the runtime picks victims, some of them past their pivot.
// Such a victim completes forward and is not restarted; its work stands,
// so the server must seal it committed — as restart recovery seals the
// same history. The check is checkSettled's seal check; the rest of
// checkSettled asks for a prefix-reducible schedule, which CCOnly does
// not promise.
func TestServeSealsStandingVictim(t *testing.T) {
	forward := 0
	for seed := int64(1); seed <= 3; seed++ {
		p := workload.DefaultProfile(seed)
		p.Processes = 16
		p.ConflictProb = 0.9
		p.ParallelProb = 0.5
		p.PermFailureProb = 0
		p.TransientFailureProb = 0
		w := workload.MustGenerate(p)
		reqs := make([]serve.SubmitRequest, len(w.Jobs))
		for i, j := range w.Jobs {
			reqs[i] = serve.SubmitRequest{Tenant: "t", Proc: spec.FromProcess(j.Proc)}
		}
		srv, err := serve.Open(w.Fed, serve.Config{
			Dir: t.TempDir(), NoSync: true, Mode: scheduler.CCOnly,
			Workers: 16, MaxRestarts: 64, Tick: 100 * time.Microsecond,
			BatchMax: len(reqs), BatchWait: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range submitAll("http://"+addr, reqs, false) {
			if c != http.StatusAccepted {
				t.Fatalf("seed %d: submission %d: HTTP %d", seed, i, c)
			}
		}
		if !srv.WaitIdle(serveWait) {
			t.Fatalf("seed %d: never idle", seed)
		}
		recs, err := srv.Log().Records()
		if err != nil {
			t.Fatal(err)
		}
		if err := fault.OncePerOrigin(recs); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if err := sealsMatchWork(srv.Statuses("", ""), recs); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		images, err := wal.Analyze(recs)
		if err != nil {
			t.Fatal(err)
		}
		for _, img := range images {
			if img.Stands && !img.TerminatedCommitted {
				forward++
			}
		}
		srv.Close()
	}
	if forward == 0 {
		t.Fatal("no victim was aborted past its pivot across the seeds (seed drift?)")
	}
}
