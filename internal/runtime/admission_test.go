package runtime

import (
	"context"
	"errors"
	"path/filepath"
	gort "runtime"
	"sync"
	"testing"
	"time"

	"transproc/internal/fault"
	"transproc/internal/process"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
	"transproc/internal/workload"
)

// These tests pin admission from the pending queue (admitPending): its
// order, what it steps over, restart backoff, what happens to the queue
// when the run ends, and that a waiting job is an entry, not a goroutine.

// starts lists the processes of the log's RecStart records, in log order.
// member is the live member of an origin, or nil.
func (r *Runtime) member(origin process.ID) *member {
	for _, m := range r.members {
		if m.Origin == origin {
			return m
		}
	}
	return nil
}

func starts(t *testing.T, log wal.Log) []process.ID {
	t.Helper()
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	var ids []process.ID
	for _, rec := range recs {
		if rec.Type == wal.RecStart {
			ids = append(ids, process.ID(rec.Proc))
		}
	}
	return ids
}

// hooked is the invocation seam (Config.Resilience) calling the test
// before every invocation, in the loop.
type hooked struct {
	fed    *subsystem.Federation
	before func()
}

func (h *hooked) InvokeResilient(proc, service string, mode subsystem.Mode, _ string) (*subsystem.Result, int64, error) {
	h.before()
	res, err := h.fed.Invoke(proc, service, mode)
	return res, 0, err
}

// failureFree generates n processes that never fail.
func failureFree(seed int64, n int) *workload.Workload {
	p := workload.DefaultProfile(seed)
	p.Processes = n
	p.PermFailureProb = 0
	p.TransientFailureProb = 0
	return workload.MustGenerate(p)
}

// Admission order is submission order: with one slot and nothing that
// restarts, the start records appear in job order.
func TestAdmissionInSubmissionOrder(t *testing.T) {
	t.Parallel()
	w := failureFree(11, 12)
	rt, err := New(w.Fed, Config{Mode: scheduler.PRED, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background(), w.Jobs); err != nil {
		t.Fatal(err)
	}
	got := starts(t, rt.log)
	if len(got) != len(w.Jobs) {
		t.Fatalf("%d start records for %d jobs: %v", len(got), len(w.Jobs), got)
	}
	for i, j := range w.Jobs {
		if got[i] != j.Proc.ID {
			t.Fatalf("start %d is %s, want %s (all: %v)", i, got[i], j.Proc.ID, got)
		}
	}
}

// An entry the admission rule refuses is stepped over, not queued behind:
// under Conservative, while A is in flight, B (which needs A's item)
// stays pending, C (submitted after B, disjoint from A) is admitted, runs
// and terminates, and B is admitted at A's termination.
func TestAdmissionStepsOverRefused(t *testing.T) {
	t.Parallel()
	w := newLockWorld(t, scheduler.Conservative)
	w.inv.slow["A/w"] = []int64{9}
	w.start(seq("A", "w"), seq("B", "c"), seq("C", "d"))
	w.awaitSection("C committed past the pending B while A is in flight", func() bool {
		c := w.rt.drv.Get("C")
		return c != nil && c.Outcome.Committed && w.rt.member("A") != nil &&
			len(w.rt.pending) == 1 && w.rt.pending[0].ID == "B" && w.rt.drv.Get("B") == nil
	})
	res := w.finish()
	if res.Metrics.CommittedProcs != 3 || w.sub.Get("a") != 2 || w.sub.Get("e") != 1 {
		t.Errorf("committed %d, a = %d, e = %d", res.Metrics.CommittedProcs, w.sub.Get("a"), w.sub.Get("e"))
	}
	// B's start record follows A's termination directly: the slot is handed
	// on in the turn that freed it.
	recs, err := w.rt.log.Records()
	if err != nil {
		t.Fatal(err)
	}
	handedOn := false
	for i, rec := range recs[:len(recs)-1] {
		if rec.Type == wal.RecTerminate && rec.Proc == "A" {
			handedOn = recs[i+1].Type == wal.RecStart && recs[i+1].Proc == "B"
		}
	}
	if !handedOn {
		t.Errorf("B's start does not follow A's termination:\n%v", recs)
	}
}

// A victim's next incarnation backs off in system progress: it is not
// admitted before 4<<Restarts further invocations completed while
// another process is admitted, and at once when none is.
func TestRestartBackoffCountsCompletions(t *testing.T) {
	t.Parallel()
	w := newLockWorld(t, scheduler.PRED)
	// V's first pre completes at tick 1 and its compensation at 2, before
	// O's first c, at 5; O then completes one c per tick. V+r1's pre is in
	// flight until after O terminated; V+r2's takes one tick.
	w.inv.slow["V/pre"] = []int64{0, 30, 0}
	w.inv.slow["O/c"] = []int64{4}
	markVictim := func(id process.ID) {
		w.awaitSection(string(id)+" in flight", func() bool {
			m := w.rt.member("V")
			return m != nil && m.ID == id && m.InFlight() == 1
		})
		w.rt.drv.MarkVictim(w.rt.member("V").Proc, "test")
	}
	const oSteps, backoff = 12, 4 << 1 // backoff: of the first restart
	steps := make([]string, oSteps)
	for i := range steps {
		steps[i] = "c"
	}
	w.start(seq("V", "pre"), seq("O", steps...))

	// V runs pre, is aborted as a victim, compensates and restarts: two
	// completions, then a backoff of 4<<1 while O holds a slot.
	markVictim("V")
	var target int64
	w.awaitSection("V+r1 pending", func() bool {
		if len(w.rt.pending) != 1 || w.rt.pending[0].ID != "V+r1" {
			return false
		}
		target = w.rt.pending[0].after
		if target != w.rt.completions+backoff || w.rt.completions != 2 {
			t.Errorf("backoff target %d at %d completions", target, w.rt.completions)
		}
		return true
	})
	w.awaitSection("one completion short of the target", func() bool { return w.rt.completions == target-1 })
	if len(w.rt.pending) != 1 || w.rt.drv.Get("V+r1") != nil {
		t.Errorf("V+r1 admitted at %d completions, target %d", w.rt.completions, target)
	}
	// Reaching the target admits it from O's completion. Abort it again,
	// but let O finish first: with nothing else admitted, V+r2 must not
	// wait for 4<<2 completions nobody is left to deliver.
	markVictim("V+r1")
	w.awaitSection("O terminated", func() bool { return w.rt.member("O") == nil })
	if m := w.rt.member("V"); m == nil || m.ID != "V+r1" || m.InFlight() != 1 {
		t.Errorf("V+r1 is not in flight when O terminates")
	}
	res := w.finish()
	if res.Metrics.CommittedProcs != 2 || res.Metrics.Restarts != 2 || !res.Outcomes["V+r2"].Committed {
		t.Errorf("committed %d, restarts %d, V+r2 %+v", res.Metrics.CommittedProcs, res.Metrics.Restarts, res.Outcomes["V+r2"])
	}
	if want := int64(2 + oSteps + 2 + 1); w.rt.completions != want {
		t.Errorf("%d completions, want %d", w.rt.completions, want)
	}
}

// awaitGoroutines waits for the goroutine count to come back to base:
// Run returns after the syncer, if it had one, exited.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for gort.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the run", gort.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// A run that ends with entries still pending — canceled, or crashed —
// returns, reports the admitted incarnations only and leaves no goroutine
// behind. Not parallel: it counts goroutines.
func TestPendingDroppedAtRunEnd(t *testing.T) {
	const jobs, workers = 8, 2
	check := func(t *testing.T, rt *Runtime, res *Result) {
		t.Helper()
		admitted := starts(t, rt.log)
		if len(admitted) == 0 || len(admitted) >= jobs {
			t.Fatalf("%d of %d jobs admitted: the run was to end with a backlog", len(admitted), jobs)
		}
		if len(res.Outcomes) != len(admitted) {
			t.Errorf("%d outcomes for %d admitted incarnations", len(res.Outcomes), len(admitted))
		}
		for _, id := range admitted {
			if res.Outcomes[id] == nil {
				t.Errorf("no outcome for the admitted %s", id)
			}
		}
		if len(rt.pending) != 0 || len(rt.due) != 0 {
			t.Errorf("%d pending, %d due after the run", len(rt.pending), len(rt.due))
		}
	}
	t.Run("canceled", func(t *testing.T) {
		base := gort.NumGoroutine()
		w := failureFree(5, jobs)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		inv := &hooked{fed: w.Fed}
		rt, err := New(w.Fed, Config{Mode: scheduler.PRED, Workers: workers, Resilience: inv})
		if err != nil {
			t.Fatal(err)
		}
		// The first invocation cancels the run from inside and returns;
		// the loop sees it at its next turn.
		inv.before = cancel
		res, err := rt.Run(ctx, w.Jobs)
		if err != context.Canceled {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		check(t, rt, res)
		awaitGoroutines(t, base)
	})
	t.Run("crashed", func(t *testing.T) {
		base := gort.NumGoroutine()
		w := failureFree(5, jobs)
		inj := fault.NewInjector(fault.Plan{KillAtDispatch: 3})
		rt, err := New(w.Fed, Config{Mode: scheduler.PRED, Workers: workers, Inject: inj.Point})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(context.Background(), w.Jobs)
		if !errors.Is(err, scheduler.ErrCrashed) {
			t.Fatalf("got %v, want a crash", err)
		}
		check(t, rt, res)
		awaitGoroutines(t, base)
	})
}

// A process is a record of the loop, not a goroutine: at any worker cap
// the run adds at most two goroutines, the loop (Run's own, here started
// apart from the test's) and the syncer of its file log. Not parallel:
// it counts goroutines.
func TestRunGoroutinesBoundedByWorkers(t *testing.T) {
	const jobs = 60
	for _, workers := range []int{1, 8, 0} {
		base := gort.NumGoroutine()
		w := failureFree(9, jobs)
		log, err := wal.OpenFile(filepath.Join(t.TempDir(), "wal.log"), false)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		peak := 0
		sample := func() {
			mu.Lock()
			peak = max(peak, gort.NumGoroutine())
			mu.Unlock()
		}
		rt, err := New(w.Fed, Config{Mode: scheduler.PRED, Workers: workers, Log: log, Resilience: &hooked{w.Fed, sample}})
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, err = rt.Run(context.Background(), w.Jobs)
		}()
		<-done
		log.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.CommittedProcs != jobs {
			t.Fatalf("workers %d: %d of %d committed", workers, res.Metrics.CommittedProcs, jobs)
		}
		if peak == 0 || peak > base+2 {
			t.Errorf("workers %d: peak of %d goroutines during the run, %d before it", workers, peak, base)
		}
		awaitGoroutines(t, base)
	}
}
