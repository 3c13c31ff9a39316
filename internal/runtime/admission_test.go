package runtime

import (
	"context"
	"errors"
	gort "runtime"
	"sync"
	"testing"
	"time"

	"transproc/internal/activity"
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
// before every invocation, outside the section.
type hooked struct {
	fed    *subsystem.Federation
	before func()
}

func (h *hooked) InvokeResilient(proc, service string, _ activity.Kind, mode subsystem.Mode, _ string) (*subsystem.Result, int64, error) {
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
	held, release := make(chan struct{}), make(chan struct{})
	w.inv.on["A/w"] = func(invoke func() (*subsystem.Result, error)) (*subsystem.Result, error) {
		res, err := invoke()
		close(held)
		w.await(release)
		return res, err
	}
	w.start(seq("A", "w"), seq("B", "c"), seq("C", "d"))
	w.await(held)
	w.awaitSection("C committed past the pending B while A is in flight", func() bool {
		c := w.rt.drv.Get("C")
		return c != nil && c.Outcome.Committed && w.rt.members["A"] != nil &&
			len(w.rt.pending) == 1 && w.rt.pending[0].ID == "B" && w.rt.drv.Get("B") == nil
	})
	close(release)
	res := w.finish()
	if res.Metrics.CommittedProcs != 3 || w.sub.Get("a") != 2 || w.sub.Get("e") != 1 {
		t.Errorf("committed %d, a = %d, e = %d", res.Metrics.CommittedProcs, w.sub.Get("a"), w.sub.Get("e"))
	}
	// B's start record follows A's termination directly: the slot is handed
	// on inside the section.
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
	// V's invocations stop at the test's gate; O completes one per tick.
	vIn, vGo, tick := make(chan struct{}), make(chan struct{}), make(chan struct{})
	w.inv.on["V/pre"] = func(invoke func() (*subsystem.Result, error)) (*subsystem.Result, error) {
		select {
		case vIn <- struct{}{}:
		case <-w.ctx.Done():
		}
		w.await(vGo)
		return invoke()
	}
	w.inv.on["O/c"] = func(invoke func() (*subsystem.Result, error)) (*subsystem.Result, error) {
		w.await(tick)
		return invoke()
	}
	markVictim := func(id process.ID) {
		w.await(vIn)
		w.rt.mu.Lock()
		if m := w.rt.members["V"]; m != nil && m.ID == id {
			w.rt.drv.MarkVictim(m.Proc, "test")
		} else {
			t.Errorf("%s is not the live incarnation of V", id)
		}
		w.rt.mu.Unlock()
	}
	send := func(ch chan struct{}, n int) {
		for range n {
			select {
			case ch <- struct{}{}:
			case <-w.ctx.Done():
			}
		}
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
	send(vGo, 1)
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
	send(tick, backoff-1)
	w.awaitSection("one completion short of the target", func() bool { return w.rt.completions == target-1 })
	w.rt.mu.Lock()
	if len(w.rt.pending) != 1 || w.rt.drv.Get("V+r1") != nil {
		t.Errorf("V+r1 admitted at %d completions, target %d", w.rt.completions, target)
	}
	w.rt.mu.Unlock()
	send(tick, 1)
	// Reaching the target admits it from O's completion. Abort it again,
	// but let O finish first: with nothing else admitted, V+r2 must not
	// wait for 4<<2 completions nobody is left to deliver.
	markVictim("V+r1")
	send(tick, oSteps-backoff)
	w.awaitSection("O terminated", func() bool { return w.rt.members["O"] == nil })
	send(vGo, 1)
	w.await(vIn) // V+r2 is running
	send(vGo, 1)
	res := w.finish()
	if res.Metrics.CommittedProcs != 2 || res.Metrics.Restarts != 2 || !res.Outcomes["V+r2"].Committed {
		t.Errorf("committed %d, restarts %d, V+r2 %+v", res.Metrics.CommittedProcs, res.Metrics.Restarts, res.Outcomes["V+r2"])
	}
	if want := int64(2 + oSteps + 2 + 1); w.rt.completions != want {
		t.Errorf("%d completions, want %d", w.rt.completions, want)
	}
}

// awaitGoroutines waits for the goroutine count to come back to base: a
// worker retires its job inside the section and exits just after.
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
		if len(rt.pending) != 0 || rt.unfinished != 0 {
			t.Errorf("%d pending, %d unfinished after the run", len(rt.pending), rt.unfinished)
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
		// The first invocation cancels the run from inside and goes on
		// once Run has seen it.
		inv.before = func() {
			cancel()
			for !rt.canceled.Load() {
				gort.Gosched()
			}
		}
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

// A waiting job is a queue entry: the run never has more goroutines than
// admitted processes. Not parallel: it counts goroutines.
func TestRunGoroutinesBoundedByWorkers(t *testing.T) {
	const jobs, workers, slack = 200, 4, 4
	base := gort.NumGoroutine()
	w := failureFree(9, jobs)
	var mu sync.Mutex
	peak := 0
	sample := func() {
		mu.Lock()
		peak = max(peak, gort.NumGoroutine())
		mu.Unlock()
	}
	rt, err := New(w.Fed, Config{Mode: scheduler.PRED, Workers: workers, Resilience: &hooked{w.Fed, sample}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(context.Background(), w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CommittedProcs != jobs {
		t.Fatalf("%d of %d committed", res.Metrics.CommittedProcs, jobs)
	}
	if peak == 0 || peak > base+workers+slack {
		t.Errorf("peak of %d goroutines during the run, %d before it, %d workers", peak, base, workers)
	}
	awaitGoroutines(t, base)
}
