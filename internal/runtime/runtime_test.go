package runtime_test

import (
	"context"
	"reflect"
	gort "runtime"
	"testing"
	"time"

	"transproc/internal/metrics"
	"transproc/internal/process"
	"transproc/internal/runtime"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/workload"
)

// TestRuntimeZeroFailure runs a failure-free contended workload through
// the concurrent runtime: every process must commit and the observed
// schedule must be prefix-reducible.
func TestRuntimeZeroFailure(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 8; seed++ {
		p := workload.DefaultProfile(seed)
		p.Processes = 10
		p.ConflictProb = 0.5
		p.PermFailureProb = 0
		p.TransientFailureProb = 0
		w := workload.MustGenerate(p)
		rt, err := runtime.New(w.Fed, runtime.Config{Mode: scheduler.PRED})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(context.Background(), w.Jobs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Metrics.CommittedProcs < p.Processes {
			t.Fatalf("seed %d: %d of %d processes committed", seed, res.Metrics.CommittedProcs, p.Processes)
		}
		ok, at, _, err := res.Schedule.PRED()
		if err != nil {
			t.Fatalf("seed %d: PRED check: %v", seed, err)
		}
		if !ok {
			t.Fatalf("seed %d: non-PRED schedule (prefix %d):\n%s", seed, at, res.Schedule)
		}
	}
}

// TestRuntimeModes exercises every supported mode on one workload and
// checks full termination plus the PRED invariant for the PRED family.
func TestRuntimeModes(t *testing.T) {
	t.Parallel()
	modes := []scheduler.Mode{
		scheduler.PRED, scheduler.Serial, scheduler.Conservative, scheduler.CCOnly,
	}
	for _, mode := range modes {
		for seed := int64(1); seed <= 4; seed++ {
			p := workload.DefaultProfile(seed)
			p.Processes = 8
			p.PermFailureProb = 0.1
			w := workload.MustGenerate(p)
			rt, err := runtime.New(w.Fed, runtime.Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			res, err := rt.Run(context.Background(), w.Jobs)
			if err != nil {
				t.Fatalf("mode %v seed %d: %v", mode, seed, err)
			}
			if got := res.Metrics.CommittedProcs + res.Metrics.AbortedProcs; got < p.Processes {
				t.Fatalf("mode %v seed %d: only %d of %d processes terminated", mode, seed, got, p.Processes)
			}
			if mode == scheduler.CCOnly {
				continue
			}
			ok, at, _, err := res.Schedule.PRED()
			if err != nil {
				t.Fatalf("mode %v seed %d: PRED check: %v", mode, seed, err)
			}
			if !ok {
				t.Fatalf("mode %v seed %d: non-PRED schedule (prefix %d):\n%s", mode, seed, at, res.Schedule)
			}
		}
	}
}

// TestRuntimeEffectConsistency checks end-to-end effect integrity after
// concurrent runs with failures: no in-doubt transactions survive and no
// data item goes negative (a compensation never applies without its
// base).
func TestRuntimeEffectConsistency(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 8; seed++ {
		p := workload.DefaultProfile(seed)
		p.Processes = 10
		p.ConflictProb = 0.5
		p.PermFailureProb = 0.15
		w := workload.MustGenerate(p)
		rt, err := runtime.New(w.Fed, runtime.Config{Mode: scheduler.PRED})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(context.Background(), w.Jobs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n := len(w.Fed.InDoubt()); n != 0 {
			t.Fatalf("seed %d: %d in-doubt transactions after completion", seed, n)
		}
		for item, v := range w.Fed.Snapshot() {
			if v < 0 {
				t.Fatalf("seed %d: item %s went negative (%d)", seed, item, v)
			}
		}
	}
}

// TestRuntimeAdmissionCap verifies the Workers admission limit: with a
// cap of 1 the runtime degenerates to serial execution and still
// terminates everything.
func TestRuntimeAdmissionCap(t *testing.T) {
	t.Parallel()
	p := workload.DefaultProfile(7)
	p.Processes = 6
	w := workload.MustGenerate(p)
	rt, err := runtime.New(w.Fed, runtime.Config{Mode: scheduler.PRED, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(context.Background(), w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.CommittedProcs + res.Metrics.AbortedProcs; got < p.Processes {
		t.Fatalf("only %d of %d processes terminated", got, p.Processes)
	}
	ok, _, _, err := res.Schedule.PRED()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("non-PRED schedule under Workers=1:\n%s", res.Schedule)
	}
}

// TestRuntimeCancellation verifies context-based cancellation: a run
// with real service time — and one job that is not due for a minute —
// stops promptly and reports the context error.
func TestRuntimeCancellation(t *testing.T) {
	t.Parallel()
	const tick = 2 * time.Millisecond
	p := workload.DefaultProfile(3)
	p.Processes = 12
	p.MinCost, p.MaxCost = 8, 16
	w := workload.MustGenerate(p)
	w.Jobs[len(w.Jobs)-1].Arrival = int64(time.Minute / tick)
	rt, err := runtime.New(w.Fed, runtime.Config{Mode: scheduler.PRED, Tick: tick})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = rt.Run(ctx, w.Jobs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
	if runErr != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", runErr)
	}
}

// TestRuntimeDecisionTrace: the runtime hosts the same driver as the
// sequential engine, so a run with a registry carries the decision
// trace — for every committed process an admission, a dispatch, a commit
// (immediate or deferred) and the termination.
func TestRuntimeDecisionTrace(t *testing.T) {
	t.Parallel()
	p := workload.DefaultProfile(5)
	p.Processes = 10
	p.ConflictProb = 0.5
	w := workload.MustGenerate(p)
	reg := metrics.NewSized(1 << 16)
	rt, err := runtime.New(w.Fed, runtime.Config{Mode: scheduler.PRED, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(context.Background(), w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]map[metrics.TraceKind]int)
	for _, ev := range reg.Events() {
		if kinds[ev.Proc] == nil {
			kinds[ev.Proc] = make(map[metrics.TraceKind]int)
		}
		kinds[ev.Proc][ev.Kind]++
	}
	committed := 0
	for id, out := range res.Outcomes {
		if !out.Committed {
			continue
		}
		committed++
		k := kinds[string(id)]
		if k[metrics.TAdmit] != 1 || k[metrics.TDispatch] == 0 || k[metrics.TCommit]+k[metrics.TDeferCommit] == 0 || k[metrics.TTerminate] != 1 {
			t.Errorf("%s committed with trace %v", id, k)
		}
	}
	if committed == 0 {
		t.Fatal("no process committed")
	}
}

// TestRuntimeDeterministic: at Tick 0 no service time overlaps and the
// one loop makes every decision, so a run is a function of its jobs —
// the same schedule, outcomes and metrics twice over at every GOMAXPROCS.
// The workload is bench/'s rt-abort profile: dense conflicts, permanent
// and transient failures, compensation and victim restarts. Not
// parallel: it sets GOMAXPROCS.
func TestRuntimeDeterministic(t *testing.T) {
	type run struct {
		events   []schedule.Event
		outcomes map[process.ID]*scheduler.Outcome
		metrics  scheduler.Metrics
	}
	once := func(seed int64) run {
		p := workload.DefaultProfile(seed)
		p.Processes = 150
		p.ConflictProb = 0.6
		p.PermFailureProb = 0.1
		p.TransientFailureProb = 0.1
		w := workload.MustGenerate(p)
		rt, err := runtime.New(w.Fed, runtime.Config{Mode: scheduler.PRED, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(context.Background(), w.Jobs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return run{res.Schedule.Events(), res.Outcomes, res.Metrics}
	}
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(0))
	for seed := int64(1); seed <= 5; seed++ {
		var first run
		for i, procs := range []int{1, 1, 2, 2, 4, 4} {
			gort.GOMAXPROCS(procs)
			got := once(seed)
			if i == 0 {
				first = got
				if first.metrics.AbortedProcs == 0 || first.metrics.Compensations == 0 {
					t.Fatalf("seed %d: no abort or compensation: %+v", seed, first.metrics)
				}
				continue
			}
			if !reflect.DeepEqual(got.events, first.events) {
				t.Errorf("seed %d, GOMAXPROCS %d: the schedule differs", seed, procs)
			}
			if !reflect.DeepEqual(got.outcomes, first.outcomes) {
				t.Errorf("seed %d, GOMAXPROCS %d: the outcomes differ", seed, procs)
			}
			if got.metrics != first.metrics {
				t.Errorf("seed %d, GOMAXPROCS %d: metrics %+v, first run %+v", seed, procs, got.metrics, first.metrics)
			}
		}
	}
}
