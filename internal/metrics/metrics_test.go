package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounters(t *testing.T) {
	t.Parallel()
	r := New()
	r.Inc(CommitsDeferred)
	r.Add(CommitsDeferred, 2)
	r.Inc(WALAppends)
	if got := r.Counter(CommitsDeferred); got != 3 {
		t.Fatalf("CommitsDeferred = %d, want 3", got)
	}
	if got := r.Counter(WALAppends); got != 1 {
		t.Fatalf("WALAppends = %d, want 1", got)
	}
	if got := r.Counter(ProcsAdmitted); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}
}

func TestCounterNamesComplete(t *testing.T) {
	t.Parallel()
	seen := make(map[string]bool)
	for c := CounterID(0); c < numCounters; c++ {
		name := c.String()
		if name == "" {
			t.Fatalf("counter %d has no name", int(c))
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	for h := HistID(0); h < numHists; h++ {
		if h.String() == "" {
			t.Fatalf("histogram %d has no name", int(h))
		}
	}
	for k := TraceKind(0); k < numTraceKinds; k++ {
		if k.String() == "" {
			t.Fatalf("trace kind %d has no name", int(k))
		}
	}
}

func TestHistogram(t *testing.T) {
	t.Parallel()
	r := New()
	for _, v := range []int64{0, 1, 1, 3, 8, 100} {
		r.Observe(HistProcDuration, v)
	}
	d := r.Hist(HistProcDuration)
	if d.Count != 6 || d.Sum != 113 || d.Min != 0 || d.Max != 100 {
		t.Fatalf("histogram = %+v", d)
	}
	if want := 113.0 / 6; d.Mean != want {
		t.Fatalf("mean = %f, want %f", d.Mean, want)
	}
	// Buckets: 0 -> ≤0, 1,1 -> ≤1, 3 -> ≤3, 8 -> ≤15, 100 -> ≤127.
	want := []Bucket{{0, 1}, {1, 2}, {3, 1}, {15, 1}, {127, 1}}
	if len(d.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", d.Buckets, want)
	}
	for i, b := range want {
		if d.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, d.Buckets[i], b)
		}
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	t.Parallel()
	r := New()
	r.Observe(HistInDoubt, -5)
	d := r.Hist(HistInDoubt)
	if d.Count != 1 || d.Sum != 0 || d.Min != 0 || d.Max != 0 {
		t.Fatalf("histogram = %+v", d)
	}
}

func TestServiceHistogram(t *testing.T) {
	t.Parallel()
	r := New()
	r.ObserveService("book", 2)
	r.ObserveService("book", 4)
	r.ObserveService("pay", 1)
	s := r.Snapshot()
	if d := s.Services["book"]; d.Count != 2 || d.Sum != 6 {
		t.Fatalf("book = %+v", d)
	}
	if d := s.Services["pay"]; d.Count != 1 {
		t.Fatalf("pay = %+v", d)
	}
}

func TestTraceRingWraps(t *testing.T) {
	t.Parallel()
	r := NewSized(4)
	for i := 0; i < 10; i++ {
		r.Trace(TDispatch, int64(i), "P1", i, "svc", "")
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	if r.TraceTotal() != 10 {
		t.Fatalf("total = %d, want 10", r.TraceTotal())
	}
	for i, ev := range evs {
		if want := int64(6 + i + 1); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d (chronological tail)", i, ev.Seq, want)
		}
		if ev.Clock != int64(6+i) {
			t.Fatalf("event %d clock = %d, want %d", i, ev.Clock, 6+i)
		}
	}
}

func TestTraceDisabled(t *testing.T) {
	t.Parallel()
	r := NewSized(0)
	r.Trace(TCommit, 1, "P1", 0, "", "")
	if n := len(r.Events()); n != 0 {
		t.Fatalf("disabled trace retained %d events", n)
	}
}

func TestCountTrace(t *testing.T) {
	t.Parallel()
	r := New()
	r.Trace(TCompensate, 1, "P1", 1, "a", "")
	r.Trace(TCompensate, 2, "P2", 1, "b", "")
	r.Trace(TCommit, 3, "P1", 2, "c", "")
	if n := r.CountTrace(TCompensate); n != 2 {
		t.Fatalf("CountTrace(TCompensate) = %d, want 2", n)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	t.Parallel()
	r := New()
	r.Inc(CommitsDeferred)
	r.Observe(HistPreparedSet, 3)
	r.ObserveService("svc", 7)
	r.Trace(TDeferCommit, 5, "P1", 2, "svc", "P0")
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON invalid: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"counters", "histograms", "services", "trace"} {
		if _, ok := back[key]; !ok {
			t.Fatalf("snapshot JSON missing %q:\n%s", key, buf.String())
		}
	}
	if !strings.Contains(buf.String(), `"defer-commit"`) {
		t.Fatalf("trace kind not labelled in JSON:\n%s", buf.String())
	}
}

func TestSnapshotText(t *testing.T) {
	t.Parallel()
	r := New()
	r.Inc(CommitsDeferred)
	r.Inc(CompensationsIssued)
	r.Observe(HistProcBlocked, 12)
	r.ObserveService("svc", 3)
	r.Trace(TCompensate, 9, "P2", 1, "svc", "")
	var buf bytes.Buffer
	r.Snapshot().WriteText(&buf, -1)
	out := buf.String()
	for _, want := range []string{
		"sched.commits.deferred", "sched.compensations",
		"proc.blocked_commit_ticks", "service latency", "svc",
		"decision trace", "compensate",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text snapshot missing %q:\n%s", want, out)
		}
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	t.Parallel()
	var r *Registry
	r.Inc(CommitsDeferred)
	r.Add(WALBytes, 10)
	r.Observe(HistProcDuration, 5)
	r.ObserveService("svc", 1)
	r.Trace(TCommit, 1, "P1", 0, "svc", "")
	if r.Counter(CommitsDeferred) != 0 || r.TraceTotal() != 0 || len(r.Events()) != 0 {
		t.Fatal("nil registry recorded something")
	}
	if d := r.Hist(HistProcDuration); d.Count != 0 {
		t.Fatal("nil registry histogram non-empty")
	}
	s := r.Snapshot()
	if s == nil || s.Counters == nil {
		t.Fatal("nil registry snapshot not usable")
	}
}

// TestNoopRegistryZeroAlloc guards the acceptance criterion: a nil
// registry must add zero allocations to the scheduler hot path.
func TestNoopRegistryZeroAlloc(t *testing.T) {
	t.Parallel()
	var r *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		r.Inc(InvokeDispatched)
		r.Add(SubInvocations, 3)
		r.Observe(HistProcDuration, 42)
		r.ObserveService("svc", 7)
		r.Trace(TDeferCommit, 99, "P1", 4, "svc", "P2")
	})
	if allocs != 0 {
		t.Fatalf("no-op registry allocates %.1f per op, want 0", allocs)
	}
}

func TestConcurrentRecording(t *testing.T) {
	t.Parallel()
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Inc(SubInvocations)
				r.Observe(HistInDoubt, int64(i%17))
				r.ObserveService("s", int64(i%5))
				r.Trace(TDispatch, int64(i), "P", i, "s", "")
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(SubInvocations); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if d := r.Hist(HistInDoubt); d.Count != 8000 {
		t.Fatalf("hist count = %d, want 8000", d.Count)
	}
	if got := r.TraceTotal(); got != 8000 {
		t.Fatalf("trace total = %d, want 8000", got)
	}
}
