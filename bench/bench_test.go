package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"transproc/internal/federation"
	"transproc/internal/wal"
)

func TestPercentileAndMedianOfReps(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(vs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if vs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// One disturbed rep must not move the median of per-rep p95s, and
	// an empty rep must not count as a zero.
	reps := [][]float64{{1, 2, 3}, {1, 2, 3}, {100, 200, 300}, nil}
	if got := medianOfReps(reps, p95); math.Abs(got-2.9) > 1e-9 {
		t.Errorf("medianOfReps = %v, want 2.9", got)
	}
}

func TestFasterHalf(t *testing.T) {
	// a burst that makes two fifths of the reps twice as slow moves the
	// mean and pulls at the median, but not the faster half
	quiet := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 100}
	burst := []float64{100, 102, 98, 101, 99, 100, 200, 210, 190, 205}
	if a, b := fasterHalf(quiet), fasterHalf(burst); math.Abs(a-b)/a > 0.02 {
		t.Errorf("fasterHalf moved from %v to %v under a burst", a, b)
	}
	if got := fasterHalf([]float64{4, 1, 3}); got != 2 { // the faster two of three
		t.Errorf("fasterHalf of three = %v, want 2", got)
	}
	if got := fasterHalf(nil); got != 0 {
		t.Errorf("fasterHalf of nothing = %v, want 0", got)
	}
}

func TestAtReference(t *testing.T) {
	var c calibration
	if k := c.toReference(); k != 1 {
		t.Errorf("no samples: factor %v, want 1", k)
	}
	// a machine on which the kernel takes twice its nominal time halves
	// the times, except the part spent on the modelled device
	c.passMS = []float64{2 * refNominalMS, 2 * refNominalMS, 9 * refNominalMS}
	r := newReport("w", "")
	if got := r.atReference(&c, 300, 100, 0.2, 5); got != 200 || r.E2E["op_ms"].V != 200 || r.E2E["setup_s"].V != 0.1 {
		t.Errorf("scaled op %v, report %+v", got, r.E2E)
	}
	c.sample(0)
	if len(c.passMS) != 6 {
		t.Errorf("sample(0) took %d passes, want 3", len(c.passMS)-3)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	t0 := time.Unix(1000, 0)
	if got := dueTime(t0, 0, 100); !got.Equal(t0) {
		t.Errorf("first request due %v, want %v", got, t0)
	}
	if got := dueTime(t0, 250, 100).Sub(t0); got != 2500*time.Millisecond {
		t.Errorf("request 250 at 100 req/s due after %v, want 2.5s", got)
	}
	if got := dueTime(t0, 3, 600).Sub(t0); got != 5*time.Millisecond {
		t.Errorf("request 3 at 600 req/s due after %v, want 5ms", got)
	}
	// Lateness counts from the due time while the connection is free …
	due := t0.Add(10 * time.Millisecond)
	if got := generatorLateness(due, t0, due.Add(300*time.Microsecond)); got != 300*time.Microsecond {
		t.Errorf("lateness with a free connection = %v, want 300µs", got)
	}
	// … and from the previous response once that came in after it: the
	// 5 ms the server kept the connection are its latency, not the
	// generator's lateness.
	free := due.Add(5 * time.Millisecond)
	if got := generatorLateness(due, free, free.Add(40*time.Microsecond)); got != 40*time.Microsecond {
		t.Errorf("lateness behind a slow response = %v, want 40µs", got)
	}
}

// fakeLog answers every call with fixed results so a decorator's
// pass-through can be checked exactly.
type fakeLog struct {
	lsn  int64
	err  error
	recs []wal.Record
}

func (f *fakeLog) Append(wal.Record) (int64, error)       { return f.lsn, f.err }
func (f *fakeLog) AppendNoSync(wal.Record) (int64, error) { return f.lsn + 1, f.err }
func (f *fakeLog) Sync() error                            { return f.err }
func (f *fakeLog) Records() ([]wal.Record, error)         { return f.recs, f.err }
func (f *fakeLog) Close() error                           { return f.err }

func TestTimedLogPreservesResultsAndErrors(t *testing.T) {
	boom := errors.New("disk full")
	for _, inner := range []*fakeLog{{lsn: 41, recs: []wal.Record{{LSN: 7}}}, {lsn: 9, err: boom}} {
		m := &meter{name: "wal"}
		logs := map[string]wal.Log{
			"timedLog":      &timedLog{inner: inner, m: m},
			"timedBatchLog": newTimedBatchLog(inner, m),
		}
		for name, l := range logs {
			if lsn, err := l.Append(wal.Record{}); lsn != inner.lsn || err != inner.err {
				t.Errorf("%s.Append = (%d, %v), want (%d, %v)", name, lsn, err, inner.lsn, inner.err)
			}
			if recs, err := l.Records(); len(recs) != len(inner.recs) || err != inner.err {
				t.Errorf("%s.Records = (%v, %v)", name, recs, err)
			}
			if err := l.Close(); err != inner.err {
				t.Errorf("%s.Close = %v, want %v", name, err, inner.err)
			}
		}
		tl := newTimedBatchLog(inner, m)
		if lsn, err := tl.AppendNoSync(wal.Record{}); lsn != inner.lsn+1 || err != inner.err {
			t.Errorf("AppendNoSync = (%d, %v)", lsn, err)
		}
		if err := tl.Sync(); err != inner.err {
			t.Errorf("Sync = %v, want %v", err, inner.err)
		}
		// Append ×2, AppendNoSync and Sync are metered; Records and
		// Close are not on the append path.
		calls, busy := m.snapshot()
		var sum time.Duration
		for _, c := range calls {
			sum += c
		}
		if len(calls) != 4 || busy != sum {
			t.Errorf("meter saw %d calls, busy %v vs sum %v; want 4 calls", len(calls), busy, sum)
		}
	}
}

// TestModelledDevice: the modelled log keeps the file log's results,
// writes through, and charges every sync the fixed latency; the
// modelled heap-file device charges it without touching the disk.
func TestModelledDevice(t *testing.T) {
	file, err := wal.OpenFile(t.TempDir()+"/wal.log", false)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	var dev modelSyncs
	log := modelLog{file, &dev}
	start := time.Now()
	lsn1, err1 := log.Append(wal.Record{Proc: "P"})
	lsn2, err2 := log.AppendNoSync(wal.Record{Proc: "Q"})
	err3 := log.Sync()
	if err1 != nil || err2 != nil || err3 != nil || lsn1 != 1 || lsn2 != 2 {
		t.Fatalf("appends: lsn %d %v, lsn %d %v, sync %v", lsn1, err1, lsn2, err2, err3)
	}
	if d := time.Since(start); d < 2*modelSyncLatency {
		t.Errorf("two syncs took %v, want at least %v", d, 2*modelSyncLatency)
	}
	if recs, err := log.Records(); err != nil || len(recs) != 2 {
		t.Errorf("records: %d, %v", len(recs), err)
	}
	start = time.Now()
	if err := (modelDevice{nil, &dev}).Sync(); err != nil || time.Since(start) < modelSyncLatency {
		t.Errorf("device sync: %v after %v", err, time.Since(start))
	}
	if dev.busy() != 3*modelSyncLatency {
		t.Errorf("three syncs counted as %v", dev.busy())
	}
}

type fakeJournal struct {
	err     error
	entries []federation.JEntry
}

func (f *fakeJournal) Append(e federation.JEntry) error {
	f.entries = append(f.entries, e)
	return f.err
}
func (f *fakeJournal) Entries() ([]federation.JEntry, error) { return f.entries, f.err }
func (f *fakeJournal) Close() error                          { return f.err }

func TestTimedJournalPreservesResultsAndErrors(t *testing.T) {
	boom := errors.New("journal torn")
	for _, inner := range []*fakeJournal{{}, {err: boom}} {
		j := &timedJournal{inner: inner, m: &meter{name: "journal"}}
		e := federation.JEntry{Kind: 2, Node: 3, Origin: "W1", Proc: "W1+r1"}
		if err := j.Append(e); err != inner.err {
			t.Errorf("Append = %v, want %v", err, inner.err)
		}
		got, err := j.Entries()
		if err != inner.err || len(got) != 1 || got[0] != e {
			t.Errorf("Entries = (%v, %v), want the appended entry and %v", got, err, inner.err)
		}
		if err := j.Close(); err != inner.err {
			t.Errorf("Close = %v, want %v", err, inner.err)
		}
		if calls, _ := j.m.snapshot(); len(calls) != 1 {
			t.Errorf("meter saw %d calls, want 1", len(calls))
		}
	}
}

func TestSpansAndStageRowsSumToWall(t *testing.T) {
	tr := newTracer()
	root := tr.rep()
	run, endRun := root.begin("run")
	for i := 0; i < 3; i++ {
		_, end := run.begin("wal")
		time.Sleep(time.Millisecond)
		end()
	}
	_, endOther := run.begin("not-a-stage")
	time.Sleep(3 * time.Millisecond) // lands in the remainder row
	endOther()
	wall := endRun()
	spans := tr.spans()
	if len(spans) != 5 {
		t.Fatalf("recorded %d spans, want 5", len(spans))
	}
	for _, s := range spans {
		if s.Trace != root.trace {
			t.Errorf("span %q has trace %d, want the rep's %d", s.Name, s.Trace, root.trace)
		}
		if s.Name != "run" && s.Parent != run.parent {
			t.Errorf("span %q has parent %d, want the run span %d", s.Name, s.Parent, run.parent)
		}
	}
	st := buildStages(spans, run.parent, []string{"wal", "store"}, []stageRow{{"computed", 0.0005}}, "rest")
	if math.Abs(st.Wall-wall.Seconds()) > 1e-9 {
		t.Errorf("wall %v, want %v", st.Wall, wall.Seconds())
	}
	if len(st.Rows) != 4 || st.Rows[0].Seconds < 0.003 || st.Rows[1].Seconds != 0 || st.Rows[3].Seconds < 0.002 {
		t.Errorf("rows %+v", st.Rows)
	}
	if math.Abs(st.sum()-st.Wall) > 1e-9 || st.Overlap != 0 {
		t.Errorf("rows sum to %v, wall %v, overlap %v", st.sum(), st.Wall, st.Overlap)
	}
	// Concurrent spans that cover more than the wall are clipped, never
	// allowed to push the sum past it.
	over := buildStages(spans, run.parent, []string{"wal"}, []stageRow{{"computed", 10}}, "rest")
	if math.Abs(over.sum()-over.Wall) > 1e-9 || over.Overlap <= 0 || over.Rows[len(over.Rows)-1].Seconds != 0 {
		t.Errorf("clipped rows %+v sum %v wall %v overlap %v", over.Rows, over.sum(), over.Wall, over.Overlap)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "rt-long", "--trace", "1", "--seed", "7", "-trace", "-quick"})
	want := []string{"--workload", "rt-long", "-trace=1", "--seed", "7", "-trace", "-quick"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSeedsGiveTheSameInputs(t *testing.T) {
	p := baseProfile(40, 0.3, 0, 0)
	a, err := generate(p, 7, "rt-long", 2)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(p, 7, "rt-long", 2)
	c, _ := generate(p, 8, "rt-long", 2)
	d, _ := generate(p, 7, "rt-long", 3)
	if a.profile.Seed != b.profile.Seed || a.share != b.share || a.pairs != b.pairs {
		t.Error("the same seed and stream gave different inputs")
	}
	// the accepted input sits near the profile's conflict structure, and
	// the pair probability can be no smaller than an even spread's
	if math.Abs(a.share-p.ConflictProb) > 0.1*p.ConflictProb || math.Abs(a.pairs-nominalPairs(p)) > 0.2*nominalPairs(p) {
		t.Errorf("accepted share %.3f pairs %.4f, nominal %.3f and %.4f", a.share, a.pairs, p.ConflictProb, nominalPairs(p))
	}
	if a.pairs < a.share*a.share/float64(p.Subsystems)-1e-12 {
		t.Errorf("pairs %.4f below the even-spread floor of share %.3f", a.pairs, a.share)
	}
	plain, err := draw(p, 7, "rt-long", 2)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := draw(p, 7, "rt-long", 2); again.profile.Seed != plain.profile.Seed || again.pairs != plain.pairs {
		t.Error("draw: the same seed and stream gave different inputs")
	}
	if a.profile.Seed == c.profile.Seed || a.profile.Seed == d.profile.Seed {
		t.Error("another seed or stream gave the same inputs")
	}
	again, err := a.regenerate()
	if err != nil || len(again.defs) != len(a.defs) || again.defs[0].String() != a.defs[0].String() {
		t.Errorf("regenerate: %v", err)
	}
}

// TestBenchmarkJSONMatchesTables keeps the contract file at the
// repository root in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark's directory")
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default budget %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads listed, %d gated", len(doc.Workloads), len(gated))
	}
	defined := map[string]bool{}
	for _, w := range workloads() {
		defined[w.label()] = true
	}
	for i, name := range gated {
		if doc.Workloads[i].Name != name || !defined[name] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the gated list (defined: %v)", i, doc.Workloads[i].Name, name, defined[name])
		}
	}
	if len(doc.EndToEnd) != len(contractE2E) {
		t.Fatalf("%d end-to-end metrics listed, %d defined", len(doc.EndToEnd), len(contractE2E))
	}
	for i, d := range contractE2E {
		if got := doc.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, got, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d defined", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := doc.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, got, d)
		}
	}
}

// TestQuickSuite runs every workload at one tenth size, untraced and
// traced, and demands a passing result line from both.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads")
	}
	out := t.TempDir()
	if code := realMain([]string{"-quick", "-seconds", "2", "-out", out}); code != 0 {
		t.Fatalf("untraced quick suite exited %d", code)
	}
	if code := realMain([]string{"-quick", "-seconds", "2", "-workload", "rt-durable", "-trace", "-out", out}); code != 0 {
		t.Fatalf("traced quick run exited %d", code)
	}
	if _, err := os.Stat(out + "/spans-seed12.jsonl"); err != nil {
		t.Errorf("traced run left no span file: %v", err)
	}
}
