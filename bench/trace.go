package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one rep
// share Trace; Parent is the span that caused this one (0 for a rep's
// root). Times are nanoseconds since the tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until flush. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	all  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// scope names where new spans attach: the rep (trace id) and the span
// that causes them.
type scope struct {
	tr     *tracer
	trace  int64
	parent int64
}

// begin opens a child span; the returned func closes it and reports
// its duration. On a nil tracer it only measures.
func (s scope) begin(name string) (child scope, end func() time.Duration) {
	start := time.Now()
	if s.tr == nil {
		return s, func() time.Duration { return time.Since(start) }
	}
	id := s.tr.next.Add(1)
	child = scope{tr: s.tr, trace: s.trace, parent: id}
	return child, func() time.Duration {
		stop := time.Now()
		s.tr.mu.Lock()
		s.tr.all = append(s.tr.all, span{
			ID: id, Parent: s.parent, Trace: s.trace, Name: name,
			Start: start.Sub(s.tr.t0).Nanoseconds(), End: stop.Sub(s.tr.t0).Nanoseconds(),
		})
		s.tr.mu.Unlock()
		return stop.Sub(start)
	}
}

// rep opens the root scope of one rep.
func (t *tracer) rep() scope {
	if t == nil {
		return scope{}
	}
	return scope{tr: t, trace: t.next.Add(1)}
}

func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.all...)
}

// flush writes the spans as JSON lines.
func (t *tracer) flush(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageRow is one line of the where-did-the-time-go table.
type stageRow struct {
	Stage   string
	Seconds float64
}

// stageTable decomposes the wall time of one traced run phase. Rows
// always sum to Wall: the remainder row takes what the measured stages
// leave, and Overlap says how much measured stage time had to be
// dropped because concurrent spans covered more than the wall.
type stageTable struct {
	Wall    float64
	Rows    []stageRow
	Overlap float64
}

// buildStages sums the direct children of the run span by name into
// the named stages, adds the computed rows (count × unit cost, which
// no decorator can observe from outside) and closes with the
// remainder.
func buildStages(spans []span, run int64, stages []string, computed []stageRow, remainder string) *stageTable {
	var wall float64
	sums := map[string]float64{}
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e9
		if s.ID == run {
			wall = d
		}
		if s.Parent == run {
			sums[s.Name] += d
		}
	}
	t := &stageTable{Wall: wall}
	left := wall
	add := func(name string, d float64) {
		if d > left {
			t.Overlap += d - left
			d = left
		}
		left -= d
		t.Rows = append(t.Rows, stageRow{name, d})
	}
	for _, name := range stages {
		add(name, sums[name])
	}
	for _, c := range computed {
		add(c.Stage, c.Seconds)
	}
	t.Rows = append(t.Rows, stageRow{remainder, left})
	return t
}

func (t *stageTable) sum() float64 {
	var s float64
	for _, r := range t.Rows {
		s += r.Seconds
	}
	return s
}

func (t *stageTable) print(w *os.File) {
	fmt.Fprintf(w, "  stage table (traced rep, wall %.3f s)\n", t.Wall)
	for _, r := range t.Rows {
		share := 0.0
		if t.Wall > 0 {
			share = r.Seconds / t.Wall
		}
		fmt.Fprintf(w, "    %-34s %9.4f s  %5.1f %%\n", r.Stage, r.Seconds, 100*share)
	}
	fmt.Fprintf(w, "    %-34s %9.4f s  (rows sum)\n", "total", t.sum())
	if t.Overlap > 0 {
		fmt.Fprintf(w, "    note: %.4f s of concurrent stage time exceeded the wall and was dropped\n", t.Overlap)
	}
}
