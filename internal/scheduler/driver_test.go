package scheduler_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/metrics"
	"transproc/internal/paper"
	"transproc/internal/process"
	"transproc/internal/schedule"
	"transproc/internal/scheduler"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
	"transproc/internal/twopc"
	"transproc/internal/wal"
)

// fakeHost records, in order, every force-log and sequence grant a
// driver transition asks for, each force-log tagged with the number of
// local transactions in doubt at that moment — the position of the
// subsystem's commit or rollback relative to the log write.
type fakeHost struct {
	fed    *subsystem.Federation
	calls  []string
	seq    int64
	refuse func(wal.Record) bool
}

func (h *fakeHost) NextSeq() int64 { h.seq++; h.calls = append(h.calls, "seq"); return h.seq }
func (h *fakeHost) Now() int64     { return 0 }

func (h *fakeHost) ForceLog(rec wal.Record) bool {
	tag := rec.Type.String()
	if rec.Outcome != "" {
		tag += "/" + rec.Outcome
	}
	if rec.Type == wal.RecResolved {
		tag += fmt.Sprintf("/commit=%v", rec.Commit)
	}
	if h.refuse != nil && h.refuse(rec) {
		h.calls = append(h.calls, "refused:"+tag)
		return false
	}
	h.calls = append(h.calls, fmt.Sprintf("log:%s(indoubt=%d)", tag, inDoubt(h.fed)))
	return true
}

func inDoubt(fed *subsystem.Federation) int {
	n := 0
	for _, recs := range fed.InDoubt() {
		n += len(recs)
	}
	return n
}

// driverWorld is one subsystem whose services all write item x, so any
// two of them conflict.
type driverWorld struct {
	host *fakeHost
	d    *scheduler.Driver
	log  *wal.MemLog
}

func newDriverWorld(t *testing.T) *driverWorld {
	t.Helper()
	sub := subsystem.New("rm", 1)
	for name, kind := range map[string]activity.Kind{
		"qc": activity.Compensatable, "pc": activity.Compensatable,
		"pp": activity.Pivot, "pr": activity.Retriable, "yc": activity.Compensatable,
	} {
		spec := activity.Spec{Name: name, Kind: kind, Subsystem: "rm", WriteSet: []string{"x"}}
		if kind == activity.Compensatable {
			spec.Compensation = name + "⁻¹"
		}
		sub.MustRegister(spec)
	}
	fed := subsystem.NewFederation()
	fed.MustAdd(sub)
	table, err := fed.ConflictTable()
	if err != nil {
		t.Fatal(err)
	}
	w := &driverWorld{host: &fakeHost{fed: fed}, log: wal.NewMemLog()}
	w.d = &scheduler.Driver{
		Host: w.host, Fed: fed,
		Pol:   policy.New(table, policy.Config{Mode: policy.PRED}),
		Coord: twopc.New(w.log.Append),
	}
	return w
}

func (w *driverWorld) admit(t *testing.T, def *process.Process, arrival int) *scheduler.Proc {
	t.Helper()
	p := scheduler.NewProc(def, arrival, def.ID, def.ID, 0)
	if !w.d.Admit(p) {
		t.Fatalf("admit %s refused", def.ID)
	}
	return p
}

// invoke dispatches a frontier activity and prepares it at the
// subsystem, leaving the completion to the caller.
func (w *driverWorld) invoke(t *testing.T, p *scheduler.Proc, wk scheduler.Work) *subsystem.Result {
	t.Helper()
	if !w.d.Dispatch(p, wk) {
		t.Fatalf("dispatch %s/%d refused", p.ID, wk.Local)
	}
	res, _, held := w.d.Invoke(p, wk)
	if held.Rule != "" || res == nil {
		t.Fatalf("invoke %s/%s: held=%v res=%v", p.ID, wk.Service, held, res)
	}
	return res
}

func (w *driverWorld) run(t *testing.T, p *scheduler.Proc, local int) {
	t.Helper()
	a := p.Def.Activity(local)
	wk := scheduler.Work{Local: local, Service: a.Service, Kind: a.Kind}
	if err := w.d.Complete(p, wk, w.invoke(t, p, wk)); err != nil {
		t.Fatal(err)
	}
}

func procQ() *process.Process {
	return process.NewBuilder("Q").Add(1, "qc", activity.Compensatable).MustBuild()
}

func procP() *process.Process {
	return process.NewBuilder("P").
		Add(1, "pc", activity.Compensatable).Add(2, "pp", activity.Pivot).Seq(1, 2).MustBuild()
}

// claim is an Exec that takes every work item Next offers and stops the
// walk, as the runtime's and the hub's do.
func claim(*scheduler.Proc, scheduler.Work) (scheduler.Wait, bool) { return scheduler.Wait{}, false }

// since returns the host calls recorded after mark.
func (h *fakeHost) since(mark int) []string { return h.calls[mark:] }

func wantCalls(t *testing.T, got []string, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("host calls\n got %q\nwant %q", got, want)
	}
}

// TestDriverLogsBeforeItCommits pins the write-ahead order of the three
// completions: the outcome record is forced while the local transaction
// is still in doubt, and only then is it committed (or held, under
// Lemma 1). For a recovery step that window is the redo rule's.
func TestDriverLogsBeforeItCommits(t *testing.T) {
	w := newDriverWorld(t)
	q, p := w.admit(t, procQ(), 0), w.admit(t, procP(), 1)
	w.run(t, q, 1) // Q's committed qc precedes everything P does on x

	t.Run("compensatable commits at completion", func(t *testing.T) {
		mark := len(w.host.calls)
		w.run(t, p, 1)
		wantCalls(t, w.host.since(mark),
			"log:dispatch(indoubt=0)", "log:outcome/prepared(indoubt=1)", "seq", "log:resolved/commit=true(indoubt=0)")
		if p.Inst.Status(1) != process.Committed || p.NumPrepared() != 0 {
			t.Fatalf("status %v, prepared %d", p.Inst.Status(1), p.NumPrepared())
		}
	})

	t.Run("pivot behind an active predecessor defers", func(t *testing.T) {
		mark := len(w.host.calls)
		w.run(t, p, 2)
		wantCalls(t, w.host.since(mark), "log:dispatch(indoubt=0)", "log:outcome/prepared(indoubt=1)", "seq")
		if p.Inst.Status(2) != process.Prepared || p.NumPrepared() != 1 || inDoubt(w.host.fed) != 1 {
			t.Fatalf("status %v, prepared %d, in doubt %d", p.Inst.Status(2), p.NumPrepared(), inDoubt(w.host.fed))
		}
		evs := w.d.Pol.Events()
		if last := evs[len(evs)-1]; !last.Tentative || last.Proc != "P" || last.Local != 2 {
			t.Fatalf("last event %v, want P/2 tentative", last)
		}
		if w.d.Metrics.Deferrals != 1 {
			t.Fatalf("deferrals %d", w.d.Metrics.Deferrals)
		}
	})

	t.Run("recovery step commits after its record", func(t *testing.T) {
		// P aborts: its completion rolls back the prepared pp and
		// compensates pc.
		p.AbortPending = true
		if err := w.d.BeginAbort(p); err != nil {
			t.Fatal(err)
		}
		for len(p.Recovery) > 0 {
			act, wk, err := w.d.Next(p, claim)
			if err != nil {
				t.Fatal(err)
			}
			if act == scheduler.ActAgain { // the prepared pp rolled back
				continue
			}
			if act != scheduler.ActInvoke {
				t.Fatalf("step %v of P gated: %+v", p.Recovery[0], p.Wait)
			}
			mark := len(w.host.calls)
			if err := w.d.Complete(p, wk, w.invoke(t, p, wk)); err != nil {
				t.Fatal(err)
			}
			wantCalls(t, w.host.since(mark), "log:dispatch(indoubt=0)", "log:compensate(indoubt=1)", "seq")
			if inDoubt(w.host.fed) != 0 {
				t.Fatal("step transaction not committed")
			}
		}
		if w.d.Metrics.Compensations != 1 || p.Inst.Status(1) != process.Compensated {
			t.Fatalf("compensations %d, status %v", w.d.Metrics.Compensations, p.Inst.Status(1))
		}
	})
}

// procImage is everything of a Proc a refused transition must leave
// alone.
func procImage(p *scheduler.Proc) string {
	return fmt.Sprint(p.Phase, p.Inst.Snapshot(), p.Recovery, p.StepBusy, p.InFlight(), p.NumPrepared(), p.AbortPending, *p.Outcome)
}

// TestDriverRefusedForceLog: a host that refuses the append leaves the
// Proc (a completing invocation still registered in flight), the policy
// state and the subsystem untouched, for every transition that announces
// its change in the log first.
func TestDriverRefusedForceLog(t *testing.T) {
	refuseAll := func(wal.Record) bool { return true }
	cases := []struct {
		name string
		// setup brings the world to the point of the transition; run
		// performs it under a refusing host.
		setup func(t *testing.T, w *driverWorld) *scheduler.Proc
		run   func(t *testing.T, w *driverWorld, p *scheduler.Proc)
	}{
		{"admit", func(t *testing.T, w *driverWorld) *scheduler.Proc {
			return scheduler.NewProc(procQ(), 0, "Q", "Q", 0)
		}, func(t *testing.T, w *driverWorld, p *scheduler.Proc) {
			if w.d.Admit(p) || w.d.Get("Q") != nil {
				t.Fatal("admitted without a start record")
			}
		}},
		{"dispatch", func(t *testing.T, w *driverWorld) *scheduler.Proc {
			return w.admit(t, procQ(), 0)
		}, func(t *testing.T, w *driverWorld, p *scheduler.Proc) {
			if w.d.Dispatch(p, scheduler.Work{Local: 1, Service: "qc", Kind: activity.Compensatable}) {
				t.Fatal("dispatched without a record")
			}
		}},
		{"prepared outcome", func(t *testing.T, w *driverWorld) *scheduler.Proc {
			return w.admit(t, procQ(), 0)
		}, func(t *testing.T, w *driverWorld, p *scheduler.Proc) {
			wk := scheduler.Work{Local: 1, Service: "qc", Kind: activity.Compensatable}
			w.host.refuse = nil
			res := w.invoke(t, p, wk)
			w.host.refuse = refuseAll
			before, events := procImage(p), len(w.d.Pol.Events())
			if err := w.d.Complete(p, wk, res); err != nil {
				t.Fatal(err)
			}
			if procImage(p) != before || len(w.d.Pol.Events()) != events || inDoubt(w.host.fed) != 1 {
				t.Fatalf("unlogged completion applied: %s -> %s, in doubt %d", before, procImage(p), inDoubt(w.host.fed))
			}
		}},
		{"step outcome", func(t *testing.T, w *driverWorld) *scheduler.Proc {
			p := w.admit(t, procQ(), 0)
			w.run(t, p, 1)
			p.AbortPending = true
			if err := w.d.BeginAbort(p); err != nil {
				t.Fatal(err)
			}
			return p
		}, func(t *testing.T, w *driverWorld, p *scheduler.Proc) {
			wk := p.StepWork(p.Recovery[0])
			w.host.refuse = nil
			res := w.invoke(t, p, wk)
			w.host.refuse = refuseAll
			before, events := procImage(p), len(w.d.Pol.Events())
			if err := w.d.Complete(p, wk, res); err != nil {
				t.Fatal(err)
			}
			if procImage(p) != before || len(w.d.Pol.Events()) != events || inDoubt(w.host.fed) != 1 {
				t.Fatalf("unlogged step applied: %s -> %s, in doubt %d", before, procImage(p), inDoubt(w.host.fed))
			}
		}},
		{"abort begin", func(t *testing.T, w *driverWorld) *scheduler.Proc {
			p := w.admit(t, procQ(), 0)
			p.AbortPending = true
			return p
		}, func(t *testing.T, w *driverWorld, p *scheduler.Proc) {
			if err := w.d.BeginAbort(p); err != nil {
				t.Fatal(err)
			}
			if p.Phase != policy.Running || !p.AbortPending || len(w.d.Pol.Events()) != 0 {
				t.Fatalf("unlogged abort began: phase %v pending %v", p.Phase, p.AbortPending)
			}
		}},
		{"terminate", func(t *testing.T, w *driverWorld) *scheduler.Proc {
			p := w.admit(t, procQ(), 0)
			w.run(t, p, 1)
			return p
		}, func(t *testing.T, w *driverWorld, p *scheduler.Proc) {
			before, events := procImage(p), len(w.d.Pol.Events())
			if w.d.Terminate(p, true) {
				t.Fatal("terminated without a record")
			}
			if procImage(p) != before || len(w.d.Pol.Events()) != events || w.d.Metrics.CommittedProcs != 0 {
				t.Fatalf("unlogged termination applied: %s -> %s", before, procImage(p))
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newDriverWorld(t)
			p := c.setup(t, w)
			w.host.refuse = refuseAll
			seq := w.host.seq
			c.run(t, w, p)
			if w.host.seq != seq {
				t.Fatalf("%d sequence numbers granted to a refused transition", w.host.seq-seq)
			}
		})
	}
}

// forceLog is a 2PC coordinator append function that force-logs through
// the host, as the hub's does.
func (h *fakeHost) forceLog(rec wal.Record) (int64, error) {
	if !h.ForceLog(rec) {
		return 0, errors.New("refused")
	}
	return 1, nil
}

// TestDriverParkedTransitionReenters: the three write-ahead records — a
// "prepared" outcome, a recovery-step record, the 2PC decision — are the
// ones a subsystem commit follows. A host whose log is a round trip away
// refuses each once and makes the same call again when the append is
// acknowledged; the transition is then applied exactly once: one policy
// event, one subsystem commit, every counter counted once.
func TestDriverParkedTransitionReenters(t *testing.T) {
	type world struct {
		*driverWorld
		reg *metrics.Registry
	}
	cases := []struct {
		name   string
		refuse func(wal.Record) bool
		// setup brings the world to the transition and returns the call
		// the host makes twice.
		setup func(t *testing.T, w world) (call func() error)
		// events is how many policy events the transition appends (the
		// 2PC commit finalizes its tentative event in place); service is
		// the one whose histogram it observes.
		events  int
		service string
		applied func(w world) bool
	}{
		{"prepared outcome", func(r wal.Record) bool { return r.Outcome == "prepared" },
			func(t *testing.T, w world) func() error {
				q := w.admit(t, procQ(), 0)
				wk := scheduler.Work{Local: 1, Service: "qc", Kind: activity.Compensatable}
				res := w.invoke(t, q, wk)
				return func() error { return w.d.Complete(q, wk, res) }
			}, 1, "qc",
			func(w world) bool {
				return w.d.Get("Q").Inst.Status(1) == process.Committed && w.reg.Counter(metrics.CommitsImmediate) == 1
			}},
		{"recovery step", func(r wal.Record) bool { return r.Type == wal.RecCompensate },
			func(t *testing.T, w world) func() error {
				q := w.admit(t, procQ(), 0)
				w.run(t, q, 1)
				q.AbortPending = true
				if err := w.d.BeginAbort(q); err != nil {
					t.Fatal(err)
				}
				wk := q.StepWork(q.Recovery[0])
				res := w.invoke(t, q, wk)
				return func() error { return w.d.Complete(q, wk, res) }
			}, 1, "qc⁻¹",
			func(w world) bool {
				q := w.d.Get("Q")
				return q.Inst.Status(1) == process.Compensated && len(q.Recovery) == 0 && w.reg.Counter(metrics.CompensationsIssued) == 1
			}},
		{"2PC decision", func(r wal.Record) bool { return r.Type == wal.RecDecision },
			func(t *testing.T, w world) func() error {
				q, p := w.admit(t, procQ(), 0), w.admit(t, procP(), 1)
				w.run(t, q, 1)
				w.run(t, p, 1)
				w.run(t, p, 2) // deferred behind Q
				if !w.d.Terminate(q, true) {
					t.Fatal("terminate refused")
				}
				return func() error { return w.d.CommitPreparedSet(p) }
			}, 0, "",
			func(w world) bool {
				p := w.d.Get("P")
				return p.Inst.Status(2) == process.Committed && p.NumPrepared() == 0 &&
					w.reg.Counter(metrics.TwoPCDecisions) == 1 && w.reg.Counter(metrics.DeferredCommitted2PC) == 1
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := world{newDriverWorld(t), metrics.New()}
			w.d.Reg = w.reg
			w.d.Coord = twopc.New(w.host.forceLog)
			w.d.Coord.Metrics = w.reg
			call := c.setup(t, w)

			parked := false
			w.host.refuse = func(r wal.Record) bool {
				if parked || !c.refuse(r) {
					return false
				}
				parked = true
				return true
			}
			image := func() string {
				snap := w.reg.Snapshot()
				s := fmt.Sprint(len(w.d.Pol.Events()), inDoubt(w.host.fed), w.host.seq, snap.Counters, snap.Services)
				for _, p := range w.d.All() {
					s += procImage(p)
				}
				return s
			}
			before, events, doubt := image(), len(w.d.Pol.Events()), inDoubt(w.host.fed)
			_ = call() // a refusing coordinator log surfaces as an error
			if !parked {
				t.Fatal("the transition never asked for its write-ahead record")
			}
			if after := image(); after != before {
				t.Fatalf("the refused call moved something:\n%s\n%s", before, after)
			}
			if err := call(); err != nil {
				t.Fatalf("re-entered call: %v", err)
			}
			if !c.applied(w) {
				t.Errorf("transition not applied once: %s", image())
			}
			if got := len(w.d.Pol.Events()) - events; got != c.events {
				t.Errorf("%d policy events appended, want %d", got, c.events)
			}
			if got := doubt - inDoubt(w.host.fed); got != 1 {
				t.Errorf("%d subsystem transactions resolved, want 1", got)
			}
			if c.service != "" && w.reg.Snapshot().Services[c.service].Count != 1 {
				t.Errorf("service %s observed %d times, want 1", c.service, w.reg.Snapshot().Services[c.service].Count)
			}
		})
	}
}

// TestDriverRollbackLeftovers: concluding an abort rolls back every
// still-prepared local, logs each resolution and erases each tentative
// event with its edges.
func TestDriverRollbackLeftovers(t *testing.T) {
	w := newDriverWorld(t)
	// P with a second non-compensatable activity, which a failure
	// plan's forward path could leave prepared next to the pivot.
	pr := process.NewBuilder("P").Add(1, "pc", activity.Compensatable).Add(2, "pp", activity.Pivot).
		Add(7, "pr", activity.Retriable).Seq(1, 2).Seq(2, 7).MustBuild()
	q, p := w.admit(t, procQ(), 0), w.admit(t, pr, 1)
	w.run(t, q, 1)
	w.run(t, p, 1)
	w.run(t, p, 2) // deferred behind Q
	w.run(t, p, 7) // and the second
	if p.NumPrepared() != 2 {
		t.Fatalf("prepared %d, want 2", p.NumPrepared())
	}

	mark := len(w.host.calls)
	w.d.RollbackLeftovers(p)
	got := w.host.since(mark)
	if len(got) != 2 || !strings.HasPrefix(got[0], "log:resolved/commit=false") || !strings.HasPrefix(got[1], "log:resolved/commit=false") {
		t.Fatalf("host calls %q, want two abort resolutions", got)
	}
	if p.NumPrepared() != 0 || inDoubt(w.host.fed) != 0 {
		t.Fatalf("prepared %d, in doubt %d", p.NumPrepared(), inDoubt(w.host.fed))
	}
	for _, ev := range w.d.Pol.Events() {
		if ev.Tentative && !ev.Erased {
			t.Fatalf("tentative event %v survived the rollback", ev)
		}
	}
	if w.d.Metrics.Rollbacks != 2 {
		t.Fatalf("rollbacks %d", w.d.Metrics.Rollbacks)
	}
}

// TestDriverChooseVictim: the youngest process stalled at dispatch with
// nothing in flight is preferred; a finished process held back by Lemma
// 1 is the fallback; skipped and busy processes are never chosen.
func TestDriverChooseVictim(t *testing.T) {
	w := newDriverWorld(t)
	q, p := w.admit(t, procQ(), 0), w.admit(t, procP(), 1)
	old := w.admit(t, process.NewBuilder("O").Add(1, "yc", activity.Compensatable).MustBuild(), 2)
	young := w.admit(t, process.NewBuilder("Y").Add(1, "yc", activity.Compensatable).MustBuild(), 3)
	busy := w.admit(t, process.NewBuilder("B").Add(1, "yc", activity.Compensatable).MustBuild(), 4)
	w.run(t, q, 1)
	w.run(t, p, 1)
	w.run(t, p, 2)           // P: finished, prepared set deferred behind the running Q
	busy.SetRunning(1, "yc") // in flight, behind the driver's back:
	w.d.Pol.Bump(busy.ID)    // the policy is told who moved

	if v := w.d.ChooseVictim(nil); v != young {
		t.Fatalf("victim %v, want the youngest idle dispatch-stalled process Y", v.ID)
	}
	if v := w.d.ChooseVictim(func(c *scheduler.Proc) bool { return c == young }); v != old {
		t.Fatalf("victim %v with Y exempt, want O", v.ID)
	}
	// Q is the oldest dispatch-stalled candidate; with every unfinished
	// process out of the picture only the Lemma-1-blocked P remains.
	for _, c := range []*scheduler.Proc{q, old, young} {
		c.AbortPending = true
	}
	if v := w.d.ChooseVictim(nil); v != p {
		t.Fatalf("fallback victim %v, want the Lemma-1-blocked P", v)
	}
	w.d.MarkVictim(p, "test")
	if !p.AbortPending || !p.Restartable || w.d.Metrics.VictimAborts != 1 {
		t.Fatalf("victim not marked: %+v", p)
	}
	if v := w.d.ChooseVictim(nil); v != nil {
		t.Fatalf("victim %v, want none left", v.ID)
	}
}

// newPaperWorld hosts the driver over the paper's federation and
// processes P1, P2 and P3 (admitted in that order), under the paper's
// conflict relation plus the extra conflicting pairs a case asks for.
func newPaperWorld(t *testing.T, cfg policy.Config, extra ...[2]string) *driverWorld {
	t.Helper()
	fed := paper.Federation(1)
	table := paper.Conflicts()
	for _, c := range extra {
		table.AddConflict(c[0], c[1])
	}
	w := &driverWorld{host: &fakeHost{fed: fed}, log: wal.NewMemLog()}
	w.d = &scheduler.Driver{Host: w.host, Fed: fed, Pol: policy.New(table, cfg), Coord: twopc.New(w.log.Append)}
	for i, def := range []*process.Process{paper.P1(), paper.P2(), paper.P3()} {
		w.admit(t, def, i)
	}
	return w
}

// commit puts the committed execution of activities into the history,
// past every gate, as the schedules of the paper's figures have them.
func (w *driverWorld) commit(t *testing.T, id process.ID, locals ...int) {
	t.Helper()
	p := w.d.Get(id)
	for _, l := range locals {
		a := p.Def.Activity(l)
		if err := p.Inst.MarkCommitted(l); err != nil {
			t.Fatal(err)
		}
		w.d.Pol.AppendEvent(&policy.Event{Seq: w.host.NextSeq(), Proc: id, Local: l, Service: a.Service, Kind: a.Kind, Typ: schedule.Invoke})
	}
}

// aborting puts a process into its abort with the given completion queued.
func (w *driverWorld) aborting(id process.ID, steps ...process.Step) {
	p := w.d.Get(id)
	p.Phase, p.Recovery = policy.Aborting, steps
	w.d.Pol.Bump(id)
}

func stepInvoke(local int, svc string) process.Step {
	return process.Step{Kind: process.StepInvoke, Local: local, Service: svc}
}

func compensate(local int, base string) process.Step {
	return process.Step{Kind: process.StepCompensate, Local: local, Service: process.DefaultCompensationName(base)}
}

// probe is the runtime's Exec: a held item lock refuses the work.
func (w *driverWorld) probe(p *scheduler.Proc, wk scheduler.Work) (scheduler.Wait, bool) {
	if held, free := w.d.LockBlocker(p, wk); !free {
		return held, true
	}
	return scheduler.Wait{}, false
}

// TestDriverNext asks Driver.Next of one process in a geometry of the
// paper's Figures 4, 7, 8 and 9 and checks what it decided: one case per
// rule of Wait with its blockers, one per rule that names none, and the
// other answers.
func TestDriverNext(t *testing.T) {
	pred := policy.Config{Mode: policy.PRED}
	ids := func(alts ...[]process.ID) [][]process.ID { return alts }
	cases := []struct {
		name  string
		cfg   policy.Config
		extra [][2]string
		// setup brings the world to the geometry and names the process
		// asked and the Exec it is asked with (nil: claim).
		setup  func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec)
		act    scheduler.Act
		wait   scheduler.Wait
		invoke string // the service of the work taken (ActInvoke)
	}{
		{name: "frontier: the first activity is taken", cfg: pred,
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) { return "P1", nil },
			act:   scheduler.ActInvoke, invoke: paper.SvcA11},
		{name: "a pending abort begins", cfg: pred,
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				w.commit(t, "P1", 1)
				w.d.Get("P1").AbortPending = true
				return "P1", nil
			}, act: scheduler.ActAgain},
		{name: "a finished process terminates", cfg: pred,
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				w.commit(t, "P3", 1, 2, 3)
				return "P3", nil
			},
			act: scheduler.ActDone},
		{name: "a recovery step is taken", cfg: pred,
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				w.commit(t, "P1", 1)
				w.aborting("P1", compensate(1, paper.SvcA11))
				return "P1", nil
			}, act: scheduler.ActInvoke, invoke: process.DefaultCompensationName(paper.SvcA11)},
		{name: "busy: its own invocation in flight", cfg: pred,
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				p := w.d.Get("P1")
				w.d.Dispatch(p, scheduler.Work{Local: 1, Service: paper.SvcA11, Kind: activity.Compensatable})
				return "P1", nil
			}, wait: scheduler.Wait{Rule: policy.RuleBusy, Blockers: ids([]process.ID{"P1"})}},
		// Figure 8: a21 after a11 of the backward-recoverable P1.
		{name: "lemma1: dispatch behind an active predecessor", cfg: pred,
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				w.commit(t, "P1", 1)
				return "P2", nil
			},
			wait: scheduler.Wait{Rule: policy.RuleLemma1, Blockers: ids([]process.ID{"P1"})}},
		// Figure 9: a31 may follow a11 of the forward-recoverable P1, but
		// the pivot a32 defers its commit behind P1, and a33 behind it.
		{name: "commit: a deferred set mid-process", cfg: pred,
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				w.commit(t, "P1", 1, 2)
				w.run(t, w.d.Get("P3"), 1)
				w.run(t, w.d.Get("P3"), 2)
				return "P3", nil
			}, wait: scheduler.Wait{Rule: policy.RuleCommit, Blockers: ids([]process.ID{"P1"})}},
		{name: "pivot: the ablation gate", cfg: policy.Config{Mode: policy.PRED, BlockPivots: true},
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				w.commit(t, "P1", 1)
				w.commit(t, "P2", 1, 2)
				return "P2", nil
			}, wait: scheduler.Wait{Rule: policy.RulePivot, Blockers: ids([]process.ID{"P1"})}},
		// Figure 7's completion: a21 followed a11, so a21⁻¹ goes first.
		{name: "lemma2: a compensation behind later conflicting work", cfg: pred,
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				w.commit(t, "P1", 1)
				w.commit(t, "P2", 1)
				w.aborting("P1", compensate(1, paper.SvcA11))
				return "P1", nil
			}, wait: scheduler.Wait{Rule: policy.RuleLemma2, Blockers: ids([]process.ID{"P2"})}},
		{name: "lemma3: a forward step behind a queued compensation", cfg: pred, extra: [][2]string{{paper.SvcA11, paper.SvcA33}},
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				w.commit(t, "P1", 1)
				w.aborting("P1", compensate(1, paper.SvcA11))
				w.aborting("P3", stepInvoke(3, paper.SvcA33))
				return "P3", nil
			}, wait: scheduler.Wait{Rule: policy.RuleLemma3, Blockers: ids([]process.ID{"P1"})}},
		{name: "lemma1fwd: a forward step behind a backward-recoverable predecessor", cfg: pred, extra: [][2]string{{paper.SvcA11, paper.SvcA24}},
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				w.commit(t, "P1", 1)
				w.aborting("P2", stepInvoke(4, paper.SvcA24))
				return "P2", nil
			}, wait: scheduler.Wait{Rule: policy.RuleLemma1Fwd, Blockers: ids([]process.ID{"P1"})}},
		{name: "defer-to-aborting: a forward step forced after an aborting one", cfg: pred,
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				w.commit(t, "P1", 1)
				w.commit(t, "P2", 1)
				w.aborting("P1", stepInvoke(5, paper.SvcA15))
				w.aborting("P2", stepInvoke(5, paper.SvcA25))
				return "P2", nil
			}, wait: scheduler.Wait{Rule: policy.RuleDeferAbort, Blockers: ids([]process.ID{"P1"})}},
		{name: "lock: held by a live process", cfg: pred,
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				if _, err := w.d.Fed.Invoke("P1", paper.SvcA11, subsystem.Prepare); err != nil {
					t.Fatal(err)
				}
				return "P2", w.probe
			}, wait: scheduler.Wait{Rule: policy.RuleLock, Blockers: ids([]process.ID{"P1"})}},
		{name: "parked: the hub's exec refuses", cfg: pred,
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				return "P1", func(*scheduler.Proc, scheduler.Work) (scheduler.Wait, bool) {
					return scheduler.Wait{Rule: policy.RuleParked, Blockers: ids([]process.ID{"P3"})}, true
				}
			}, wait: scheduler.Wait{Rule: policy.RuleParked, Blockers: ids([]process.ID{"P3"})}},
		// The rules that name no blockers.
		{name: "forced-cycle: a forward step would close a forced-order cycle", cfg: pred,
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				w.commit(t, "P2", 1)
				w.commit(t, "P1", 1, 2)
				w.aborting("P2", stepInvoke(4, paper.SvcA24))
				return "P2", nil
			}, wait: scheduler.Wait{Rule: policy.RuleForced}},
		// Figure 4b: a12 after a24 would close the cycle P1→P2→P1.
		{name: "serializability: cc-only", cfg: policy.Config{Mode: policy.CCOnly},
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				w.commit(t, "P1", 1)
				w.commit(t, "P2", 1, 2, 3, 4)
				return "P1", nil
			}, wait: scheduler.Wait{Rule: policy.RuleCycle}},
		{name: "lock: held by no live process", cfg: pred,
			setup: func(t *testing.T, w *driverWorld) (process.ID, scheduler.Exec) {
				if _, err := w.d.Fed.Invoke("ghost", paper.SvcA11, subsystem.Prepare); err != nil {
					t.Fatal(err)
				}
				return "P2", w.probe
			}, wait: scheduler.Wait{Rule: policy.RuleLock}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newPaperWorld(t, c.cfg, c.extra...)
			id, exec := c.setup(t, w)
			if exec == nil {
				exec = claim
			}
			p := w.d.Get(id)
			act, wk, err := w.d.Next(p, exec)
			if err != nil {
				t.Fatal(err)
			}
			if act != c.act || !reflect.DeepEqual(p.Wait, c.wait) {
				t.Fatalf("Next(%s) = %v, wait %+v; want %v, wait %+v", id, act, p.Wait, c.act, c.wait)
			}
			if wk.Service != c.invoke {
				t.Fatalf("Next(%s) took %q, want %q", id, wk.Service, c.invoke)
			}
			if act == scheduler.ActWait && !strings.Contains(w.d.Dump(), "wait "+c.wait.String()+"\n") {
				t.Fatalf("Dump does not show the wait:\n%s", w.d.Dump())
			}
		})
	}
}

// TestWaitString pins the one rendering of a wait, which Dump and the
// policy-wait and defer-commit trace details share.
func TestWaitString(t *testing.T) {
	for _, c := range []struct {
		wait scheduler.Wait
		want string
	}{
		{scheduler.Wait{Rule: policy.RuleLemma1, Blockers: [][]process.ID{{"P1", "P3"}, {"P2"}}}, "lemma1 on P1,P3 or P2"},
		{scheduler.Wait{Rule: policy.RuleDeferAbort, Blockers: [][]process.ID{{"P4"}}}, "defer-to-aborting on P4"},
		{scheduler.Wait{Rule: policy.RuleForced}, "forced-cycle"},
		{scheduler.Wait{Rule: policy.RuleForced, Blockers: [][]process.ID{nil}}, "forced-cycle"},
	} {
		if got := c.wait.String(); got != c.want {
			t.Errorf("%+v renders %q, want %q", c.wait, got, c.want)
		}
	}
}
