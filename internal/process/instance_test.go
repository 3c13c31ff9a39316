package process_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"transproc/internal/process"
)

// TestInstanceMatchesReference drives instances of fuzz-decoded processes
// through random sequences of commits, prepares, failures, recovery
// steps, rollbacks and aborts — legal and illegal — and after every
// operation compares each answer of the Instance with the map-based
// refInstance it replaced. Now and then it clones both, drives the
// clones one operation further and checks that the originals did not
// move.
func TestInstanceMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(30))
	data := make([]byte, 48)
	instances := 3000
	if testing.Short() {
		instances = 300
	}
	for built := 0; built < instances; {
		rng.Read(data[:3+rng.Intn(len(data)-3)])
		p := decodeProcess(data[:3+rng.Intn(len(data)-3)])
		if p == nil {
			continue
		}
		built++
		d := &instanceDriver{rng: rng, in: process.NewInstance(p), ref: newRefInstance(p)}
		compareInstances(t, d.in, d.ref, fmt.Sprintf("%s fresh", p))
		for step := 0; step < 40 && !d.in.Terminated(); step++ {
			op, diff := d.next()
			if diff != "" {
				t.Fatalf("%s: %s: %s", p, op, diff)
			}
			compareInstances(t, d.in, d.ref, fmt.Sprintf("%s after %s", p, op))
			if rng.Intn(8) == 0 {
				c := &instanceDriver{rng: rng, in: d.in.Clone(), ref: d.ref.Clone(), queue: slices.Clone(d.queue), abort: d.abort}
				op, diff := c.next()
				if diff != "" {
					t.Fatalf("%s: clone %s: %s", p, op, diff)
				}
				compareInstances(t, c.in, c.ref, fmt.Sprintf("%s clone after %s", p, op))
				compareInstances(t, d.in, d.ref, fmt.Sprintf("%s original after its clone's %s", p, op))
			}
		}
	}
}

// instanceDriver applies one random operation to an Instance and its
// reference at a time. queue holds the recovery steps of a failure plan
// or abort not yet applied; abort marks that the process terminates
// aborted once they are.
type instanceDriver struct {
	rng   *rand.Rand
	in    *process.Instance
	ref   *refInstance
	queue []process.Step
	abort bool
}

// next applies one operation to both, returning its description and,
// when the two answered differently, how.
func (d *instanceDriver) next() (op, diff string) {
	if len(d.queue) > 0 && d.rng.Intn(4) > 0 {
		st := d.queue[0]
		d.queue = d.queue[1:]
		op = fmt.Sprintf("ApplyStep(%v)", st)
		return op, differ(d.in.ApplyStep(st), d.ref.ApplyStep(st))
	}
	if len(d.queue) == 0 && d.abort {
		d.in.MarkTerminated(false)
		d.ref.MarkTerminated(false)
		return "MarkTerminated(false)", ""
	}
	if len(d.queue) == 0 && d.in.Done() && !d.in.Aborting() && d.rng.Intn(2) == 0 {
		d.in.MarkTerminated(true)
		d.ref.MarkTerminated(true)
		return "MarkTerminated(true)", ""
	}
	local := d.pick()
	switch n := d.rng.Intn(20); {
	case n < 9:
		return fmt.Sprintf("MarkCommitted(%d)", local), differ(d.in.MarkCommitted(local), d.ref.MarkCommitted(local))
	case n < 12:
		return fmt.Sprintf("MarkPrepared(%d)", local), differ(d.in.MarkPrepared(local), d.ref.MarkPrepared(local))
	case n < 15:
		plan, err := d.in.MarkFailed(local)
		rplan, rerr := d.ref.MarkFailed(local)
		op = fmt.Sprintf("MarkFailed(%d)", local)
		if !reflect.DeepEqual(plan, rplan) {
			return op, fmt.Sprintf("plan %+v, reference %+v", plan, rplan)
		}
		if err == nil {
			d.queue = append(d.queue, plan.Steps...)
			d.abort = d.abort || plan.Abort
		}
		return op, differ(err, rerr)
	case n < 16:
		steps, err := d.in.Abort()
		rsteps, rerr := d.ref.Abort()
		if !reflect.DeepEqual(steps, rsteps) {
			return "Abort()", fmt.Sprintf("steps %v, reference %v", steps, rsteps)
		}
		if err == nil {
			d.queue, d.abort = append(d.queue, steps...), true
		}
		return "Abort()", differ(err, rerr)
	case n < 17:
		return fmt.Sprintf("ResetPrepared(%d)", local), differ(d.in.ResetPrepared(local), d.ref.ResetPrepared(local))
	case n < 18:
		return fmt.Sprintf("MarkAbortedPrepared(%d)", local), differ(d.in.MarkAbortedPrepared(local), d.ref.MarkAbortedPrepared(local))
	default:
		st := process.Step{Kind: process.StepKind(d.rng.Intn(3)), Local: local}
		return fmt.Sprintf("stray ApplyStep(%v)", st), differ(d.in.ApplyStep(st), d.ref.ApplyStep(st))
	}
}

// pick mostly chooses a frontier or prepared activity, sometimes any
// activity, rarely an unknown one.
func (d *instanceDriver) pick() int {
	cands := append(d.in.Frontier(), d.in.PreparedSet()...)
	n := d.in.Process().Len()
	switch r := d.rng.Intn(10); {
	case r == 0:
		return n + 1 + d.rng.Intn(3)
	case r < 4 || len(cands) == 0:
		return d.rng.Intn(n) + 1
	default:
		return cands[d.rng.Intn(len(cands))]
	}
}

func differ(err, ref error) string {
	if fmt.Sprint(err) != fmt.Sprint(ref) {
		return fmt.Sprintf("error %v, reference %v", err, ref)
	}
	return ""
}

func compareInstances(t *testing.T, in *process.Instance, ref *refInstance, where string) {
	t.Helper()
	if !maps.Equal(in.Snapshot(), ref.status) {
		t.Fatalf("%s: statuses %v, reference %v", where, in.Snapshot(), ref.status)
	}
	if in.StatusGen() != ref.statusGen {
		t.Fatalf("%s: StatusGen %d, reference %d", where, in.StatusGen(), ref.statusGen)
	}
	if f, rf := in.Frontier(), ref.Frontier(); !slices.Equal(f, rf) {
		t.Fatalf("%s: Frontier %v, reference %v", where, f, rf)
	}
	if f := in.AppendFrontier([]int{-1}); f[0] != -1 || !slices.Equal(f[1:], ref.Frontier()) {
		t.Fatalf("%s: AppendFrontier %v, reference %v", where, f, ref.Frontier())
	}
	if in.Done() != ref.Done() || in.Mode() != ref.Mode() || in.Aborting() != ref.aborting ||
		in.Terminated() != ref.terminated || in.CommittedOutcome() != (ref.terminated && ref.committed) {
		t.Fatalf("%s: Done/Mode/Aborting/Terminated/CommittedOutcome %v %v %v %v %v, reference %v %v %v %v %v", where,
			in.Done(), in.Mode(), in.Aborting(), in.Terminated(), in.CommittedOutcome(),
			ref.Done(), ref.Mode(), ref.aborting, ref.terminated, ref.terminated && ref.committed)
	}
	if ps, rps := in.PreparedSet(), ref.PreparedSet(); !slices.Equal(ps, rps) {
		t.Fatalf("%s: PreparedSet %v, reference %v", where, ps, rps)
	}
	pot := ref.PotentialRecoveryServices()
	if got := in.PotentialRecoveryServices(); !maps.Equal(got, pot) {
		t.Fatalf("%s: PotentialRecoveryServices %v, reference %v", where, got, pot)
	}
	seq := make(map[string]bool)
	for svc := range in.PotentialRecoveryServiceSeq() {
		seq[svc] = true
	}
	if !maps.Equal(seq, pot) {
		t.Fatalf("%s: PotentialRecoveryServiceSeq %v, reference %v", where, seq, pot)
	}
	steps, err := in.Completion()
	rsteps, rerr := ref.Completion()
	if fmt.Sprint(err) != fmt.Sprint(rerr) || !reflect.DeepEqual(steps, rsteps) {
		t.Fatalf("%s: Completion %v, %v; reference %v, %v", where, steps, err, rsteps, rerr)
	}
}

// warmInstance returns an instance of a process with an alternative,
// parallel branches and every activity kind, part-way through its run.
func warmInstance(t *testing.T) *process.Instance {
	t.Helper()
	p := decodeProcess([]byte{6, 0, 0, 1, 0, 2, 0, 3, 1, 4, 2, 1, 1, 2, 1, 3})
	if p == nil {
		t.Fatal("fixture does not build")
	}
	in := process.NewInstance(p)
	for i := 0; i < 2; i++ {
		if f := in.Frontier(); len(f) > 0 {
			if err := in.MarkCommitted(f[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if in.Done() || len(in.Frontier()) == 0 {
		t.Fatal("fixture finished too early")
	}
	return in
}

// TestInstanceQueriesDoNotAllocate guards the per-activity path of the
// runtime's loop: the queries it asks of an instance after
// every step allocate nothing.
func TestInstanceQueriesDoNotAllocate(t *testing.T) {
	in := warmInstance(t)
	buf := make([]int, 0, in.Process().Len())
	var sink int
	for name, f := range map[string]func(){
		"Done": func() {
			if in.Done() {
				sink++
			}
		},
		"Mode": func() { sink += int(in.Mode()) },
		"AppendFrontier": func() {
			buf = in.AppendFrontier(buf[:0])
			sink += len(buf)
		},
		"PotentialRecoveryServiceSeq": func() {
			for svc := range in.PotentialRecoveryServiceSeq() {
				sink += len(svc)
			}
		},
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
	_ = sink
}
