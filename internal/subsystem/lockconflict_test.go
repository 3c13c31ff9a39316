package subsystem_test

import (
	"fmt"
	"math/rand"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/subsystem"
)

// lockBlockedWithoutConflict builds a random federation (2 subsystems × 3
// items; services with random read/write sets, Commutative flags and
// compensations), lets process P hold 1–3 prepared transactions — two of
// them on one item through different families is the degrade-to-exclusive
// regime of the lock table — and probes every service on behalf of Q. It
// returns the number of refused probes and those whose service conflicts
// with nothing P holds: the two readings of one declaration, the lock
// table (Subsystem.canLock) and the conflict table
// (conflict.FromRegistry), must agree that this list is empty. It is why
// Lemma 1 names a lock holder as a conflict predecessor before the lock
// is ever probed, and why a lock wait always has a policy-visible edge.
func lockBlockedWithoutConflict(seed int64) (blocked int, bare []string, err error) {
	rng := rand.New(rand.NewSource(seed))
	subset := func(sub string) []string {
		var out []string
		for _, it := range []string{"x", "y", "z"} {
			if rng.Intn(2) == 0 {
				out = append(out, sub+"."+it)
			}
		}
		return out
	}
	fed := subsystem.NewFederation()
	for _, name := range []string{"s0", "s1"} {
		sub := subsystem.New(name, seed)
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			spec := activity.Spec{
				Name: fmt.Sprintf("%s.a%d", name, i), Subsystem: name,
				Kind:    []activity.Kind{activity.Compensatable, activity.Pivot, activity.Retriable}[rng.Intn(3)],
				ReadSet: subset(name), WriteSet: subset(name), Commutative: rng.Intn(2) == 0,
			}
			if spec.Kind == activity.Compensatable {
				spec.Compensation = spec.Name + "⁻¹"
			}
			if err := sub.Register(spec); err != nil {
				return 0, nil, err
			}
		}
		if err := fed.Add(sub); err != nil {
			return 0, nil, err
		}
	}
	table, err := fed.ConflictTable()
	if err != nil {
		return 0, nil, err
	}
	services := fed.Services()
	var held []string
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		svc := services[rng.Intn(len(services))]
		if _, err := fed.Invoke("P", svc, subsystem.Prepare); err != nil {
			return 0, nil, err // P never blocks itself
		}
		held = append(held, svc)
	}
	for _, b := range services {
		r, _ := fed.Route(b)
		if _, free := r.LockBlocker("Q"); free {
			continue
		}
		blocked++
		conflicts := false
		for _, h := range held {
			conflicts = conflicts || table.Conflicts(b, h)
		}
		if !conflicts {
			bare = append(bare, fmt.Sprintf("%s blocked behind %v, conflicting with none of them", b, held))
		}
	}
	return blocked, bare, nil
}

// TestLockBlockConflictsWithHeld: a service a held item lock refuses
// conflicts with a service the holder has prepared.
func TestLockBlockConflictsWithHeld(t *testing.T) {
	t.Parallel()
	blocked, bad := 0, 0
	for seed := int64(1); seed <= 5000; seed++ {
		n, bare, err := lockBlockedWithoutConflict(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		blocked += n
		bad += len(bare)
		if len(bare) > 0 && bad <= 3 {
			t.Errorf("seed %d: %v", seed, bare)
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d blocked probes conflict with nothing the holder prepared", bad, blocked)
	}
	if blocked == 0 {
		t.Fatal("no probe was ever refused: the generator no longer reaches the lock table")
	}
}

func FuzzLockBlockConflictsWithHeld(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if _, bare, err := lockBlockedWithoutConflict(seed); err != nil || len(bare) > 0 {
			t.Fatalf("seed %d: %v %v", seed, err, bare)
		}
	})
}
