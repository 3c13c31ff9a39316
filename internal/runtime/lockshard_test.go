package runtime_test

import (
	"fmt"
	"math/rand"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/scheduler/policy"
	"transproc/internal/subsystem"
)

// lockBlockedOutsideShards builds a random federation (2 subsystems × 3
// items; services with random read/write sets, Commutative flags and
// compensations), lets process P hold 1–3 prepared transactions — two of
// them on one item through different families is the degrade-to-exclusive
// regime of the lock table — and probes every service on behalf of Q. It
// returns the number of refused probes and those whose service lies
// outside the conflict shards of what P holds: the runtime's shard groups
// rest on that list being empty, since a lock wait is only ever analysed,
// woken and victim-aborted inside the waiter's own group.
func lockBlockedOutsideShards(seed int64) (blocked int, outside []string, err error) {
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
	part := policy.NewPartition(table)
	services := fed.Services()
	var held []string
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		svc := services[rng.Intn(len(services))]
		if _, err := fed.Invoke("P", svc, subsystem.Prepare); err != nil {
			return 0, nil, err // P never blocks itself
		}
		held = append(held, svc)
	}
	heldShards := part.ShardSet(held, nil)
	for _, b := range services {
		if _, free := fed.LockBlocker("Q", b); free {
			continue
		}
		blocked++
		in := false
		for _, s := range heldShards {
			in = in || s == part.ShardOf(b)
		}
		if !in {
			outside = append(outside, fmt.Sprintf("%s (shard %d) blocked behind %v (shards %v)", b, part.ShardOf(b), held, heldShards))
		}
	}
	return blocked, outside, nil
}

// TestLockBlockSharesShard: an item-lock-blocked service always shares a
// conflict shard with the holder's prepared work, because the lock table
// (Subsystem.canLock) and the conflict table (conflict.FromRegistry) are
// derived from the same read/write/Commutative declaration.
func TestLockBlockSharesShard(t *testing.T) {
	t.Parallel()
	blocked, bad := 0, 0
	for seed := int64(1); seed <= 5000; seed++ {
		n, outside, err := lockBlockedOutsideShards(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		blocked += n
		bad += len(outside)
		if len(outside) > 0 && bad <= 3 {
			t.Errorf("seed %d: %v", seed, outside)
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d blocked probes leave the holder's shards", bad, blocked)
	}
	if blocked == 0 {
		t.Fatal("no probe was ever refused: the generator no longer reaches the lock table")
	}
}

func FuzzLockBlockSharesShard(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if _, outside, err := lockBlockedOutsideShards(seed); err != nil || len(outside) > 0 {
			t.Fatalf("seed %d: %v %v", seed, err, outside)
		}
	})
}
