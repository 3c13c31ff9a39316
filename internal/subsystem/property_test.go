package subsystem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"transproc/internal/activity"
)

// Property: for any random sequence of invocations, commits, rollbacks
// and compensations, every item's value equals the net sum of applied
// deltas, and after resolving all in-doubt transactions no locks remain.
func TestPropertyCounterAccounting(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New("rm", seed)
		s.MustRegister(activity.Spec{
			Name: "inc", Kind: activity.Compensatable, Subsystem: "rm",
			Compensation: "dec", WriteSet: []string{"x"},
		})
		s.MustRegister(activity.Spec{
			Name: "piv", Kind: activity.Pivot, Subsystem: "rm", WriteSet: []string{"y"},
		})

		var want int64
		var inDoubt []TxID
		ops := int(opsRaw % 64)
		for i := 0; i < ops; i++ {
			switch rng.Intn(4) {
			case 0: // committed increment
				if _, err := s.Invoke("P", "inc", AutoCommit); err == nil {
					want++
				}
			case 1: // compensation (only meaningful if something to undo)
				if want > 0 {
					if _, err := s.Invoke("P", "dec", AutoCommit); err == nil {
						want--
					}
				}
			case 2: // prepared pivot, resolved randomly
				res, err := s.Invoke("P", "piv", Prepare)
				if err == nil {
					inDoubt = append(inDoubt, res.Tx)
				}
			case 3: // resolve one in-doubt
				if len(inDoubt) > 0 {
					tx := inDoubt[0]
					inDoubt = inDoubt[1:]
					if rng.Intn(2) == 0 {
						s.CommitPrepared(tx)
					} else {
						s.AbortPrepared(tx)
					}
				}
			}
		}
		if s.Get("x") != want {
			t.Logf("seed %d: x = %d, want %d", seed, s.Get("x"), want)
			return false
		}
		// Resolve the rest; afterwards nothing is in doubt and another
		// process can lock everything.
		for _, tx := range inDoubt {
			s.AbortPrepared(tx)
		}
		if len(s.InDoubt()) != 0 {
			return false
		}
		if _, err := s.Invoke("Q", "piv", AutoCommit); err != nil {
			t.Logf("seed %d: residual lock: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the journal's net delta per item always equals the stored
// value, and the journal keeps its mutations in order across the chunks
// it grows by (up to ~1,000 mutations).
func TestPropertyJournalConsistency(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New("rm", seed)
		s.MustRegister(activity.Spec{
			Name: "a", Kind: activity.Compensatable, Subsystem: "rm",
			Compensation: "a⁻¹", WriteSet: []string{"i", "j"},
		})
		s.MustRegister(activity.Spec{
			Name: "b", Kind: activity.Retriable, Subsystem: "rm",
			WriteSet: []string{"j"}, FailureProb: 0.3,
		})
		for i := 0; i < 3*int(opsRaw); i++ {
			svc := []string{"a", "a⁻¹", "b"}[rng.Intn(3)]
			s.Invoke("P", svc, AutoCommit)
		}
		net := map[string]int64{}
		for i, m := range s.Journal() {
			if m.Seq != int64(i+1) {
				t.Logf("seed %d: journal entry %d has seq %d", seed, i, m.Seq)
				return false
			}
			net[m.Item] += m.Delta
		}
		for item, v := range s.Snapshot() {
			if net[item] != v {
				t.Logf("seed %d: %s journal %d vs store %d", seed, item, net[item], v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a prepared transaction blocks exactly conflicting work and
// nothing else, and resolution is idempotent-error (second resolve
// fails).
func TestPropertyPreparedIsolation(t *testing.T) {
	f := func(seed int64) bool {
		s := New("rm", seed)
		s.MustRegister(activity.Spec{
			Name: "w1", Kind: activity.Pivot, Subsystem: "rm", WriteSet: []string{"k1"},
		})
		s.MustRegister(activity.Spec{
			Name: "w2", Kind: activity.Pivot, Subsystem: "rm", WriteSet: []string{"k2"},
		})
		res, err := s.Invoke("P", "w1", Prepare)
		if err != nil {
			return false
		}
		// Disjoint service unaffected.
		if _, err := s.Invoke("Q", "w2", AutoCommit); err != nil {
			return false
		}
		// Conflicting service blocked.
		if _, err := s.Invoke("Q", "w1", AutoCommit); !errors.Is(err, ErrLocked) {
			return false
		}
		if err := s.CommitPrepared(res.Tx); err != nil {
			return false
		}
		if err := s.CommitPrepared(res.Tx); err == nil {
			return false
		}
		return s.Get("k1") == 1 && s.Get("k2") == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
