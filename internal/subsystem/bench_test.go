package subsystem_test

import (
	"testing"

	"transproc/internal/activity"
	"transproc/internal/subsystem"
)

// BenchmarkSubsystemPrepareCommit times one local transaction through
// the lock table as the driver runs it: prepare through a resolved
// route, then CommitPrepared. "conflicting" writes its items
// exclusively; "commuting" is a Commutative increment, whose write locks
// two processes could hold at once. Other processes hold prepared work
// on the same items, so the lock operations scan real holder lists.
func BenchmarkSubsystemPrepareCommit(b *testing.B) {
	for _, c := range []struct {
		name        string
		commutative bool
	}{{"conflicting", false}, {"commuting", true}} {
		b.Run(c.name, func(b *testing.B) {
			sub := subsystem.New("rm", 1)
			sub.MustRegister(activity.Spec{
				Name: "svc", Kind: activity.Compensatable, Compensation: "svc⁻¹", Subsystem: "rm",
				ReadSet: []string{"r0", "r1"}, WriteSet: []string{"w0", "w1", "w2"}, Commutative: c.commutative,
			})
			sub.MustRegister(activity.Spec{
				Name: "other", Kind: activity.Retriable, Subsystem: "rm", ReadSet: []string{"r0", "r1", "w9"},
			})
			fed := subsystem.NewFederation()
			fed.MustAdd(sub)
			svc, _ := fed.Route("svc")
			other, _ := fed.Route("other")
			for _, proc := range []string{"A", "B", "C"} {
				if _, err := other.Invoke(proc, subsystem.Prepare); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := svc.Invoke("P", subsystem.Prepare)
				if err != nil {
					b.Fatal(err)
				}
				if err := sub.CommitPrepared(res.Tx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
