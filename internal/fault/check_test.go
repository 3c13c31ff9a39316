package fault

import (
	"strings"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/subsystem"
	"transproc/internal/wal"
)

// TestAtomicCommitmentSplit drives invariant 8 on hand-made crash
// images: P prepared two retriables, the crash left both unresolved, and
// the subsystems show their fates. A set must commit or abort whole; a
// compensatable activity, which commits at completion, is never part of
// one.
func TestAtomicCommitmentSplit(t *testing.T) {
	cases := []struct {
		name    string
		kind    activity.Kind
		commits []bool // the subsystem fate of each of P's two transactions
		split   bool
	}{
		{"split", activity.Retriable, []bool{true, false}, true},
		{"all committed", activity.Retriable, []bool{true, true}, false},
		{"all aborted", activity.Retriable, []bool{false, false}, false},
		{"compensatables are no set", activity.Compensatable, []bool{true, false}, false},
	}
	for _, c := range cases {
		sub := subsystem.New("rm", 1)
		for _, svc := range []string{"a", "b"} {
			spec := activity.Spec{Name: svc, Kind: c.kind, Subsystem: "rm", WriteSet: []string{svc}}
			if c.kind == activity.Compensatable {
				spec.Compensation = svc + "⁻¹"
			}
			sub.MustRegister(spec)
		}
		fed := subsystem.NewFederation()
		fed.MustAdd(sub)
		var recs []wal.Record
		for i, svc := range []string{"a", "b"} {
			res, err := fed.Invoke("P", svc, subsystem.Prepare)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, wal.Record{Type: wal.RecOutcome, Proc: "P", Local: i + 1, Service: svc, Subsystem: "rm", Tx: int64(res.Tx), Outcome: "prepared"})
			if c.commits[i] {
				err = sub.CommitPrepared(res.Tx)
			} else {
				err = sub.AbortPrepared(res.Tx)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		err := checkAtomicCommitment(CheckInput{Fed: fed, PreCrashRecords: len(recs)}, append(recs, wal.Record{Type: wal.RecTerminate, Proc: "P"}))
		if got := err != nil && strings.Contains(err.Error(), "split"); got != c.split {
			t.Errorf("%s: got %v, want a split: %v", c.name, err, c.split)
		}
	}
}
