package process_test

import (
	"strings"
	"testing"
	"testing/quick"

	"transproc/internal/process"
)

// TestIDGrammar pins the incarnation-id grammar origin(+rN)*.
//
// The nested row is the case two earlier private parsers disagreed on
// (one read the last suffix, one the first). An engine restarts the job
// it was handed by appending to that job's id, so "P+r3" restarted by the
// runtime is "P+r3+r1": still the third lineage of P. Whoever numbers the
// next restart of P must go past 3, not past 1, or it reissues "P+r2" or
// "P+r3" — ids the log already holds.
func TestIDGrammar(t *testing.T) {
	for _, c := range []struct {
		id      process.ID
		origin  process.ID
		lineage int
	}{
		{"P1", "P1", 0},
		{"P1+r2", "P1", 2},
		{"P+r3+r1", "P", 3},
		{"t0/W3+r1+r4", "t0/W3", 1},
		{"a/trip+r12", "a/trip", 12},
		{"P+x", "P", 0}, // not a restart suffix: no lineage
		{"P+r", "P", 0},
		{"P+5", "P", 0},
		{"", "", 0},
	} {
		if got := c.id.Origin(); got != c.origin {
			t.Errorf("%q.Origin() = %q, want %q", c.id, got, c.origin)
		}
		if got := c.id.Lineage(); got != c.lineage {
			t.Errorf("%q.Lineage() = %d, want %d", c.id, got, c.lineage)
		}
	}
	if got := process.ID("P+r3").Restart(1); got != "P+r3+r1" {
		t.Errorf(`"P+r3".Restart(1) = %q, want "P+r3+r1"`, got)
	}
}

// TestIDRoundTrip: restarting any id any number of times keeps its
// origin, an origin (an id without '+', which admission enforces) is its
// own origin with lineage zero, and the first restart of an origin
// decides the lineage of everything derived from it.
func TestIDRoundTrip(t *testing.T) {
	prop := func(name string, first uint8, nested []uint8) bool {
		origin := process.ID(strings.ReplaceAll(name, "+", "_"))
		if origin.Origin() != origin || origin.Lineage() != 0 {
			return false
		}
		id := origin.Restart(int(first))
		for _, n := range nested {
			id = id.Restart(int(n))
		}
		return id.Origin() == origin && id.Lineage() == int(first) && !strings.Contains(string(id.Origin()), "+")
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
