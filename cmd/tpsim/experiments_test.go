package main

import "testing"

// TestExperimentsPass runs every paper experiment; each returns nil only
// when all of its verdict checks hold, so this test pins the complete
// reproduction (the benchmark tables b1/b2/b4 are exercised too — they
// fail on any scheduler error).
func TestExperimentsPass(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		{"e1", e1}, {"e2", e2}, {"e3", e3}, {"e4", e4}, {"e5", e5},
		{"e6", e6}, {"e7", e7}, {"e8", e8}, {"e9", e9}, {"e10", e10},
		{"e11", e11}, {"e13", e13},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBenchTablesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("bench tables are slow")
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"b1", b1}, {"b2", b2}, {"b4", b4}, {"b5", b5},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
