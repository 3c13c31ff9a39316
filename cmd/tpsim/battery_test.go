package main

import (
	"strings"
	"testing"

	"transproc/internal/battery"
)

// TestReproLineCLI parses every battery's reproducing line, in every
// variant it accepts, back through this front-end's own flag set and
// requires the scenario it names to be the one that was reported.
func TestReproLineCLI(t *testing.T) {
	for _, b := range battery.All {
		for _, v := range []battery.Variants{{}, {Ckpt: true}, {Durable: true}, {Ckpt: true, Durable: true}} {
			if !b.Supports(v) {
				continue
			}
			const seed = 137
			line := battery.CLI.Repro(b.Name, seed, v)
			args, ok := strings.CutPrefix(line, "tpsim battery ")
			if !ok {
				t.Fatalf("%q is not a tpsim battery command", line)
			}
			b2, o, _, err := parseBattery(strings.Fields(args))
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			_, want := b.ScenarioFor(seed, v)
			if _, got := b2.ScenarioFor(o.Seed, o.Variants); b2 != b || got != want {
				t.Errorf("%q re-runs battery %s scenario\n%s\nnot %s\n%s", line, b2.Name, got, b.Name, want)
			}
		}
	}
}

// TestBatteryFlagsElsewhereAreErrors: the flags that used to select a
// battery inside another subcommand are refused there, not ignored (a
// seed given to the wrong command once ran a different workload and
// printed a pass).
func TestBatteryFlagsElsewhereAreErrors(t *testing.T) {
	fed := func(args []string) error { return runFed(args, "") }
	for _, c := range []struct {
		run  func([]string) error
		args []string
	}{
		{fed, []string{"-fedseed", "4"}},
		{fed, []string{"-torture"}},
		{fed, []string{"-hubtorture", "-hubseed", "2"}},
		{runServe, []string{"-torture", "-seed", "3"}},
		{runBattery, []string{"chaos", "-ckpt"}},
		{runBattery, []string{"fed", "-v"}},
		{runBattery, []string{"nosuch"}},
	} {
		if err := c.run(c.args); err == nil {
			t.Errorf("%v accepted", c.args)
		}
	}
}
