package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"transproc/internal/battery"
)

// parseBattery reads "tpsim battery" arguments: the battery name, then
// the six flags that select what runs.
func parseBattery(args []string) (*battery.Battery, battery.Options, bool, error) {
	o := battery.Options{FrontEnd: battery.CLI}
	names := make([]string, len(battery.All))
	for i, b := range battery.All {
		names[i] = b.Name
	}
	if len(args) == 0 {
		return nil, o, false, fmt.Errorf("usage: tpsim battery <%s> [-seeds N] [-first S] [-seed K] [-ckpt] [-durable] [-json]", strings.Join(names, "|"))
	}
	b, ok := battery.Named(args[0])
	if !ok {
		return nil, o, false, fmt.Errorf("unknown battery %q (%s)", args[0], strings.Join(names, ", "))
	}
	fs := flag.NewFlagSet("battery "+b.Name, flag.ContinueOnError)
	fs.Int64Var(&o.Count, "seeds", 200, "number of seeds to run")
	fs.Int64Var(&o.First, "first", 0, "first seed")
	fs.Int64Var(&o.Seed, "seed", -1, "run only this seed (verbose reproduction)")
	fs.BoolVar(&o.Variants.Ckpt, "ckpt", false, "torture: force fuzzy checkpoints (every 6 appends, compacting) onto every scenario")
	fs.BoolVar(&o.Variants.Durable, "durable", false, "torture: back every scenario's subsystems with file-backed heap stores")
	asJSON := fs.Bool("json", false, "emit the summary as JSON")
	if err := fs.Parse(args[1:]); err != nil {
		return nil, o, false, err
	}
	if fs.NArg() > 0 {
		return nil, o, false, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return b, o, *asJSON, nil
}

// runBattery implements "tpsim battery <torture|chaos|fed|hub|serve>":
// one of the seeded batteries (internal/battery) as a command, for CI
// jobs and for reproducing a failing seed outside the test harness.
// -seeds runs the scenarios of seeds [first, first+N); -seed runs one
// scenario and prints everything its seed decided. The exit status is
// non-zero when any scenario violates a guarantee or a full run misses a
// class; every failure comes with the line that re-runs it, and so does
// an interrupt (SIGINT/SIGTERM), for the scenario then in flight.
func runBattery(args []string) error {
	b, o, asJSON, err := parseBattery(args)
	if err != nil {
		return err
	}
	progress, stop := seedTrap(func(seed int64) string { return o.FrontEnd.Repro(b.Name, seed, o.Variants) })
	o.Progress = progress
	o.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	sum, err := battery.Run(b, o)
	stop()
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return err
		}
	} else {
		sum.Print(os.Stdout)
	}
	if !sum.OK() {
		return fmt.Errorf("%d of %d scenarios failed, %d battery-wide problems", len(sum.Failures), sum.Scenarios, len(sum.Problems))
	}
	return nil
}
