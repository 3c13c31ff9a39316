package battery

import (
	"flag"
	"testing"
)

// selection is what the go test front-end's five flags select.
type selection struct {
	seed, first, count int64
	v                  Variants
}

func bindFlags(fs *flag.FlagSet) *selection {
	s := &selection{}
	fs.Int64Var(&s.seed, "battery.seed", -1, "run only this seed of the selected battery, verbosely (reproduce a failure)")
	fs.Int64Var(&s.first, "battery.first", 0, "first seed")
	fs.Int64Var(&s.count, "battery.count", 0, "number of seeds (0 = the battery's tier-1 count); TestRecoveryCrashSweep: processes per geometry (0 = 2)")
	fs.BoolVar(&s.v.Ckpt, "battery.ckpt", false, "torture: force fuzzy checkpoints (every 6 appends, compacting) onto every scenario")
	fs.BoolVar(&s.v.Durable, "battery.durable", false, "torture: force file-backed subsystem stores onto every scenario")
	return s
}

var selected = bindFlags(flag.CommandLine)

// tier1Count is what plain `go test ./...` runs of each battery; the
// full 200-seed runs are behind the make targets, CI and nightly, which
// pass -battery.count.
var tier1Count = map[string]int64{"torture": 200, "chaos": 200, "fed": 30, "hub": 20, "serve": 20}

// TestBattery runs each battery as a subtest: `go test ./internal/battery
// -run 'TestBattery/<name>$' [-battery.count=N | -battery.seed=K]`. A
// failure prints the line that re-runs its scenario. A battery without
// the variant in force is skipped.
func TestBattery(t *testing.T) {
	for _, b := range All {
		t.Run(b.Name, func(t *testing.T) {
			if !b.Supports(selected.v) {
				t.Skipf("no such variant of %s: %+v", b.Name, selected.v)
			}
			count := selected.count
			if count == 0 {
				count = tier1Count[b.Name]
				if testing.Short() {
					count = max(count/4, int64(len(b.Classes)))
				}
			}
			sum, err := Run(b, Options{
				First: selected.first, Count: count, Seed: selected.seed,
				Variants: selected.v, FrontEnd: GoTest, Logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range sum.Failures {
				t.Errorf("%s\n    reproduce: %s", f.Err, f.Repro)
			}
			for _, p := range sum.Problems {
				t.Error(p)
			}
			t.Logf("%s: %d scenarios, stats %v, classes %v", b.Name, sum.Scenarios, sum.Stats, sum.ByClass)
		})
	}
}
