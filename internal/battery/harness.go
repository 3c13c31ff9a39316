// Package battery holds the five seeded scenario batteries — crash
// torture, subsystem chaos, federation torture, hub-kill torture and the
// serve crash battery — over one harness. It is not product code: it is
// the one place that combines the fault libraries (internal/fault,
// internal/chaos) with the packages they torture, which reach every
// fault only through an injected hook (DESIGN.md §6m). The harness owns
// the seed loop, the summary, the whole-battery checks and the
// reproducing command line; the two front-ends (`go test
// ./internal/battery -run TestBattery/<name>` and `tpsim battery
// <name>`) only parse flags and print.
package battery

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Variants are the overlays a run may force onto every scenario of a
// battery, on top of what each scenario class already configures.
type Variants struct {
	// Ckpt forces fuzzy checkpoints every 6 force-log appends, with
	// compaction, so checkpointing is live under every crash class.
	Ckpt bool
	// Durable backs every scenario's subsystems with file-backed heap
	// stores, so every crash class also kills and recovers durable pages.
	Durable bool
}

// Stats are a scenario's named fault-path counters (how often each rare
// path fired); the harness sums them over a run.
type Stats map[string]int

// Battery is one seeded battery. ScenarioFor must be a pure function of
// (seed, variants), so a reported seed reproduces the scenario anywhere.
type Battery struct {
	Name string
	// Classes are the scenario classes a full run must exercise.
	Classes []string
	// Full is the seed count from which a run is held to the
	// whole-battery checks (every class seen, Check); shorter runs are
	// smokes. Zero means len(Classes).
	Full int64
	// Accepts marks the variants the battery understands.
	Accepts Variants
	// ScenarioFor derives a seed's scenario and renders it: its class
	// and a one-line description of everything the seed decided.
	ScenarioFor func(seed int64, v Variants) (class, desc string)
	// Run executes that scenario end to end with dir as its scratch
	// directory; a non-nil error names the violated guarantee.
	Run func(seed int64, v Variants, dir string) (Stats, error)
	// Check, if set, judges a full run's summed stats; each returned
	// string is a problem.
	Check func(Stats) []string
}

// Supports reports whether the battery understands every variant set
// in v.
func (b *Battery) Supports(v Variants) bool {
	return (!v.Ckpt || b.Accepts.Ckpt) && (!v.Durable || b.Accepts.Durable)
}

// All lists the batteries by the name both front-ends select them with.
var All = []*Battery{Torture, Chaos, Fed, Hub, Serve}

// Named finds a battery.
func Named(name string) (*Battery, bool) {
	for _, b := range All {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}

// FrontEnd is one way of invoking a battery: the command line up to the
// battery name and the prefix of its seed and variant flags. It exists
// so the reproducing line is composed in one place.
type FrontEnd struct{ Command, FlagPrefix string }

var (
	GoTest = FrontEnd{"go test ./internal/battery -v -run 'TestBattery/%s$'", "-battery."}
	CLI    = FrontEnd{"tpsim battery %s", "-"}
)

// Repro is the command line that re-runs one scenario under the
// variants in force.
func (fe FrontEnd) Repro(name string, seed int64, v Variants) string {
	line := fmt.Sprintf(fe.Command+" %sseed=%d", name, fe.FlagPrefix, seed)
	if v.Ckpt {
		line += " " + fe.FlagPrefix + "ckpt"
	}
	if v.Durable {
		line += " " + fe.FlagPrefix + "durable"
	}
	return line
}

// Options select what a run covers.
type Options struct {
	// First and Count select seeds [First, First+Count).
	First, Count int64
	// Seed, when >= 0, runs only that seed and logs its description.
	Seed     int64
	Variants Variants
	FrontEnd FrontEnd
	// Progress, if set, sees each seed and class before the scenario
	// runs (the CLI reports the in-flight seed when interrupted).
	Progress func(seed int64, class string)
	// Logf, if set, receives the single-seed description.
	Logf func(format string, args ...any)
}

// Failure is one failed scenario with the line that re-runs it.
type Failure struct {
	Seed  int64  `json:"seed"`
	Class string `json:"class"`
	Err   string `json:"err"`
	Repro string `json:"repro"`
}

// Summary aggregates a run.
type Summary struct {
	Battery   string         `json:"battery"`
	First     int64          `json:"first"`
	Scenarios int            `json:"scenarios"`
	ByClass   map[string]int `json:"byClass"`
	Stats     Stats          `json:"stats,omitempty"`
	Failures  []Failure      `json:"failures,omitempty"`
	// Problems are whole-battery findings of a full run: a class never
	// exercised, a rare path that never fired.
	Problems []string `json:"problems,omitempty"`
}

// OK reports a run without failures or problems.
func (s Summary) OK() bool { return len(s.Failures) == 0 && len(s.Problems) == 0 }

// Run executes the selected scenarios of b and judges the run.
func Run(b *Battery, o Options) (Summary, error) {
	sum := Summary{Battery: b.Name, ByClass: make(map[string]int), Stats: make(Stats)}
	if !b.Supports(o.Variants) {
		return sum, fmt.Errorf("battery %s has no such variant (%+v)", b.Name, o.Variants)
	}
	root, err := os.MkdirTemp("", "battery-"+b.Name)
	if err != nil {
		return sum, err
	}
	defer os.RemoveAll(root)
	first, count := o.First, o.Count
	if o.Seed >= 0 {
		first, count = o.Seed, 1
	}
	sum.First = first
	for seed := first; seed < first+count; seed++ {
		class, desc := b.ScenarioFor(seed, o.Variants)
		if o.Seed >= 0 && o.Logf != nil {
			o.Logf("seed %d: %s", seed, desc)
		}
		if o.Progress != nil {
			o.Progress(seed, class)
		}
		sum.Scenarios++
		sum.ByClass[class]++
		dir := filepath.Join(root, fmt.Sprint(seed))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return sum, err
		}
		st, err := b.Run(seed, o.Variants, dir)
		for k, n := range st {
			sum.Stats[k] += n
		}
		if err != nil {
			sum.Failures = append(sum.Failures, Failure{
				Seed: seed, Class: class, Err: err.Error(),
				Repro: o.FrontEnd.Repro(b.Name, seed, o.Variants),
			})
		}
		os.RemoveAll(dir)
	}
	full := b.Full
	if full == 0 {
		full = int64(len(b.Classes))
	}
	if o.Seed < 0 && count >= full {
		for _, class := range b.Classes {
			if sum.ByClass[class] == 0 {
				sum.Problems = append(sum.Problems, fmt.Sprintf("battery never exercised class %s", class))
			}
		}
		if b.Check != nil {
			sum.Problems = append(sum.Problems, b.Check(sum.Stats)...)
		}
	}
	return sum, nil
}

// Print writes the human-readable report of a run.
func (s Summary) Print(w io.Writer) {
	fmt.Fprintf(w, "%s: %d scenarios (seeds %d..%d)", s.Battery, s.Scenarios, s.First, s.First+int64(s.Scenarios)-1)
	for _, k := range sortedKeys(s.Stats) {
		fmt.Fprintf(w, ", %s %d", k, s.Stats[k])
	}
	fmt.Fprintln(w)
	for _, class := range sortedKeys(s.ByClass) {
		fmt.Fprintf(w, "  %-24s %d\n", class, s.ByClass[class])
	}
	for _, f := range s.Failures {
		fmt.Fprintf(w, "  FAIL %s\n       reproduce: %s\n", f.Err, f.Repro)
	}
	for _, p := range s.Problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
