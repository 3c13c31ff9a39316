package sim

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"transproc/internal/scheduler"
	"transproc/internal/workload"
)

func testProfile() workload.Profile {
	p := workload.DefaultProfile(5)
	p.Processes = 8
	p.ConflictProb = 0.4
	p.PermFailureProb = 0.08
	return p
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "demo", Columns: []string{"a", "long-column"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, frag := range []string{"demo", "long-column", "333"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestCompareSchedulers(t *testing.T) {
	tab, err := CompareSchedulers(testProfile(), AllModes())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(AllModes()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Headline result: PRED-family modes must never report PRED=false,
	// and serial must be the slowest or tied.
	makespan := map[string]int{}
	for _, r := range tab.Rows {
		makespan[r[0]], _ = strconv.Atoi(r[1])
		if r[0] == "pred" || r[0] == "serial" || r[0] == "conservative" {
			if r[len(r)-1] != "true" {
				t.Fatalf("mode %s reported PRED=%s", r[0], r[len(r)-1])
			}
		}
	}
	if makespan["pred"] > makespan["serial"] {
		t.Fatalf("pred (%d) slower than serial (%d)", makespan["pred"], makespan["serial"])
	}
}

func TestConflictSweep(t *testing.T) {
	tab, err := ConflictSweep(testProfile(), []float64{0.1, 0.6}, []scheduler.Mode{scheduler.Serial, scheduler.PRED})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(tab.Rows[0]) != 3 {
		t.Fatalf("table shape wrong: %+v", tab.Rows)
	}
}

func TestFailureSweep(t *testing.T) {
	tab, err := FailureSweep(testProfile(), []float64{0.0, 0.2}, []scheduler.Mode{scheduler.PRED})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// With zero failures there are no compensations.
	if tab.Rows[0][2] != "0" {
		t.Fatalf("compensations at failure 0 = %s", tab.Rows[0][2])
	}
}

func TestQuasiCommitAblation(t *testing.T) {
	tab, err := QuasiCommitAblation(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestCrashRecoverySweep(t *testing.T) {
	tab, err := CrashRecoverySweep(testProfile(), []int{3, 10, 100000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// All crash rows must end with zero in-doubt transactions.
	for _, r := range tab.Rows {
		if r[len(r)-1] != "0" {
			t.Fatalf("in-doubt transactions remain: %v", r)
		}
	}
}

func TestRunModeError(t *testing.T) {
	bad := testProfile()
	bad.Processes = 0
	if _, err := RunMode(bad, scheduler.Config{Mode: scheduler.PRED}); err == nil {
		t.Fatal("invalid profile must error")
	}
}

func TestGantt(t *testing.T) {
	res, err := RunMode(testProfile(), scheduler.Config{Mode: scheduler.PRED})
	if err != nil {
		t.Fatal(err)
	}
	out := Gantt(res, 40)
	if !strings.Contains(out, "W1") || !strings.Contains(out, "=") {
		t.Fatalf("gantt output:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines < len(res.Outcomes) {
		t.Fatalf("expected one row per process, got %d lines", lines)
	}
	// Degenerate width falls back.
	if out2 := Gantt(res, 1); !strings.Contains(out2, "|") {
		t.Fatal("fallback width broken")
	}
}

func TestFaultMatrix(t *testing.T) {
	p := testProfile()
	p.Processes = 6
	p.PermFailureProb = 0
	p.Subsystems = 2
	p.ServicesPerSubsystem = 2
	tab, err := FaultMatrix(p, scheduler.PRED)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 { // 2 subsystems × 2 services × (comp+pivot)
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[5] != "true" {
			t.Fatalf("fault on %s broke PRED", r[0])
		}
		if r[6] != "true" {
			t.Fatalf("fault on %s left inconsistent state", r[0])
		}
	}
}
