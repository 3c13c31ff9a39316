package subsystem_test

import (
	gort "runtime"
	"testing"

	"transproc/internal/activity"
	"transproc/internal/conflict"
	"transproc/internal/runtime"
	"transproc/internal/scheduler"
	"transproc/internal/subsystem"
	"transproc/internal/workload"
)

// generatedFederation is the federation of workload.DefaultProfile: four
// subsystems of 16 services each, compensations included.
func generatedFederation(tb testing.TB) *subsystem.Federation {
	tb.Helper()
	w, err := workload.Generate(workload.DefaultProfile(1))
	if err != nil {
		tb.Fatal(err)
	}
	if n := len(w.Fed.Services()); n != 64 {
		tb.Fatalf("generated federation has %d services, want 64", n)
	}
	return w.Fed
}

// BenchmarkConflictTable times deriving the conflict relation of a
// generated 64-service federation, alone and as the set-up of a runtime
// (runtime.New derives it and hands it to the policy).
func BenchmarkConflictTable(b *testing.B) {
	fed := generatedFederation(b)
	b.Run("ConflictTable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fed.ConflictTable(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("runtime.New", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := runtime.New(fed, runtime.Config{Mode: scheduler.PRED}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestConflictTableAllocations bounds what one derivation allocates on
// the generated federation: the registry it is derived from, the item
// index and one bit row per base service, but no per-service maps.
func TestConflictTableAllocations(t *testing.T) {
	fed := generatedFederation(t)
	derive := func() {
		if _, err := fed.ConflictTable(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, derive); n > 200 {
		t.Fatalf("deriving the conflict table of 64 services allocates %v times, want at most 200", n)
	}
}

// TestConflictTableReusesRegistry: the federation validates its registry
// once, so a second derivation on an unchanged federation allocates less
// than the first, and a subsystem added after a derivation is seen by
// the next one.
func TestConflictTableReusesRegistry(t *testing.T) {
	fed := generatedFederation(t)
	var before, after gort.MemStats
	derive := func() *conflict.Table {
		gort.ReadMemStats(&before)
		table, err := fed.ConflictTable()
		gort.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return table
	}
	derive()
	first := after.Mallocs - before.Mallocs
	derive()
	if again := after.Mallocs - before.Mallocs; again >= first {
		t.Errorf("second derivation allocates %d times, the first %d: the registry was built again", again, first)
	}

	late := subsystem.New("late", 1)
	late.MustRegister(activity.Spec{Name: "lateW", Kind: activity.Pivot, Subsystem: "late", WriteSet: []string{"x"}})
	late.MustRegister(activity.Spec{Name: "lateR", Kind: activity.Pivot, Subsystem: "late", ReadSet: []string{"x"}})
	fed.MustAdd(late)
	if !derive().Conflicts("lateW", "lateR") {
		t.Error("a subsystem added after a derivation is missing from the next one")
	}
}
