package fault

import (
	"errors"
	"testing"

	"transproc/internal/wal"
)

func TestInjectorCountsAndTripsOnce(t *testing.T) {
	inj := NewInjector(Plan{CrashAtPoint: PointAfterForceLog, CrashAtCount: 3})
	if inj == nil {
		t.Fatal("armed plan returned nil injector")
	}
	// Hits at other points never count.
	inj.Point(PointBeforeForceLog)
	inj.Point(PointDispatch)
	// First two hits of the armed point pass.
	inj.Point(PointAfterForceLog)
	inj.Point(PointAfterForceLog)
	if inj.Tripped() {
		t.Fatal("tripped before the armed count")
	}
	func() {
		defer func() {
			c, ok := AsCrash(recover())
			if !ok {
				t.Fatal("third hit did not panic with the crash sentinel")
			}
			if c.Point != PointAfterForceLog {
				t.Fatalf("crash point = %q, want %q", c.Point, PointAfterForceLog)
			}
		}()
		inj.Point(PointAfterForceLog)
	}()
	if !inj.Tripped() {
		t.Fatal("Tripped() false after firing")
	}
	// Inert afterwards.
	inj.Point(PointAfterForceLog)
}

func TestInjectorNilSafe(t *testing.T) {
	var inj *Injector
	inj.Point(PointDispatch) // must not panic
	if inj.Tripped() {
		t.Fatal("nil injector reports tripped")
	}
	if NewInjector(Plan{}) != nil {
		t.Fatal("unarmed plan should yield a nil injector")
	}
}

func TestNewInjectorKillAtDispatchShorthand(t *testing.T) {
	inj := NewInjector(Plan{KillAtDispatch: 2})
	inj.Point(PointDispatch)
	func() {
		defer func() {
			if _, ok := AsCrash(recover()); !ok {
				t.Fatal("second dispatch hit did not crash")
			}
		}()
		inj.Point(PointDispatch)
	}()
}

func TestWALWrapperBudgetCrash(t *testing.T) {
	mem := wal.NewMemLog()
	w := WrapWAL(mem, 2)
	if _, err := w.Append(wal.Record{Type: wal.RecStart, Proc: "W1"}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if _, ok := AsCrash(recover()); !ok {
				t.Fatal("budget-exhausting append did not crash")
			}
		}()
		w.Append(wal.Record{Type: wal.RecStart, Proc: "W2"})
	}()
	if !w.Tripped() {
		t.Fatal("Tripped() false after the budget crash")
	}
	// The crashing append still reached the backend (the write was in
	// flight, not rejected) ...
	recs, err := mem.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("backend has %d records, want 2", len(recs))
	}
	// ... and post-crash appends are dropped.
	if _, err := w.Append(wal.Record{Type: wal.RecStart, Proc: "W3"}); err != nil {
		t.Fatal(err)
	}
	recs, _ = mem.Records()
	if len(recs) != 2 {
		t.Fatalf("post-crash append reached the backend (%d records)", len(recs))
	}
	// Release disarms: appends pass through again.
	w.Release()
	if _, err := w.Append(wal.Record{Type: wal.RecStart, Proc: "W4"}); err != nil {
		t.Fatal(err)
	}
	recs, _ = mem.Records()
	if len(recs) != 3 {
		t.Fatalf("released wrapper dropped an append (%d records)", len(recs))
	}
}

type otherCrash struct{}

func (otherCrash) InjectedCrash() string { return "other:point" }

func TestAsCrash(t *testing.T) {
	if c, ok := AsCrash(Crash{Point: "x"}); !ok || c.Point != "x" {
		t.Fatalf("AsCrash(Crash) = %v, %v", c, ok)
	}
	if c, ok := AsCrash(otherCrash{}); !ok || c.Point != "other:point" {
		t.Fatalf("AsCrash(foreign sentinel) = %v, %v", c, ok)
	}
	if _, ok := AsCrash(errors.New("boom")); ok {
		t.Fatal("AsCrash accepted a plain error")
	}
	if _, ok := AsCrash(nil); ok {
		t.Fatal("AsCrash accepted nil")
	}
}

func TestProtect(t *testing.T) {
	if err := Protect(func() error { return nil }); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	sentinel := errors.New("regular failure")
	if err := Protect(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("regular error not passed through: %v", err)
	}
	err := Protect(func() error { panic(Crash{Point: PointWALAppend}) })
	var c Crash
	if !errors.As(err, &c) || c.Point != PointWALAppend {
		t.Fatalf("crash panic not converted: %v", err)
	}
	// Non-crash panics propagate.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("foreign panic swallowed")
			}
		}()
		Protect(func() error { panic("not a crash") })
	}()
}
