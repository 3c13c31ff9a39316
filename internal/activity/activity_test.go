package activity

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	t.Parallel()
	cases := []struct {
		k    Kind
		want string
	}{
		{Compensatable, "c"},
		{Pivot, "p"},
		{Retriable, "r"},
		{Compensation, "-1"},
		{Kind(42), "Kind(42)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(c.k), got, c.want)
		}
	}
}

func TestKindValid(t *testing.T) {
	t.Parallel()
	for _, k := range []Kind{Compensatable, Pivot, Retriable, Compensation} {
		if !k.Valid() {
			t.Errorf("kind %v should be valid", k)
		}
	}
	if Kind(-1).Valid() || Kind(4).Valid() {
		t.Error("out-of-range kinds must be invalid")
	}
}

func TestKindNonCompensatable(t *testing.T) {
	t.Parallel()
	if Compensatable.NonCompensatable() {
		t.Error("compensatable activities are compensatable")
	}
	for _, k := range []Kind{Pivot, Retriable, Compensation} {
		if !k.NonCompensatable() {
			t.Errorf("%v must be non-compensatable (flex transaction model)", k)
		}
	}
}

func TestKindGuaranteedToCommit(t *testing.T) {
	t.Parallel()
	if Compensatable.GuaranteedToCommit() || Pivot.GuaranteedToCommit() {
		t.Error("compensatable and pivot activities can fail (Definition 4)")
	}
	if !Retriable.GuaranteedToCommit() {
		t.Error("retriable activities are guaranteed to commit (Definition 3)")
	}
	if !Compensation.GuaranteedToCommit() {
		t.Error("compensating activities are retriable and guaranteed to commit")
	}
}

func validSpec() Spec {
	return Spec{Name: "book", Kind: Compensatable, Subsystem: "hotel", Compensation: "cancel"}
}

func TestSpecValidateOK(t *testing.T) {
	t.Parallel()
	s := validSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestSpecValidateErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"empty name", func(s *Spec) { s.Name = "" }, "empty name"},
		{"invalid kind", func(s *Spec) { s.Kind = Kind(9) }, "invalid kind"},
		{"empty subsystem", func(s *Spec) { s.Subsystem = "" }, "empty subsystem"},
		{"missing compensation", func(s *Spec) { s.Compensation = "" }, "lacks a compensation"},
		{"pivot with compensation", func(s *Spec) { s.Kind = Pivot }, "must not declare"},
		{"retriable with compensation", func(s *Spec) { s.Kind = Retriable }, "must not declare"},
		{"self compensation", func(s *Spec) { s.Compensation = s.Name }, "compensates itself"},
		{"bad failure prob low", func(s *Spec) { s.FailureProb = -0.1 }, "failure probability"},
		{"bad failure prob high", func(s *Spec) { s.FailureProb = 1.0 }, "failure probability"},
		{"negative cost", func(s *Spec) { s.Cost = -1 }, "negative cost"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validSpec()
			c.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestOutcomeString(t *testing.T) {
	t.Parallel()
	if Committed.String() != "committed" || Aborted.String() != "aborted" || Prepared.String() != "prepared" {
		t.Error("outcome labels wrong")
	}
	if got := Outcome(7).String(); got != "Outcome(7)" {
		t.Errorf("unknown outcome = %q", got)
	}
}

func TestInvocationString(t *testing.T) {
	t.Parallel()
	inv := Invocation{Service: "pay", Attempt: 3, Outcome: Aborted}
	if got := inv.String(); got != "pay(3)=aborted" {
		t.Errorf("invocation string = %q", got)
	}
}

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.MustRegister(Spec{Name: "book", Kind: Compensatable, Subsystem: "hotel", Compensation: "cancel"})
	r.MustRegister(Spec{Name: "cancel", Kind: Compensation, Subsystem: "hotel"})
	r.MustRegister(Spec{Name: "pay", Kind: Pivot, Subsystem: "bank"})
	r.MustRegister(Spec{Name: "notify", Kind: Retriable, Subsystem: "mail"})
	return r
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	t.Parallel()
	r := newTestRegistry(t)
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	s, ok := r.Lookup("book")
	if !ok || s.Kind != Compensatable {
		t.Fatalf("lookup book: %+v, %v", s, ok)
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Fatal("lookup of missing service succeeded")
	}
}

func TestRegistryDuplicate(t *testing.T) {
	t.Parallel()
	r := newTestRegistry(t)
	err := r.Register(Spec{Name: "book", Kind: Retriable, Subsystem: "x"})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate registration: %v", err)
	}
}

func TestRegistryRegisterInvalid(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	if err := r.Register(Spec{}); err == nil {
		t.Fatal("registering an invalid spec must fail")
	}
}

func TestMustRegisterPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister must panic on invalid spec")
		}
	}()
	NewRegistry().MustRegister(Spec{})
}

func TestCompensationOf(t *testing.T) {
	t.Parallel()
	r := newTestRegistry(t)
	c, err := r.CompensationOf("book")
	if err != nil || c.Name != "cancel" {
		t.Fatalf("CompensationOf(book) = %v, %v", c, err)
	}
	if _, err := r.CompensationOf("pay"); err == nil {
		t.Fatal("pivot has no compensation")
	}
	if _, err := r.CompensationOf("nope"); err == nil {
		t.Fatal("unknown service has no compensation")
	}
}

func TestCompensationOfUnregisteredInverse(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.MustRegister(Spec{Name: "a", Kind: Compensatable, Subsystem: "s", Compensation: "undo-a"})
	if _, err := r.CompensationOf("a"); err == nil {
		t.Fatal("missing inverse must be reported")
	}
}

func TestCompensationOfWrongKind(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.MustRegister(Spec{Name: "a", Kind: Compensatable, Subsystem: "s", Compensation: "b"})
	r.MustRegister(Spec{Name: "b", Kind: Retriable, Subsystem: "s"})
	if _, err := r.CompensationOf("a"); err == nil {
		t.Fatal("inverse with wrong kind must be reported")
	}
}

func TestRegistryValidateOK(t *testing.T) {
	t.Parallel()
	if err := newTestRegistry(t).Validate(); err != nil {
		t.Fatalf("valid registry rejected: %v", err)
	}
}

func TestRegistryValidateCrossSubsystem(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.MustRegister(Spec{Name: "a", Kind: Compensatable, Subsystem: "s1", Compensation: "undo"})
	r.MustRegister(Spec{Name: "undo", Kind: Compensation, Subsystem: "s2"})
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "subsystem") {
		t.Fatalf("cross-subsystem compensation not rejected: %v", err)
	}
}

func TestRegistryValidateSharedInverse(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.MustRegister(Spec{Name: "a", Kind: Compensatable, Subsystem: "s", Compensation: "undo"})
	r.MustRegister(Spec{Name: "b", Kind: Compensatable, Subsystem: "s", Compensation: "undo"})
	r.MustRegister(Spec{Name: "undo", Kind: Compensation, Subsystem: "s"})
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "compensation of both") {
		t.Fatalf("shared inverse not rejected: %v", err)
	}
}

func TestRegistryValidateOrphanCompensation(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.MustRegister(Spec{Name: "undo", Kind: Compensation, Subsystem: "s"})
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "not the inverse") {
		t.Fatalf("orphan compensation not rejected: %v", err)
	}
}

func TestRegistryNames(t *testing.T) {
	t.Parallel()
	r := newTestRegistry(t)
	names := r.Names()
	if len(names) != 4 {
		t.Fatalf("Names returned %d entries, want 4", len(names))
	}
	set := make(map[string]bool)
	for _, n := range names {
		set[n] = true
	}
	for _, want := range []string{"book", "cancel", "pay", "notify"} {
		if !set[want] {
			t.Errorf("Names missing %q", want)
		}
	}
}

// Property: a registered spec is always returned unchanged by Lookup
// (the registry stores a copy, so mutating the input later is harmless).
func TestRegistryCopiesSpec(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	s := Spec{Name: "a", Kind: Retriable, Subsystem: "s", Cost: 7}
	if err := r.Register(s); err != nil {
		t.Fatal(err)
	}
	s.Cost = 99
	got, _ := r.Lookup("a")
	if got.Cost != 7 {
		t.Fatalf("registry did not copy the spec: cost %d", got.Cost)
	}
}

// Property-based: Kind.String is injective over the valid kinds and
// NonCompensatable is the complement of being Compensatable.
func TestKindProperties(t *testing.T) {
	t.Parallel()
	f := func(raw uint8) bool {
		k := Kind(raw % 4)
		return k.NonCompensatable() == (k != Compensatable)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
