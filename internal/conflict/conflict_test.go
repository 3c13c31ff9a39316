package conflict

import (
	"math/rand"
	"testing"
	"testing/quick"

	"transproc/internal/activity"
)

func TestAddConflictSymmetric(t *testing.T) {
	t.Parallel()
	tab := NewTable()
	tab.AddConflict("a", "b")
	if !tab.Conflicts("a", "b") || !tab.Conflicts("b", "a") {
		t.Fatal("conflict relation must be symmetric")
	}
	if tab.Conflicts("a", "c") {
		t.Fatal("undeclared pair must commute")
	}
	if !tab.Commute("a", "c") {
		t.Fatal("Commute must be the complement of Conflicts")
	}
}

func TestSelfConflict(t *testing.T) {
	t.Parallel()
	tab := NewTable()
	if tab.Conflicts("w", "w") {
		t.Fatal("services commute with themselves by default")
	}
	tab.AddConflict("w", "w")
	if !tab.Conflicts("w", "w") {
		t.Fatal("declared self-conflict not honoured")
	}
}

func TestPerfectCommutativityViaBase(t *testing.T) {
	t.Parallel()
	tab := NewTable()
	tab.MapBase("a⁻¹", "a")
	tab.MapBase("b⁻¹", "b")
	tab.AddConflict("a", "b")
	// Section 3.2: if a and b conflict, then all combinations with the
	// compensating activities conflict too.
	combos := [][2]string{
		{"a", "b"}, {"a⁻¹", "b"}, {"a", "b⁻¹"}, {"a⁻¹", "b⁻¹"},
	}
	for _, c := range combos {
		if !tab.Conflicts(c[0], c[1]) {
			t.Errorf("perfect commutativity violated: %s vs %s should conflict", c[0], c[1])
		}
	}
}

func TestPerfectCommutativityCommutingSide(t *testing.T) {
	t.Parallel()
	tab := NewTable()
	tab.MapBase("a⁻¹", "a")
	tab.MapBase("c⁻¹", "c")
	tab.AddConflict("a", "b")
	for _, pair := range [][2]string{{"a", "c"}, {"a⁻¹", "c"}, {"a", "c⁻¹"}, {"a⁻¹", "c⁻¹"}} {
		if tab.Conflicts(pair[0], pair[1]) {
			t.Errorf("commuting pair %v reported as conflicting", pair)
		}
	}
}

func TestAddConflictOnInverseName(t *testing.T) {
	t.Parallel()
	tab := NewTable()
	tab.MapBase("a⁻¹", "a")
	tab.AddConflict("a⁻¹", "b") // declared on the inverse
	if !tab.Conflicts("a", "b") {
		t.Fatal("conflict declared via inverse must reach the base")
	}
}

func TestBase(t *testing.T) {
	t.Parallel()
	tab := NewTable()
	tab.MapBase("undo", "do")
	if tab.Base("undo") != "do" || tab.Base("do") != "do" || tab.Base("x") != "x" {
		t.Fatal("Base resolution wrong")
	}
}

func TestPairsAndString(t *testing.T) {
	t.Parallel()
	tab := NewTable()
	tab.AddConflict("b", "a")
	tab.AddConflict("c", "c")
	pairs := tab.Pairs()
	if len(pairs) != 2 {
		t.Fatalf("Pairs = %v", pairs)
	}
	if pairs[0] != [2]string{"a", "b"} || pairs[1] != [2]string{"c", "c"} {
		t.Fatalf("Pairs order = %v", pairs)
	}
	if got := tab.String(); got != "{a~b, c~c}" {
		t.Fatalf("String = %q", got)
	}
}

func TestClone(t *testing.T) {
	t.Parallel()
	tab := NewTable()
	tab.MapBase("u", "a")
	tab.AddConflict("a", "b")
	cp := tab.Clone()
	cp.AddConflict("x", "y")
	if tab.Conflicts("x", "y") {
		t.Fatal("clone is not independent")
	}
	if !cp.Conflicts("u", "b") {
		t.Fatal("clone lost base mapping")
	}
}

func TestFromRegistryDerivedConflicts(t *testing.T) {
	t.Parallel()
	reg := activity.NewRegistry()
	reg.MustRegister(activity.Spec{
		Name: "writeX", Kind: activity.Compensatable, Subsystem: "s",
		Compensation: "unwriteX", WriteSet: []string{"x"},
	})
	reg.MustRegister(activity.Spec{Name: "unwriteX", Kind: activity.Compensation, Subsystem: "s"})
	reg.MustRegister(activity.Spec{Name: "readX", Kind: activity.Retriable, Subsystem: "s", ReadSet: []string{"x"}})
	reg.MustRegister(activity.Spec{Name: "readY", Kind: activity.Retriable, Subsystem: "s", ReadSet: []string{"y"}})
	reg.MustRegister(activity.Spec{Name: "writeY", Kind: activity.Pivot, Subsystem: "s", WriteSet: []string{"y"}})

	tab := FromRegistry(reg)
	if !tab.Conflicts("writeX", "readX") {
		t.Error("write/read on same item must conflict")
	}
	if tab.Conflicts("writeX", "readY") {
		t.Error("disjoint items must commute")
	}
	if !tab.Conflicts("writeY", "readY") {
		t.Error("writeY/readY must conflict")
	}
	if !tab.Conflicts("readX", "unwriteX") {
		t.Error("perfect commutativity: the compensation of writeX conflicts with readX")
	}
	if tab.Conflicts("readX", "readX") {
		t.Error("pure readers must not self-conflict")
	}
	if !tab.Conflicts("writeX", "writeX") {
		t.Error("writers self-conflict")
	}
}

func TestFromRegistryReadersCommute(t *testing.T) {
	t.Parallel()
	reg := activity.NewRegistry()
	reg.MustRegister(activity.Spec{Name: "r1", Kind: activity.Retriable, Subsystem: "s", ReadSet: []string{"x"}})
	reg.MustRegister(activity.Spec{Name: "r2", Kind: activity.Retriable, Subsystem: "s", ReadSet: []string{"x"}})
	tab := FromRegistry(reg)
	if tab.Conflicts("r1", "r2") {
		t.Fatal("two readers of the same item commute")
	}
}

// Property: Conflicts is symmetric and invariant under base substitution
// for random tables.
func TestConflictProperties(t *testing.T) {
	t.Parallel()
	names := []string{"a", "b", "c", "d", "e"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable()
		for _, n := range names {
			tab.MapBase(n+"⁻¹", n)
		}
		for i := 0; i < 5; i++ {
			x := names[rng.Intn(len(names))]
			y := names[rng.Intn(len(names))]
			tab.AddConflict(x, y)
		}
		for _, x := range names {
			for _, y := range names {
				if tab.Conflicts(x, y) != tab.Conflicts(y, x) {
					return false
				}
				if tab.Conflicts(x, y) != tab.Conflicts(x+"⁻¹", y+"⁻¹") {
					return false
				}
				if tab.Conflicts(x, y) != tab.Conflicts(x+"⁻¹", y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCommutativeServicesDoNotSelfConflict(t *testing.T) {
	t.Parallel()
	reg := activity.NewRegistry()
	reg.MustRegister(activity.Spec{
		Name: "incr", Kind: activity.Retriable, Subsystem: "s",
		WriteSet: []string{"counter"}, Commutative: true,
	})
	reg.MustRegister(activity.Spec{
		Name: "set", Kind: activity.Retriable, Subsystem: "s",
		WriteSet: []string{"counter"},
	})
	// fetchAdd returns the counter it increments: the value each of two
	// invocations sees depends on their order, whatever the declaration.
	reg.MustRegister(activity.Spec{
		Name: "fetchAdd", Kind: activity.Compensatable, Subsystem: "s", Compensation: "fetchSub",
		ReadSet: []string{"tally"}, WriteSet: []string{"tally"}, Commutative: true,
	})
	reg.MustRegister(activity.Spec{Name: "fetchSub", Kind: activity.Compensation, Subsystem: "s"})
	tab := FromRegistry(reg)
	if !tab.Conflicts("fetchAdd", "fetchAdd") || !tab.Conflicts("fetchAdd", "fetchSub") {
		t.Fatal("a commutative service that reads an item it writes conflicts with itself and its compensation")
	}
	if tab.Conflicts("incr", "incr") {
		t.Fatal("commutative writers must not self-conflict (increments commute)")
	}
	if !tab.Conflicts("set", "set") {
		t.Fatal("non-commutative writers self-conflict")
	}
	if !tab.Conflicts("incr", "set") {
		t.Fatal("distinct services on the same item still conflict")
	}
}

func TestFromRegistryKeysItemsBySubsystem(t *testing.T) {
	t.Parallel()
	reg := activity.NewRegistry()
	// Both subsystems declare an item x; they are two items.
	reg.MustRegister(activity.Spec{Name: "s1.write", Kind: activity.Retriable, Subsystem: "s1", WriteSet: []string{"x"}})
	reg.MustRegister(activity.Spec{Name: "s1.read", Kind: activity.Retriable, Subsystem: "s1", ReadSet: []string{"x"}})
	reg.MustRegister(activity.Spec{Name: "s2.write", Kind: activity.Retriable, Subsystem: "s2", WriteSet: []string{"x"}})
	reg.MustRegister(activity.Spec{Name: "s2.read", Kind: activity.Retriable, Subsystem: "s2", ReadSet: []string{"x"}})
	tab := FromRegistry(reg)
	for _, p := range [][2]string{{"s1.write", "s2.write"}, {"s1.write", "s2.read"}, {"s2.write", "s1.read"}} {
		if tab.Conflicts(p[0], p[1]) {
			t.Errorf("%s and %s touch x on different subsystems, yet conflict", p[0], p[1])
		}
	}
	for _, p := range [][2]string{{"s1.write", "s1.read"}, {"s2.write", "s2.read"}, {"s1.write", "s1.write"}} {
		if !tab.Conflicts(p[0], p[1]) {
			t.Errorf("%s and %s share x on one subsystem, yet commute", p[0], p[1])
		}
	}
	if got := tab.String(); got != "{s1.read~s1.write, s1.write~s1.write, s2.read~s2.write, s2.write~s2.write}" {
		t.Errorf("String = %s", got)
	}
}

// A relation taken from a table keeps its answers, and may be read
// without locks, while the table and its clones change.
func TestRelationUnchangedByLaterChanges(t *testing.T) {
	t.Parallel()
	tab := NewTable()
	tab.MapBase("a⁻¹", "a")
	tab.AddConflict("a", "b")
	rel := tab.Relation()
	cp := tab.Clone()
	done := make(chan bool)
	go func() {
		ok := true
		for i := 0; i < 1000; i++ {
			ok = ok && rel.Conflicts("a⁻¹", "b") && !rel.Conflicts("a", "c")
		}
		done <- ok
	}()
	for i := 0; i < 100; i++ {
		tab.AddConflict("a", "c")
		cp.MapBase("a⁻¹", "c")
		tab.MapBase(string(rune('d'+i%20)), "a")
	}
	if !<-done {
		t.Fatal("a relation changed after the table it was taken from did")
	}
	if !tab.Conflicts("a", "c") || cp.Conflicts("a⁻¹", "b") || !cp.Conflicts("a", "b") {
		t.Fatalf("table %s or clone %s lost a change", tab, cp)
	}
}
