package conflict

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"transproc/internal/activity"
)

// refTable is the map-based conflict table the bitset Table replaced,
// kept as the oracle of the differential tests: a one-level base map,
// unordered conflicting pairs on resolved names and a self-conflict set.
type refTable struct {
	base         map[string]string
	pairs        map[[2]string]bool
	selfConflict map[string]bool
}

func newRefTable() *refTable {
	return &refTable{
		base:         make(map[string]string),
		pairs:        make(map[[2]string]bool),
		selfConflict: make(map[string]bool),
	}
}

// refFromRegistry is the all-pairs derivation: per base service a read
// and a write set, every pair of bases probed for a shared item that one
// of them writes. Items are keyed by (subsystem, item).
func refFromRegistry(reg *activity.Registry) *refTable {
	t := newRefTable()
	names := reg.Names()
	sort.Strings(names)
	for _, n := range names {
		t.base[n] = refBaseOf(reg, n)
	}
	type rw struct {
		r, w map[string]bool
	}
	sets := make(map[string]rw, len(names))
	for _, n := range names {
		spec, _ := reg.Lookup(n)
		if t.base[n] != n {
			continue // compensations inherit the base's sets
		}
		e := rw{r: make(map[string]bool), w: make(map[string]bool)}
		for _, item := range spec.ReadSet {
			e.r[spec.Subsystem+"\x00"+item] = true
		}
		for _, item := range spec.WriteSet {
			e.w[spec.Subsystem+"\x00"+item] = true
		}
		sets[n] = e
	}
	bases := make([]string, 0, len(sets))
	for b := range sets {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for i, a := range bases {
		if spec, _ := reg.Lookup(a); len(sets[a].w) > 0 && (spec == nil || !spec.Commutative || refReadsOwnWrite(sets[a].r, sets[a].w)) {
			t.selfConflict[a] = true
		}
		for _, b := range bases[i+1:] {
			if refRWConflict(sets[a].r, sets[a].w, sets[b].r, sets[b].w) {
				t.addPair(a, b)
			}
		}
	}
	return t
}

// refBaseOf is the registry scan that named a compensation's owner: the
// compensatable service whose Compensation it is, or the name itself.
func refBaseOf(reg *activity.Registry, name string) string {
	s, ok := reg.Lookup(name)
	if !ok || s.Kind != activity.Compensation {
		return name
	}
	for _, owner := range reg.Names() {
		if os, _ := reg.Lookup(owner); os.Kind == activity.Compensatable && os.Compensation == name {
			return owner
		}
	}
	return name
}

func refReadsOwnWrite(r, w map[string]bool) bool {
	for item := range w {
		if r[item] {
			return true
		}
	}
	return false
}

func refRWConflict(ra, wa, rb, wb map[string]bool) bool {
	for item := range wa {
		if rb[item] || wb[item] {
			return true
		}
	}
	for item := range wb {
		if ra[item] {
			return true
		}
	}
	return false
}

func (t *refTable) MapBase(name, base string) { t.base[name] = base }

func (t *refTable) AddConflict(a, b string) {
	a, b = t.resolve(a), t.resolve(b)
	if a == b {
		t.selfConflict[a] = true
		return
	}
	t.addPair(a, b)
}

func (t *refTable) addPair(a, b string) {
	if a > b {
		a, b = b, a
	}
	t.pairs[[2]string{a, b}] = true
}

func (t *refTable) resolve(name string) string {
	if b, ok := t.base[name]; ok && b != "" {
		return b
	}
	return name
}

func (t *refTable) Base(name string) string { return t.resolve(name) }

func (t *refTable) Conflicts(a, b string) bool {
	a, b = t.resolve(a), t.resolve(b)
	if a == b {
		return t.selfConflict[a]
	}
	if a > b {
		a, b = b, a
	}
	return t.pairs[[2]string{a, b}]
}

func (t *refTable) Pairs() [][2]string {
	out := make([][2]string, 0, len(t.pairs)+len(t.selfConflict))
	for p := range t.pairs {
		out = append(out, p)
	}
	for s := range t.selfConflict {
		out = append(out, [2]string{s, s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func (t *refTable) Clone() *refTable {
	c := newRefTable()
	for k, v := range t.base {
		c.base[k] = v
	}
	for k, v := range t.pairs {
		c.pairs[k] = v
	}
	for k, v := range t.selfConflict {
		c.selfConflict[k] = v
	}
	return c
}

func (t *refTable) String() string {
	s := "{"
	for i, p := range t.Pairs() {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s~%s", p[0], p[1])
	}
	return s + "}"
}

// byteSource reads decisions from fuzz input; past its end every
// decision is 0.
type byteSource struct {
	data []byte
	pos  int
}

func (b *byteSource) next(n int) int {
	if b.pos >= len(b.data) {
		return 0
	}
	v := int(b.data[b.pos])
	b.pos++
	return v % n
}

// fuzzRegistry decodes a registry: up to 12 services on up to three
// subsystems over four item names that every subsystem may declare, so
// items are shared within a subsystem and names recur across them.
// Services are compensatable (with a registered compensation, a missing
// one, or a Compensation field naming some other service), pivot,
// retriable or orphan compensations; sets may be empty, repeat an item,
// or read what they write, and any service may be Commutative.
func fuzzRegistry(data []byte) *activity.Registry {
	src := &byteSource{data: data}
	items := []string{"x", "y", "z", "w"}
	set := func() []string {
		var out []string
		for n := src.next(4); n > 0; n-- {
			out = append(out, items[src.next(len(items))])
		}
		return out
	}
	reg := activity.NewRegistry()
	n := 1 + src.next(12)
	for i := 0; i < n; i++ {
		spec := activity.Spec{
			Name:        fmt.Sprintf("s%d", i),
			Subsystem:   fmt.Sprintf("sub%d", src.next(3)),
			ReadSet:     set(),
			WriteSet:    set(),
			Commutative: src.next(3) == 0,
		}
		switch src.next(5) {
		case 0, 1:
			spec.Kind = activity.Compensatable
			spec.Compensation = spec.Name + "⁻¹"
			switch src.next(6) {
			case 0: // its compensation is never registered
			case 1: // names an earlier, non-compensation service
				if i > 0 {
					if other, _ := reg.Lookup(fmt.Sprintf("s%d", src.next(i))); other.Kind != activity.Compensation {
						spec.Compensation = other.Name
					}
				}
			default:
				reg.MustRegister(activity.Spec{
					Name: spec.Compensation, Kind: activity.Compensation, Subsystem: spec.Subsystem,
					ReadSet: set(), WriteSet: set(), // ignored: a compensation has its base's conflicts
				})
			}
		case 2:
			spec.Kind = activity.Pivot
		case 3:
			spec.Kind = activity.Retriable
		case 4:
			spec.Kind = activity.Compensation // no owner: its own sets count
		}
		reg.MustRegister(spec)
	}
	return reg
}

// checkSameTable compares every observable answer of the table with the
// reference over names plus two names neither knows.
func checkSameTable(t *testing.T, got *Table, want *refTable, names []string) {
	t.Helper()
	if g, w := fmt.Sprint(got.Pairs()), fmt.Sprint(want.Pairs()); g != w {
		t.Fatalf("Pairs = %s, want %s", g, w)
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("String = %s, want %s", g, w)
	}
	all := append(append([]string(nil), names...), "unknown", "")
	for _, a := range all {
		if g, w := got.Base(a), want.Base(a); g != w {
			t.Fatalf("Base(%q) = %q, want %q", a, g, w)
		}
		for _, b := range all {
			if g, w := got.Conflicts(a, b), want.Conflicts(a, b); g != w {
				t.Fatalf("Conflicts(%q, %q) = %v, want %v (table %s)", a, b, g, w, want)
			}
		}
	}
}

func checkFromRegistry(t *testing.T, data []byte) {
	t.Helper()
	reg := fuzzRegistry(data)
	names := reg.Names()
	sort.Strings(names)
	checkSameTable(t, FromRegistry(reg), refFromRegistry(reg), names)
}

// FuzzFromRegistryMatchesPairwise holds the item-index derivation to the
// all-pairs one on decoded registries.
func FuzzFromRegistryMatchesPairwise(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 0, 1, 1, 0, 0, 0, 2, 0, 1, 1, 1, 0, 3})
	f.Add([]byte{11, 1, 2, 0, 1, 2, 1, 1, 0, 0, 2, 1, 4, 2, 3, 1, 3, 0, 2, 2, 2, 0, 0, 1, 1, 1, 0, 1, 3, 0, 2, 1, 1, 2, 3, 1, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) { checkFromRegistry(t, data) })
}

// TestFromRegistryMatchesPairwise runs the judge on random registries
// in every test run, beyond the fuzz target's seeds.
func TestFromRegistryMatchesPairwise(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(96))
		rng.Read(data)
		checkFromRegistry(t, data)
	}
}

// checkSameRelation compares a frozen relation with the reference table
// it was taken beside.
func checkSameRelation(t *testing.T, got *Relation, want *refTable, names []string) {
	t.Helper()
	for _, a := range names {
		for _, b := range names {
			if g, w := got.Conflicts(a, b), want.Conflicts(a, b); g != w {
				t.Fatalf("Relation.Conflicts(%q, %q) = %v, want %v (table %s)", a, b, g, w, want)
			}
			ia, oka := got.ID(a)
			ib, okb := got.ID(b)
			if bit := oka && okb && ib>>6 < len(got.Row(ia)) && got.Row(ia)[ib>>6]&(1<<(uint(ib)&63)) != 0; bit != want.Conflicts(a, b) {
				t.Fatalf("Row(%q) bit %q = %v, want %v", a, b, bit, !bit)
			}
		}
	}
}

// checkTableSequence decodes a sequence of AddConflict, MapBase, Clone
// and Relation calls over a few names (a compensation-like name, the
// empty name and renames of names that are already bases among them),
// applies each to a table and to the reference, and compares every
// table and every relation taken so far after each call.
func checkTableSequence(t *testing.T, data []byte) {
	t.Helper()
	names := []string{"a", "b", "c", "d", "a⁻¹", ""}
	src := &byteSource{data: data}
	tabs, refs := []*Table{NewTable()}, []*refTable{newRefTable()}
	var rels []*Relation
	var frozen []*refTable
	for src.pos < len(src.data) {
		k := src.next(len(tabs))
		x, y := names[src.next(len(names))], names[src.next(len(names))]
		switch src.next(4) {
		case 0:
			tabs[k].AddConflict(x, y)
			refs[k].AddConflict(x, y)
		case 1:
			tabs[k].MapBase(x, y)
			refs[k].MapBase(x, y)
		case 2:
			if len(tabs) < 4 {
				tabs, refs = append(tabs, tabs[k].Clone()), append(refs, refs[k].Clone())
			}
		case 3:
			rels, frozen = append(rels, tabs[k].Relation()), append(frozen, refs[k].Clone())
		}
		for i := range tabs {
			checkSameTable(t, tabs[i], refs[i], names)
		}
		for i := range rels {
			checkSameRelation(t, rels[i], frozen[i], names)
		}
	}
}

// FuzzTableMatchesReference holds the bitset table, its clones and the
// relations taken from it to the map-based table under one sequence of
// changes.
func FuzzTableMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 4, 1, 1, 0, 0, 1, 2, 0, 3, 4, 0, 1, 0, 1, 0, 3, 4, 3, 0, 4, 0, 1})
	f.Add([]byte{0, 0, 1, 0, 0, 4, 0, 1, 3, 0, 0, 0, 0, 0, 2, 1, 3, 5, 0, 1, 0, 2, 1, 0, 0, 5, 2, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) { checkTableSequence(t, data) })
}

// TestTableMatchesReference runs the sequence judge on random sequences
// in every test run.
func TestTableMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		data := make([]byte, rng.Intn(120))
		rng.Read(data)
		checkTableSequence(t, data)
	}
}
