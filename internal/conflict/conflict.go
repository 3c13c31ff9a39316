// Package conflict implements the commutativity-based conflict relation of
// Definition 6 of the paper, with the perfect-commutativity assumption of
// Section 3.2: if two activities conflict, then so do all combinations of
// the activities and their compensating activities; if they commute, all
// combinations commute.
//
// The formal definition of commutativity quantifies over return values in
// all contexts, which is not decidable from the outside; as in the WISE
// system, the relation is therefore *declared*: either directly via
// AddConflict, or derived from declared read/write sets of services.
package conflict

import (
	"fmt"
	"sort"
	"sync"

	"transproc/internal/activity"
)

// Table is a symmetric conflict relation over services. Conflicts are
// stored on *base* service names: a compensating activity a⁻¹ is mapped to
// its base activity a before lookup, which realizes perfect commutativity
// by construction. Table is safe for concurrent use.
type Table struct {
	mu sync.RWMutex
	// base resolves a service name to its base name (identity for
	// non-compensation services).
	base map[string]string
	// pairs holds unordered conflicting base-name pairs, keyed as
	// canonical "a\x00b" with a <= b.
	pairs map[[2]string]bool
	// selfConflict marks base services that conflict with themselves
	// (two invocations of the same service by different processes).
	selfConflict map[string]bool
}

// NewTable returns an empty conflict table.
func NewTable() *Table {
	return &Table{
		base:         make(map[string]string),
		pairs:        make(map[[2]string]bool),
		selfConflict: make(map[string]bool),
	}
}

// FromRegistry returns a table whose base-name mapping is initialized from
// the registry (compensations map to their compensatable owners) and whose
// conflicts are derived from declared read/write sets: two distinct
// services conflict if one writes a data item the other reads or writes.
// A service conflicts with itself if it writes any item, unless it is
// declared Commutative and reads none of the items it writes: a service
// that returns an item it also updates sees the order of two invocations,
// so it does not commute by Definition 6 (and the subsystems' item locks,
// derived from the same declaration, block the pair).
func FromRegistry(reg *activity.Registry) *Table {
	t := NewTable()
	names := reg.Names()
	sort.Strings(names)
	for _, n := range names {
		t.base[n] = reg.BaseOf(n)
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
			e.r[item] = true
		}
		for _, item := range spec.WriteSet {
			e.w[item] = true
		}
		sets[n] = e
	}
	bases := make([]string, 0, len(sets))
	for b := range sets {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for i, a := range bases {
		if spec, _ := reg.Lookup(a); len(sets[a].w) > 0 && (spec == nil || !spec.Commutative || readsOwnWrite(sets[a].r, sets[a].w)) {
			t.selfConflict[a] = true
		}
		for _, b := range bases[i+1:] {
			if rwConflict(sets[a].r, sets[a].w, sets[b].r, sets[b].w) {
				t.addPairLocked(a, b)
			}
		}
	}
	return t
}

func readsOwnWrite(r, w map[string]bool) bool {
	for item := range w {
		if r[item] {
			return true
		}
	}
	return false
}

func rwConflict(ra, wa, rb, wb map[string]bool) bool {
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

// MapBase declares that service name has the given base name. It is used
// to teach the table about compensating services created outside a
// registry. Mapping a name to itself is allowed and is the default.
func (t *Table) MapBase(name, base string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.base[name] = base
}

// AddConflict declares that services a and b do not commute. Adding a
// conflict between a service and itself marks it self-conflicting. The
// names are resolved to base names first, so declaring a conflict with a
// compensating activity is equivalent to declaring it with its base.
func (t *Table) AddConflict(a, b string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, b = t.resolveLocked(a), t.resolveLocked(b)
	if a == b {
		t.selfConflict[a] = true
		return
	}
	t.addPairLocked(a, b)
}

func (t *Table) addPairLocked(a, b string) {
	if a > b {
		a, b = b, a
	}
	t.pairs[[2]string{a, b}] = true
}

func (t *Table) resolveLocked(name string) string {
	if b, ok := t.base[name]; ok && b != "" {
		return b
	}
	return name
}

// Base returns the base name the table uses for a service.
func (t *Table) Base(name string) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.resolveLocked(name)
}

// Conflicts reports whether the two services do not commute. By perfect
// commutativity the answer is invariant under replacing either argument
// with its compensating activity.
func (t *Table) Conflicts(a, b string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	a, b = t.resolveLocked(a), t.resolveLocked(b)
	if a == b {
		return t.selfConflict[a]
	}
	if a > b {
		a, b = b, a
	}
	return t.pairs[[2]string{a, b}]
}

// Commute is the complement of Conflicts (Definition 6).
func (t *Table) Commute(a, b string) bool { return !t.Conflicts(a, b) }

// ConflictingWith returns the sorted base names of all services in
// universe that conflict with the given service.
func (t *Table) ConflictingWith(name string, universe []string) []string {
	var out []string
	for _, u := range universe {
		if t.Conflicts(name, u) {
			out = append(out, t.Base(u))
		}
	}
	sort.Strings(out)
	return dedupSorted(out)
}

// Pairs returns the declared conflicting base pairs in canonical sorted
// order, including self-conflicts as (a, a). It is intended for display
// and testing.
func (t *Table) Pairs() [][2]string {
	t.mu.RLock()
	defer t.mu.RUnlock()
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

// Clone returns an independent copy of the table.
func (t *Table) Clone() *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := NewTable()
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

// String renders the conflict pairs, e.g. "{a~b, c~c}".
func (t *Table) String() string {
	pairs := t.Pairs()
	s := "{"
	for i, p := range pairs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s~%s", p[0], p[1])
	}
	return s + "}"
}

func dedupSorted(in []string) []string {
	if len(in) == 0 {
		return in
	}
	out := in[:1]
	for _, s := range in[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}
