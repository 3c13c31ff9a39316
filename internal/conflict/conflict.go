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
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"transproc/internal/activity"
)

// Table is a symmetric conflict relation over services. Conflicts are
// stored on *base* service names: a compensating activity a⁻¹ is mapped to
// its base activity a before lookup, which realizes perfect commutativity
// by construction. Table is safe for concurrent use.
//
// The relation is held once, as a Relation. Clone and Relation share it;
// a table whose relation is shared copies it before its next change.
type Table struct {
	mu     sync.RWMutex
	rel    *Relation
	shared bool
}

// Relation is the representation of a Table: dense base ids, every name
// the table knows mapped to the id of its base (a compensation shares
// its base's id), and one bit row per id, where row i has bit j set when
// i and j conflict and bit i when i conflicts with itself. A Relation
// obtained from Table.Relation never changes, so it is read without
// locks.
type Relation struct {
	// ids resolves a name one level, as MapBase declared it, to the id
	// of its base; a base that no MapBase renamed maps to its own id.
	ids map[string]int
	// names[i] is the base name of id i; no two ids share a name.
	names []string
	rows  [][]uint64
}

// NewTable returns an empty conflict table.
func NewTable() *Table {
	return &Table{rel: &Relation{ids: make(map[string]int)}}
}

// FromRegistry returns a table whose base-name mapping is initialized from
// the registry (compensations map to their compensatable owners) and whose
// conflicts are derived from declared read/write sets: two distinct
// services conflict if one writes a data item the other reads or writes.
// Items are keyed by (subsystem, item): one name declared on two
// subsystems is two items, as it is to the subsystems' item locks.
// A service conflicts with itself if it writes any item, unless it is
// declared Commutative and reads none of the items it writes: a service
// that returns an item it also updates sees the order of two invocations,
// so it does not commute by Definition 6 (and the subsystems' item locks,
// derived from the same declaration, block the pair).
//
// The derivation is one pass over an item index — the base services'
// accesses sorted by (subsystem, item) — that pairs up the accessors of
// each item: O(Σ accessors² per item), with no per-service sets.
func FromRegistry(reg *activity.Registry) *Table {
	names := reg.Names()
	sort.Strings(names)
	specs := make([]*activity.Spec, len(names))
	for i, n := range names {
		specs[i], _ = reg.Lookup(n)
	}
	// A compensation with an owner is no base: mark it, number the
	// bases in name order, then give each marked compensation its
	// owner's id.
	r := &Relation{ids: make(map[string]int, len(names)), names: make([]string, 0, len(names))}
	for _, s := range specs {
		if c, ok := ownedCompensation(reg, s); ok {
			if _, dup := r.ids[c]; !dup {
				r.ids[c] = -1
			}
		}
	}
	bases := make([]*activity.Spec, 0, len(names))
	for _, s := range specs {
		if _, owned := r.ids[s.Name]; !owned {
			r.ids[s.Name] = len(r.names)
			r.names = append(r.names, s.Name)
			bases = append(bases, s)
		}
	}
	for _, s := range specs {
		if c, ok := ownedCompensation(reg, s); ok && r.ids[c] < 0 {
			r.ids[c] = r.ids[s.Name]
		}
	}

	// The item index: every access of a base to an item, sorted so
	// that the accesses to one (subsystem, item) are adjacent.
	type access struct {
		sub, item string
		id        int
		write     bool
	}
	accs := make([]access, 0, 2*len(bases))
	for id, s := range bases {
		for _, it := range s.ReadSet {
			accs = append(accs, access{s.Subsystem, it, id, false})
		}
		for _, it := range s.WriteSet {
			accs = append(accs, access{s.Subsystem, it, id, true})
		}
	}
	slices.SortFunc(accs, func(a, b access) int {
		if c := strings.Compare(a.sub, b.sub); c != 0 {
			return c
		}
		return strings.Compare(a.item, b.item)
	})

	n := len(bases)
	words := (n + 63) / 64
	flat := make([]uint64, n*words)
	r.rows = make([][]uint64, n)
	for i := range r.rows {
		// Empty, with room for every id: a row grows to its last set
		// word, so a service that conflicts with nothing has none.
		r.rows[i] = flat[i*words : i*words : (i+1)*words]
	}
	readsOwnWrite := make([]bool, n)
	for lo := 0; lo < len(accs); {
		hi := lo + 1
		for hi < len(accs) && accs[hi].sub == accs[lo].sub && accs[hi].item == accs[lo].item {
			hi++
		}
		group := accs[lo:hi]
		lo = hi
		for i, a := range group {
			for _, b := range group[i+1:] {
				switch {
				case !a.write && !b.write:
				case a.id == b.id:
					readsOwnWrite[a.id] = readsOwnWrite[a.id] || a.write != b.write
				default:
					r.rows[a.id] = setBit(r.rows[a.id], b.id)
					r.rows[b.id] = setBit(r.rows[b.id], a.id)
				}
			}
		}
	}
	for id, s := range bases {
		if len(s.WriteSet) > 0 && (!s.Commutative || readsOwnWrite[id]) {
			r.rows[id] = setBit(r.rows[id], id)
		}
	}
	return &Table{rel: r}
}

// ownedCompensation names the compensation a compensatable spec declares
// as its inverse, when that is a registered Compensation-kind service.
func ownedCompensation(reg *activity.Registry, s *activity.Spec) (string, bool) {
	if s.Kind != activity.Compensatable {
		return "", false
	}
	c, ok := reg.Lookup(s.Compensation)
	return s.Compensation, ok && c.Kind == activity.Compensation
}

// writable returns the relation for a change, copying it first when a
// clone or a Relation caller shares it. Callers hold t.mu.
func (t *Table) writable() *Relation {
	if t.shared {
		t.rel = t.rel.clone()
		t.shared = false
	}
	return t.rel
}

// clone copies the relation, its rows into one backing array.
func (r *Relation) clone() *Relation {
	c := &Relation{
		ids:   make(map[string]int, len(r.ids)),
		names: append([]string(nil), r.names...),
		rows:  make([][]uint64, len(r.rows)),
	}
	for k, v := range r.ids {
		c.ids[k] = v
	}
	total := 0
	for _, row := range r.rows {
		total += len(row)
	}
	flat := make([]uint64, 0, total)
	for i, row := range r.rows {
		off := len(flat)
		flat = append(flat, row...)
		c.rows[i] = flat[off:len(flat):len(flat)]
	}
	return c
}

// node returns the id whose base name is s, adding one with an empty row
// if there is none.
func (r *Relation) node(s string) int {
	id, known := r.ids[s]
	if known && r.names[id] == s {
		return id
	}
	if known { // s was renamed by MapBase; it may still be a base
		for i, n := range r.names {
			if n == s {
				return i
			}
		}
	}
	id = len(r.names)
	r.names = append(r.names, s)
	r.rows = append(r.rows, nil)
	if !known {
		r.ids[s] = id
	}
	return id
}

// MapBase declares that service name has the given base name. It is used
// to teach the table about compensating services created outside a
// registry. Mapping a name to itself is allowed and is the default.
func (t *Table) MapBase(name, base string) {
	if base == "" {
		base = name
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.rel.ids[name]; ok && t.rel.names[id] == base {
		return // already so: a shared relation stays shared
	}
	r := t.writable()
	r.ids[name] = r.node(base)
}

// AddConflict declares that services a and b do not commute. Adding a
// conflict between a service and itself marks it self-conflicting. The
// names are resolved to base names first, so declaring a conflict with a
// compensating activity is equivalent to declaring it with its base.
func (t *Table) AddConflict(a, b string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.writable()
	ia, ib := r.resolveOrAdd(a), r.resolveOrAdd(b)
	r.rows[ia] = setBit(r.rows[ia], ib)
	r.rows[ib] = setBit(r.rows[ib], ia)
}

// resolveOrAdd returns the id of name's base, making name a base of its
// own if the relation does not know it.
func (r *Relation) resolveOrAdd(name string) int {
	if id, ok := r.ids[name]; ok {
		return id
	}
	return r.node(name)
}

// Base returns the base name the table uses for a service.
func (t *Table) Base(name string) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id, ok := t.rel.ids[name]; ok {
		return t.rel.names[id]
	}
	return name
}

// Conflicts reports whether the two services do not commute. By perfect
// commutativity the answer is invariant under replacing either argument
// with its compensating activity.
func (t *Table) Conflicts(a, b string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rel.Conflicts(a, b)
}

// Commute is the complement of Conflicts (Definition 6).
func (t *Table) Commute(a, b string) bool { return !t.Conflicts(a, b) }

// Relation returns the table's relation as it stands; later changes to
// the table do not reach it.
func (t *Table) Relation() *Relation {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shared = true
	return t.rel
}

// Pairs returns the declared conflicting base pairs in canonical sorted
// order, including self-conflicts as (a, a). It is intended for display
// and testing.
func (t *Table) Pairs() [][2]string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r := t.rel
	out := [][2]string{}
	for i, row := range r.rows {
		for w, word := range row {
			for ; word != 0; word &= word - 1 {
				j := w<<6 + bits.TrailingZeros64(word)
				if a, b := r.names[i], r.names[j]; a <= b {
					out = append(out, [2]string{a, b})
				}
			}
		}
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
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shared = true
	return &Table{rel: t.rel, shared: true}
}

// String renders the conflict pairs, e.g. "{a~b, c~c}".
func (t *Table) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range t.Pairs() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p[0])
		b.WriteByte('~')
		b.WriteString(p[1])
	}
	b.WriteByte('}')
	return b.String()
}

// Len returns the number of base ids; ids run from 0 to Len()-1.
func (r *Relation) Len() int { return len(r.names) }

// ID returns the id of a name's base, if the relation knows the name.
func (r *Relation) ID(name string) (int, bool) {
	id, ok := r.ids[name]
	return id, ok
}

// Row returns the bitset of the ids that conflict with id; it is empty
// past Len. Callers must not modify it.
func (r *Relation) Row(id int) []uint64 {
	if id < len(r.rows) {
		return r.rows[id]
	}
	return nil
}

// Conflicts reports whether the two services do not commute; a name the
// relation does not know commutes with everything.
func (r *Relation) Conflicts(a, b string) bool {
	ia, oka := r.ids[a]
	ib, okb := r.ids[b]
	if !oka || !okb {
		return false
	}
	row := r.rows[ia]
	return ib>>6 < len(row) && row[ib>>6]&(1<<(uint(ib)&63)) != 0
}

// setBit grows the bitset as needed and sets bit id.
func setBit(s []uint64, id int) []uint64 {
	for len(s)<<6 <= id {
		s = append(s, 0)
	}
	s[id>>6] |= 1 << (uint(id) & 63)
	return s
}
