package policy

import "transproc/internal/conflict"

// universe interns service names into dense integer ids for the hot
// decision paths (survivor index, conflict-predecessor scans, the Lemma
// gates), which test conflicts with an index and a word-AND instead of
// hashing a pair of strings into a map.
//
// The ids and bit rows are the conflict table's own (conflict.Relation):
// a compensation, or any name the table maps to a base, shares the id of
// its base. The relation is taken once at construction and does not
// change. A name the table does not know conflicts with nothing; it gets
// an id past the relation's, with an empty row. Seeing one writes extra,
// so a universe belongs to the one State that is driven from one
// goroutine at a time.
type universe struct {
	table *conflict.Table
	rel   *conflict.Relation
	extra map[string]int
}

// newUniverse builds the universe of a conflict table.
func newUniverse(table *conflict.Table) *universe {
	return &universe{table: table, rel: table.Relation()}
}

// intern assigns (or returns) the id of a service name.
func (u *universe) intern(name string) int {
	if id, ok := u.rel.ID(name); ok {
		return id
	}
	if id, ok := u.extra[name]; ok {
		return id
	}
	if u.extra == nil {
		u.extra = make(map[string]int)
	}
	id := u.rel.Len() + len(u.extra)
	u.extra[name] = id
	return id
}

// Conflicts reports whether two services conflict.
func (u *universe) Conflicts(a, b string) bool { return u.rel.Conflicts(a, b) }

// conflictsID tests the relation on interned ids.
func (u *universe) conflictsID(a, b int) bool { return testBit(u.mask(a), b) }

// mask returns the conflict bitset of a service id (empty for a name the
// table does not know); callers must not mutate it.
func (u *universe) mask(id int) []uint64 { return u.rel.Row(id) }

// anyBit reports whether the bitset has any bit set.
func anyBit(s []uint64) bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// intersects reports whether two bitsets share a set bit.
func intersects(a, b []uint64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// testBit reports whether bit id is set.
func testBit(s []uint64, id int) bool {
	w := id / 64
	return w < len(s) && s[w]&(1<<(uint(id)%64)) != 0
}

// orInto grows dst as needed and sets every bit of src in it.
func orInto(dst, src []uint64) []uint64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, w := range src {
		dst[i] |= w
	}
	return dst
}

// setBit grows the bitset as needed and sets bit id.
func setBit(s []uint64, id int) []uint64 {
	for len(s)*64 <= id {
		s = append(s, 0)
	}
	s[id/64] |= 1 << (uint(id) % 64)
	return s
}
