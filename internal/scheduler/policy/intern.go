package policy

import "transproc/internal/conflict"

// universe interns service names into dense integer ids and memoizes
// the conflict relation as per-service bitsets, so the hot decision
// paths (survivor index, conflict-predecessor scans, the Lemma gates)
// test conflicts with an index and a word-AND instead of hashing a pair
// of strings into a map.
//
// An id stands for a base name: a compensation (or any name the table
// maps to a base) shares the id of its base, with which it conflicts
// alike. The table's conflicting base names are interned at
// construction, so the masks are exact and final from then on: a name
// seen later is an alias or conflicts with nothing. Seeing one still
// writes the name table, so a universe belongs to the one State that
// is driven from one goroutine at a time.
type universe struct {
	table *conflict.Table
	ids   map[string]int
	names []string
	// masks[i] is the bitset of service ids conflicting with i (bit i
	// itself is set for self-conflicting services).
	masks [][]uint64
}

// newUniverse builds the universe of a conflict table. The conflict
// relation is resolved eagerly through the table, including base-name
// mapping of compensations.
func newUniverse(table *conflict.Table) *universe {
	u := &universe{table: table, ids: make(map[string]int)}
	for _, p := range table.Pairs() {
		u.intern(p[0])
		u.intern(p[1])
	}
	return u
}

// intern assigns (or returns) the id of a service name.
func (u *universe) intern(name string) int {
	if id, ok := u.ids[name]; ok {
		return id
	}
	if base := u.table.Base(name); base != name {
		id := u.intern(base)
		u.ids[name] = id
		return id
	}
	id := len(u.names)
	u.ids[name] = id
	u.names = append(u.names, name)
	words := (id + 1 + 63) / 64
	row := make([]uint64, words)
	for other, otherID := range u.ids {
		if !u.table.Conflicts(name, other) {
			continue
		}
		row[otherID/64] |= 1 << (uint(otherID) % 64)
		if otherID != id {
			m := u.masks[otherID]
			for len(m)*64 <= id {
				m = append(m, 0)
			}
			m[id/64] |= 1 << (uint(id) % 64)
			u.masks[otherID] = m
		}
	}
	u.masks = append(u.masks, row)
	return id
}

// Conflicts reports whether two services conflict, by interned lookup
// when both names are known and through the table otherwise.
func (u *universe) Conflicts(a, b string) bool {
	ia, oka := u.ids[a]
	ib, okb := u.ids[b]
	if oka && okb {
		return u.conflictsID(ia, ib)
	}
	return u.table.Conflicts(a, b)
}

// conflictsID tests the memoized relation on interned ids.
func (u *universe) conflictsID(a, b int) bool { return testBit(u.masks[a], b) }

// mask returns the conflict bitset of a service id; callers must not
// mutate it.
func (u *universe) mask(id int) []uint64 { return u.masks[id] }

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
