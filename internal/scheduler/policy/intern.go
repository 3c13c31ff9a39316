package policy

import (
	"sort"

	"transproc/internal/conflict"
)

// Universe interns service names into dense integer ids and memoizes
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
// writes the name table: a universe shared across goroutines — the
// per-shard policy states of the concurrent runtime — must be built
// over every service they will see.
type Universe struct {
	table *conflict.Table
	ids   map[string]int
	names []string
	// masks[i] is the bitset of service ids conflicting with i (bit i
	// itself is set for self-conflicting services).
	masks [][]uint64
}

// NewUniverse builds the universe of a conflict table, with the given
// service names (duplicates are fine) interned ahead of use. The
// conflict relation is resolved eagerly through the table, including
// base-name mapping of compensations.
func NewUniverse(table *conflict.Table, services []string) *Universe {
	u := &Universe{table: table, ids: make(map[string]int, len(services))}
	for _, p := range table.Pairs() {
		u.intern(p[0])
		u.intern(p[1])
	}
	for _, s := range services {
		u.intern(s)
	}
	return u
}

// Table returns the conflict table the universe resolves through.
func (u *Universe) Table() *conflict.Table { return u.table }

// intern assigns (or returns) the id of a service name.
func (u *Universe) intern(name string) int {
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
func (u *Universe) Conflicts(a, b string) bool {
	ia, oka := u.ids[a]
	ib, okb := u.ids[b]
	if oka && okb {
		return u.conflictsID(ia, ib)
	}
	return u.table.Conflicts(a, b)
}

// conflictsID tests the memoized relation on interned ids.
func (u *Universe) conflictsID(a, b int) bool { return testBit(u.masks[a], b) }

// mask returns the conflict bitset of a service id; callers must not
// mutate it.
func (u *Universe) mask(id int) []uint64 { return u.masks[id] }

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

// Partition groups services into conflict shards: the connected
// components of the declared conflict relation. Two services in
// different shards never conflict, so processes whose footprints hit
// disjoint shard sets can be scheduled under disjoint locks without
// ever observing each other. Services that conflict with nothing (not
// even themselves) belong to no shard (ShardOf returns -1): they can
// never contribute a conflict edge, a forced ordering or a Lemma gate.
type Partition struct {
	shardOf map[string]int // base name -> shard id
	table   *conflict.Table
	n       int
}

// NewPartition computes the conflict shards of a table. The service
// list is only consulted for base-name resolution of names that never
// appear in a conflict pair; the components themselves derive from the
// declared pairs.
func NewPartition(table *conflict.Table) *Partition {
	pairs := table.Pairs()
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, p := range pairs {
		union(p[0], p[1])
	}
	// Deterministic shard numbering: roots sorted by name.
	rootSet := make(map[string]bool)
	for x := range parent {
		rootSet[find(x)] = true
	}
	roots := make([]string, 0, len(rootSet))
	for r := range rootSet {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	rootID := make(map[string]int, len(roots))
	for i, r := range roots {
		rootID[r] = i
	}
	shardOf := make(map[string]int, len(parent))
	for x := range parent {
		shardOf[x] = rootID[find(x)]
	}
	return &Partition{shardOf: shardOf, table: table, n: len(roots)}
}

// Shards returns the number of conflict shards.
func (p *Partition) Shards() int { return p.n }

// ShardOf returns the shard of a service (resolved to its base name),
// or -1 when the service conflicts with nothing.
func (p *Partition) ShardOf(service string) int {
	if s, ok := p.shardOf[service]; ok {
		return s
	}
	base := p.table.Base(service)
	if s, ok := p.shardOf[base]; ok {
		return s
	}
	return -1
}

// ShardSet returns the sorted, deduplicated shard ids of a service
// footprint, appending into buf (pass buf[:0] to reuse an allocation).
// Conflict-free services contribute nothing.
func (p *Partition) ShardSet(footprint []string, buf []int) []int {
	out := buf
	for _, svc := range footprint {
		s := p.ShardOf(svc)
		if s < 0 {
			continue
		}
		seen := false
		for _, have := range out {
			if have == s {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}
