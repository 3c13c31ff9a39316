package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// pageImage returns a sealed page holding n records derived from seed.
func pageImage(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := NewPage()
	p.SetLSN(seed)
	for i := 0; i < n; i++ {
		if _, ok := p.Insert(fmt.Sprintf("rec/%d/%04d", seed, i), rng.Int63n(1<<40)); !ok {
			break
		}
	}
	p.Seal()
	return p.Buf()
}

// checkCounters fails unless the page's live-byte and dead-slot
// counters equal a recount of its slot directory.
func checkCounters(t testing.TB, p *Page, after string) {
	t.Helper()
	if live, dead := p.recount(); live != p.live || dead != p.dead {
		t.Fatalf("after %s: counters say %d live bytes, %d dead slots; the directory has %d, %d", after, p.live, p.dead, live, dead)
	}
	for i := 0; i < min(p.deadFrom, p.SlotCount()); i++ {
		if _, length := p.slot(i); length == 0 {
			t.Fatalf("after %s: slot %d is dead, below deadFrom %d", after, i, p.deadFrom)
		}
	}
}

// TestPageCountersMatchRecount runs random insert/delete/compact
// sequences on one page, from empty to full and back, and compares its
// counters with a recount after every operation.
func TestPageCountersMatchRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPage()
	var slots []int
	for i := 0; i < 5000; i++ {
		switch op := rng.Intn(10); {
		case op < 6 && i%1000 < 600:
			if slot, ok := p.Insert(fmt.Sprintf("key/%d/%s", i, strings.Repeat("x", rng.Intn(40))), int64(i)); ok {
				slots = append(slots, slot)
			}
		case op < 9 && len(slots) > 0:
			j := rng.Intn(len(slots))
			p.Delete(slots[j])
			slots = append(slots[:j], slots[j+1:]...)
		default:
			p.Compact()
		}
		checkCounters(t, p, fmt.Sprintf("op %d", i))
		p.Seal()
		q, err := DecodePage(append([]byte(nil), p.Buf()...))
		if err != nil {
			t.Fatal(err)
		}
		if q.FreeFor() != p.FreeFor() {
			t.Fatalf("op %d: FreeFor %d, decoded image says %d", i, p.FreeFor(), q.FreeFor())
		}
	}
}

// records extracts the logical content of a decoded page.
func records(p *Page) map[string]int64 {
	out := make(map[string]int64)
	p.Range(func(_ int, k string, v int64) bool {
		out[k] = v
		return true
	})
	return out
}

// TestTornPageEveryBytePrefix mirrors the WAL torn-tail property at
// page granularity: a crash mid-page-write leaves a prefix of the new
// image over the old one. For every cut point, DecodePage must either
// reject the hybrid (checksum) or — when the hybrid happens to be
// byte-identical to the old or new image — decode exactly that page.
// No cut may yield a third, undetected state.
func TestTornPageEveryBytePrefix(t *testing.T) {
	t.Parallel()
	oldImg := pageImage(1, 60)
	newImg := pageImage(2, 90)
	oldP, err := DecodePage(append([]byte(nil), oldImg...))
	if err != nil {
		t.Fatal(err)
	}
	newP, err := DecodePage(append([]byte(nil), newImg...))
	if err != nil {
		t.Fatal(err)
	}
	oldRecs, newRecs := records(oldP), records(newP)

	sameMap := func(a, b map[string]int64) bool {
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}

	for cut := 0; cut <= PageSize; cut++ {
		hybrid := make([]byte, PageSize)
		copy(hybrid, newImg[:cut])
		copy(hybrid[cut:], oldImg[cut:])
		p, err := DecodePage(hybrid)
		if err != nil {
			continue // torn write detected — the common, correct case
		}
		got := records(p)
		if bytes.Equal(hybrid, oldImg) && sameMap(got, oldRecs) {
			continue // write had not started yet
		}
		if bytes.Equal(hybrid, newImg) && sameMap(got, newRecs) {
			continue // write had already completed
		}
		t.Fatalf("cut %d: hybrid page accepted with %d records (old %d, new %d)",
			cut, len(got), len(oldRecs), len(newRecs))
	}
}

// TestFreeSpaceMapConsistencyRandomOps drives seeded random
// insert/delete/update sequences and asserts the free-space map and
// directory never drift from the actual pages.
func TestFreeSpaceMapConsistencyRandomOps(t *testing.T) {
	t.Parallel()
	seeds := []int64{1, 7, 42, 1999}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			st, err := Open(NewMemDevice(), Options{PoolPages: 3})
			if err != nil {
				t.Fatal(err)
			}
			live := make(map[string]int64)
			for i := 0; i < 3000; i++ {
				key := fmt.Sprintf("k/%03d", rng.Intn(500))
				switch rng.Intn(5) {
				case 0:
					if err := st.Delete(key); err != nil {
						t.Fatalf("op %d delete %q: %v", i, key, err)
					}
					delete(live, key)
				default:
					v := rng.Int63n(1 << 30)
					if err := st.Put(key, v); err != nil {
						t.Fatalf("op %d put %q: %v", i, key, err)
					}
					live[key] = v
				}
				if i%500 == 499 {
					if err := st.CheckConsistency(); err != nil {
						t.Fatalf("after op %d: %v", i, err)
					}
				}
			}
			if err := st.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			if st.Len() != len(live) {
				t.Fatalf("store has %d records, model has %d", st.Len(), len(live))
			}
			for k, want := range live {
				if got, ok := st.Get(k); !ok || got != want {
					t.Fatalf("%q = (%d,%v), want (%d,true)", k, got, ok, want)
				}
			}
		})
	}
}

// TestStoreReopenEquivalenceRandomOps checks that flush + reopen from
// the device preserves the exact logical image for random histories.
func TestStoreReopenEquivalenceRandomOps(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{3, 11, 27} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			dev := NewMemDevice()
			st, err := Open(dev, Options{PoolPages: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1500; i++ {
				key := fmt.Sprintf("k/%03d", rng.Intn(400))
				if rng.Intn(4) == 0 {
					st.Delete(key)
				} else {
					st.Put(key, rng.Int63n(1<<30))
				}
			}
			want, err := st.CanonicalBytes()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			st2, err := Open(dev, Options{PoolPages: 4})
			if err != nil {
				t.Fatal(err)
			}
			got, err := st2.CanonicalBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatal("reopened store's canonical bytes differ")
			}
		})
	}
}
