package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"transproc/internal/metrics"
)

func newTestRegistry() *metrics.Registry { return metrics.New() }

func evictions(reg *metrics.Registry) int64 { return reg.Counter(metrics.StoreEvictions) }

func TestPageInsertGetUpdateDelete(t *testing.T) {
	t.Parallel()
	p := NewPage()
	slot, ok := p.Insert("alpha", 41)
	if !ok {
		t.Fatal("insert failed on empty page")
	}
	if err := p.Update(slot, 42); err != nil {
		t.Fatal(err)
	}
	k, v, ok := p.Record(slot)
	if !ok || k != "alpha" || v != 42 {
		t.Fatalf("got (%q,%d,%v), want (alpha,42,true)", k, v, ok)
	}
	p.Delete(slot)
	if _, _, ok := p.Record(slot); ok {
		t.Fatal("record survived delete")
	}
	if p.Live() != 0 {
		t.Fatalf("live=%d after delete", p.Live())
	}
}

func TestPageFillCompactRefill(t *testing.T) {
	t.Parallel()
	p := NewPage()
	var slots []int
	for i := 0; ; i++ {
		slot, ok := p.Insert(fmt.Sprintf("key-%04d", i), int64(i))
		if !ok {
			break
		}
		slots = append(slots, slot)
	}
	if len(slots) < 100 {
		t.Fatalf("only %d records fit a page", len(slots))
	}
	// Delete every other record, then refill: compaction must reclaim
	// the dead cell space.
	freed := 0
	for i, slot := range slots {
		if i%2 == 0 {
			p.Delete(slot)
			freed++
		}
	}
	refilled := 0
	for i := 0; ; i++ {
		if _, ok := p.Insert(fmt.Sprintf("re-%05d", i), int64(i)); !ok {
			break
		}
		refilled++
	}
	if refilled < freed-2 {
		t.Fatalf("freed %d records but only refilled %d", freed, refilled)
	}
}

func TestPageSealDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	p := NewPage()
	p.SetLSN(77)
	p.Insert("a", 1)
	p.Insert("b", 2)
	p.Seal()
	q, err := DecodePage(append([]byte(nil), p.Buf()...))
	if err != nil {
		t.Fatal(err)
	}
	if q.LSN() != 77 || q.Live() != 2 {
		t.Fatalf("decoded lsn=%d live=%d", q.LSN(), q.Live())
	}
	// Any single flipped byte must fail the checksum.
	for _, off := range []int{0, 5, headerSize, PageSize - 1} {
		img := append([]byte(nil), p.Buf()...)
		img[off] ^= 0xff
		if _, err := DecodePage(img); err == nil {
			t.Fatalf("decode accepted image with byte %d flipped", off)
		}
	}
}

func TestStoreBasicAndReopen(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "heap.db")
	st, err := OpenFile(path, Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := st.Put(fmt.Sprintf("item/%04d", i), int64(i)*3); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 {
		if err := st.Delete(fmt.Sprintf("item/%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	want, err := st.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFile(path, Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if h := st2.Health(); h.TornDetected != 0 {
		t.Fatalf("clean reopen found %d torn pages", h.TornDetected)
	}
	for i := 0; i < n; i++ {
		v, ok := st2.Get(fmt.Sprintf("item/%04d", i))
		if i%7 == 0 {
			if ok {
				t.Fatalf("deleted item/%04d resurrected with %d", i, v)
			}
			continue
		}
		if !ok || v != int64(i)*3 {
			t.Fatalf("item/%04d = (%d,%v), want (%d,true)", i, v, ok, i*3)
		}
	}
	got, err := st2.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("canonical bytes changed across clean reopen")
	}
	if err := st2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreTornPageDetectedAndRepaired(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "heap.db")
	st, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := st.Put(fmt.Sprintf("rec/%04d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the middle of page 1: overwrite half the page with junk.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xde}, PageSize/2)
	if _, err := f.WriteAt(junk, PageSize+PageSize/4); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	h := st2.Health()
	if h.TornDetected != 1 || h.TornRepaired != 1 {
		t.Fatalf("health = %+v, want 1 torn detected and repaired", h)
	}
	if _, err := st2.VerifyDisk(); err != nil {
		t.Fatalf("repaired store still has torn pages: %v", err)
	}
	if err := st2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Survivors on other pages are intact.
	if _, ok := st2.Get("rec/0000"); !ok {
		t.Fatal("record on healthy page 0 lost")
	}
}

func TestStorePartialTrailingPageTreatedAsTorn(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "heap.db")
	st, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := st.Put(fmt.Sprintf("rec/%04d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	// A crash mid-append leaves a fragment of the last page.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-PageSize/3); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if h := st2.Health(); h.TornDetected != 1 {
		t.Fatalf("health = %+v, want exactly the truncated tail page torn", h)
	}
	if _, err := st2.VerifyDisk(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreEvictionUnderTinyPool(t *testing.T) {
	t.Parallel()
	reg := newTestRegistry()
	st, err := Open(NewMemDevice(), Options{PoolPages: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := st.Put(fmt.Sprintf("key/%05d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if v, ok := st.Get(fmt.Sprintf("key/%05d", i)); !ok || v != int64(i) {
			t.Fatalf("key/%05d = (%d,%v)", i, v, ok)
		}
	}
	if err := st.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := evictions(reg); got == 0 {
		t.Fatal("tiny pool recorded zero evictions")
	}
}

// barrierDevice checks the write-ahead rule at the device: every page
// write comes after a barrier that ran after the last completed
// mutation, so the log the barrier syncs covers what the page holds.
type barrierDevice struct {
	*MemDevice
	t                   *testing.T
	mutations, synced   int // completed Puts; mutations at the last barrier
	writes, barrierRuns int
}

func (d *barrierDevice) WritePage(id PageID, buf []byte) error {
	if d.synced != d.mutations {
		d.t.Errorf("page %d written after %d mutations, but the last barrier ran after %d", id, d.mutations, d.synced)
	}
	d.writes++
	return d.MemDevice.WritePage(id, buf)
}

func (d *barrierDevice) barrier() error {
	d.synced = d.mutations
	d.barrierRuns++
	return nil
}

func TestStoreBarrierRunsBeforePageWrites(t *testing.T) {
	t.Parallel()
	dev := &barrierDevice{MemDevice: NewMemDevice(), t: t}
	st, err := Open(dev, Options{PoolPages: 2, Barrier: dev.barrier})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := st.Put(fmt.Sprintf("key/%05d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
		dev.mutations++
	}
	if _, err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if dev.writes == 0 || dev.barrierRuns == 0 {
		t.Fatalf("%d page writes, %d barriers: the pool never wrote back", dev.writes, dev.barrierRuns)
	}
}

func TestPoolPinUnpinInvariants(t *testing.T) {
	t.Parallel()
	st, err := Open(NewMemDevice(), Options{PoolPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("a", 1); err != nil {
		t.Fatal(err)
	}
	bp := st.bp
	if _, err := bp.fetch(0); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.fetch(0); err != nil {
		t.Fatal(err)
	}
	if got := bp.pinCount(0); got != 2 {
		t.Fatalf("pin count %d after two fetches", got)
	}
	if err := bp.unpin(0, false); err != nil {
		t.Fatal(err)
	}
	if err := bp.unpin(0, false); err != nil {
		t.Fatal(err)
	}
	if err := bp.unpin(0, false); err == nil {
		t.Fatal("unpin below zero accepted")
	}
	if err := bp.unpin(99, false); err == nil {
		t.Fatal("unpin of non-resident page accepted")
	}
}

func TestPoolAllPinnedExhausts(t *testing.T) {
	t.Parallel()
	st, err := Open(NewMemDevice(), Options{PoolPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.bp.fetch(0); err != nil {
		t.Fatal(err)
	}
	// The only frame is pinned: a miss must fail, not evict it.
	if _, err := st.bp.victim(); err == nil {
		t.Fatal("victim selection evicted a pinned frame")
	}
	if err := st.bp.unpin(0, false); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentAccess exercises pin/unpin and eviction from many
// goroutines; meaningful under -race.
func TestStoreConcurrentAccess(t *testing.T) {
	t.Parallel()
	st, err := Open(NewMemDevice(), Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const opsPerWorker = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWorker; i++ {
				key := fmt.Sprintf("key/%03d", rng.Intn(300))
				switch rng.Intn(3) {
				case 0:
					if err := st.Put(key, int64(i)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					st.Get(key)
				case 2:
					if err := st.Delete(key); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalBytesIndependentOfHistory(t *testing.T) {
	t.Parallel()
	// Same logical content through different mutation histories (and
	// different pool sizes) must serialize identically.
	a, _ := Open(NewMemDevice(), Options{PoolPages: 2})
	b, _ := Open(NewMemDevice(), Options{PoolPages: 16})
	for i := 0; i < 300; i++ {
		if err := a.Put(fmt.Sprintf("k/%03d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i += 3 {
		if err := a.Delete(fmt.Sprintf("k/%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 299; i >= 0; i-- {
		if i%3 == 0 {
			continue
		}
		if err := b.Put(fmt.Sprintf("k/%03d", i), -1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if i%3 == 0 {
			continue
		}
		if err := b.Put(fmt.Sprintf("k/%03d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ca, err := a.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatal("canonical bytes differ for identical logical content")
	}
	// Prefix filtering selects subsets deterministically.
	a.Put("x/1", 7)
	onlyK, err := a.CanonicalBytes("k/")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onlyK, cb) {
		t.Fatal("prefix-filtered canonical bytes include foreign records")
	}
}

func TestStoreFlushEach(t *testing.T) {
	t.Parallel()
	dev := NewMemDevice()
	st, err := Open(dev, Options{PoolPages: 4, FlushEach: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := st.Put(fmt.Sprintf("k/%02d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
		if d := st.bp.dirtyPages(); d != 0 {
			t.Fatalf("%d dirty pages after FlushEach put", d)
		}
	}
}
