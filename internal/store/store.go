package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"transproc/internal/metrics"
)

// Options configures a Store.
type Options struct {
	// PoolPages is the buffer-pool size in frames (default 32).
	PoolPages int
	// Barrier runs before any dirty page reaches the device — wire the
	// scheduler WAL's Sync here to enforce the write-ahead rule.
	Barrier func() error
	// Inject receives named crash points (store:page-write, …); wire
	// the fault injector's Point here in torture runs.
	Inject func(string)
	// Metrics receives page/pool counters; nil is a no-op.
	Metrics *metrics.Registry
	// FlushEach forces a full flush after every mutation. Slow, but it
	// maximizes the flushed-page/unlogged-record window the composed
	// recovery has to undo — the torture battery's favorite setting.
	FlushEach bool
}

// rid locates a record: which page, which slot.
type rid struct {
	page PageID
	slot int
}

// Health summarizes what Open found on disk.
type Health struct {
	// Pages is the heap-file page count at open.
	Pages int
	// TornDetected counts pages whose checksum failed at open.
	TornDetected int
	// TornRepaired counts torn pages reformatted empty at open. The
	// records they held are gone — the subsystem reconcile pass
	// re-derives them from the WAL.
	TornRepaired int
}

// Store is a durable string→int64 record store over slotted heap
// pages: an in-memory key directory and free-space map (both rebuilt
// by scanning the heap file at Open), a buffer pool between the
// directory and the device, and a store-wide LSN stamped into every
// page it mutates. All methods are safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	dev    Device
	bp     *pool
	dir    map[string]rid
	fsm    freeSpaceMap
	lsn    int64
	health Health
	opts   Options
	closed bool
}

// Open scans every page of the device, verifying checksums and
// rebuilding the key directory and free-space map. Torn pages are
// counted, reformatted empty and written back (repair of their content
// is the reconcile pass's job, not Open's).
func Open(dev Device, opts Options) (*Store, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = 32
	}
	s := &Store{
		dev:  dev,
		bp:   newPool(dev, opts.PoolPages, opts.Barrier, opts.Inject, opts.Metrics),
		dir:  make(map[string]rid),
		opts: opts,
	}
	n, err := dev.Pages()
	if err != nil {
		return nil, err
	}
	s.health.Pages = n
	repaired := false
	buf := make([]byte, PageSize)
	for id := 0; id < n; id++ {
		if err := dev.ReadPage(PageID(id), buf); err != nil {
			return nil, err
		}
		opts.Metrics.Inc(metrics.StorePageReads)
		p, err := DecodePage(buf)
		if err != nil {
			// Torn or corrupt: reformat empty in place so the page is
			// readable again, and surface the loss via Health.
			s.health.TornDetected++
			opts.Metrics.Inc(metrics.StoreTornDetected)
			p = NewPage()
			if err := dev.WritePage(PageID(id), p.Buf()); err != nil {
				return nil, err
			}
			opts.Metrics.Inc(metrics.StorePageWrites)
			s.health.TornRepaired++
			opts.Metrics.Inc(metrics.StoreTornRepaired)
			repaired = true
			s.fsm.set(PageID(id), p.FreeFor())
			continue
		}
		if p.LSN() > s.lsn {
			s.lsn = p.LSN()
		}
		var dup error
		p.Range(func(slot int, key string, value int64) bool {
			if _, exists := s.dir[key]; exists {
				dup = fmt.Errorf("store: duplicate key %q on page %d", key, id)
				return false
			}
			s.dir[key] = rid{page: PageID(id), slot: slot}
			return true
		})
		if dup != nil {
			return nil, dup
		}
		s.fsm.set(PageID(id), p.FreeFor())
		buf = make([]byte, PageSize) // DecodePage retained the old buf
	}
	if repaired {
		if err := dev.Sync(); err != nil {
			return nil, err
		}
		opts.Metrics.Inc(metrics.StorePageFsyncs)
	}
	return s, nil
}

// OpenFile opens (or creates) a file-backed store at path.
func OpenFile(path string, opts Options) (*Store, error) {
	dev, err := OpenFileDevice(path)
	if err != nil {
		return nil, err
	}
	st, err := Open(dev, opts)
	if err != nil {
		dev.Close()
		return nil, err
	}
	return st, nil
}

// OpenMem returns an empty memory-backed store — the zero-setup
// default when durability is off.
func OpenMem(opts Options) *Store {
	st, err := Open(NewMemDevice(), opts)
	if err != nil {
		// An empty MemDevice cannot fail to open.
		panic(err)
	}
	return st
}

// Health reports what Open found.
func (s *Store) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.health
}

// LogFirst reports whether the write-ahead barrier (Options.Barrier)
// runs before every page write-back: nothing this store holds reaches
// the device ahead of the log.
func (s *Store) LogFirst() bool { return s.opts.Barrier != nil }

// LSN returns the store-wide mutation sequence number.
func (s *Store) LSN() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lsn
}

// Len returns the live record count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dir)
}

// Get returns the value stored under key.
func (s *Store) Get(key string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok, err := s.getLocked(key)
	if err != nil {
		// Read path errors (unreadable page under a live directory
		// entry) indicate corruption past Open; surface as absence.
		return 0, false
	}
	return v, ok
}

func (s *Store) getLocked(key string) (int64, bool, error) {
	r, ok := s.dir[key]
	if !ok {
		return 0, false, nil
	}
	p, err := s.bp.fetch(r.page)
	if err != nil {
		return 0, false, err
	}
	defer s.bp.unpin(r.page, false)
	k, v, ok := p.Record(r.slot)
	if !ok || k != key {
		return 0, false, fmt.Errorf("store: directory entry for %q points at wrong record", key)
	}
	return v, true, nil
}

// Put inserts or updates a record.
func (s *Store) Put(key string, value int64) error {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return fmt.Errorf("store: key length %d out of range [1,%d]", len(key), MaxKeyLen)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.putLocked(key, value); err != nil {
		return err
	}
	if s.opts.FlushEach {
		_, err := s.flushLocked()
		return err
	}
	return nil
}

func (s *Store) putLocked(key string, value int64) error {
	s.lsn++
	if r, ok := s.dir[key]; ok {
		p, err := s.bp.fetch(r.page)
		if err != nil {
			return err
		}
		if err := p.Update(r.slot, value); err != nil {
			s.bp.unpin(r.page, false)
			return err
		}
		p.SetLSN(s.lsn)
		return s.bp.unpin(r.page, true)
	}
	need := cellOverhead + len(key)
	if id, ok := s.fsm.pageFor(need); ok {
		p, err := s.bp.fetch(id)
		if err != nil {
			return err
		}
		slot, ok := p.Insert(key, value)
		if !ok {
			s.bp.unpin(id, false)
			return fmt.Errorf("store: free-space map promised %d bytes on page %d but insert failed", s.fsm.get(id), id)
		}
		p.SetLSN(s.lsn)
		s.dir[key] = rid{page: id, slot: slot}
		s.fsm.set(id, p.FreeFor())
		return s.bp.unpin(id, true)
	}
	// Grow the heap file by one page.
	s.bp.fire(PointAlloc)
	id := PageID(s.fsm.pages())
	p := NewPage()
	slot, ok := p.Insert(key, value)
	if !ok {
		return fmt.Errorf("store: record %q does not fit an empty page", key)
	}
	p.SetLSN(s.lsn)
	if err := s.bp.fetchNew(id, p); err != nil {
		return err
	}
	s.opts.Metrics.Inc(metrics.StoreAllocs)
	s.dir[key] = rid{page: id, slot: slot}
	s.fsm.set(id, p.FreeFor())
	s.health.Pages = s.fsm.pages()
	return s.bp.unpin(id, true)
}

// Delete removes a record; deleting an absent key is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.dir[key]
	if !ok {
		return nil
	}
	p, err := s.bp.fetch(r.page)
	if err != nil {
		return err
	}
	s.lsn++
	p.Delete(r.slot)
	p.SetLSN(s.lsn)
	delete(s.dir, key)
	s.fsm.set(r.page, p.FreeFor())
	if err := s.bp.unpin(r.page, true); err != nil {
		return err
	}
	if s.opts.FlushEach {
		_, err := s.flushLocked()
		return err
	}
	return nil
}

// Scan calls fn for every key with the given prefix, in sorted key
// order, until fn returns false.
func (s *Store) Scan(prefix string, fn func(key string, value int64) bool) {
	s.mu.Lock()
	keys := make([]string, 0, len(s.dir))
	for k := range s.dir {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	vals := make([]int64, len(keys))
	for i, k := range keys {
		v, _, err := s.getLocked(k)
		if err != nil {
			s.mu.Unlock()
			return
		}
		vals[i] = v
	}
	s.mu.Unlock()
	for i, k := range keys {
		if !fn(k, vals[i]) {
			return
		}
	}
}

// Keys returns the sorted keys with the given prefix.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k := range s.dir {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Flush writes back every dirty page and fsyncs the device. Returns
// the number of pages written.
func (s *Store) Flush() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() (int, error) {
	wrote, err := s.bp.flush()
	if wrote > 0 {
		s.opts.Metrics.Observe(metrics.HistStoreFlushPages, int64(wrote))
	}
	return wrote, err
}

// Close flushes and closes the device.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if _, err := s.flushLocked(); err != nil {
		s.dev.Close()
		return err
	}
	return s.dev.Close()
}

// Abandon closes the device WITHOUT flushing dirty pages — the
// crash-simulation close: whatever the buffer pool still held is lost,
// exactly as if the process died. Torture harnesses use it before
// reopening the same file for recovery.
func (s *Store) Abandon() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.dev.Close()
}

// VerifyDisk reads every device page and verifies its checksum,
// returning the number of pages checked. Any torn page is an error —
// after a Flush, a healthy store has none.
func (s *Store) VerifyDisk() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.dev.Pages()
	if err != nil {
		return 0, err
	}
	buf := make([]byte, PageSize)
	for id := 0; id < n; id++ {
		if err := s.dev.ReadPage(PageID(id), buf); err != nil {
			return id, err
		}
		if _, err := DecodePage(buf); err != nil {
			return id, fmt.Errorf("store: page %d: %w", id, err)
		}
		buf = make([]byte, PageSize)
	}
	return n, nil
}

// CanonicalBytes serializes the records under the given prefixes (all
// records when none is given) into a deterministic sequence of freshly
// packed pages: sorted keys, first-fit fill, LSN 0. Two stores hold
// the same logical image iff their canonical bytes are equal — the
// torture battery compares a recovered store against a sequential
// oracle replay this way.
func (s *Store) CanonicalBytes(prefixes ...string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k := range s.dir {
		if len(prefixes) == 0 {
			keys = append(keys, k)
			continue
		}
		for _, pre := range prefixes {
			if strings.HasPrefix(k, pre) {
				keys = append(keys, k)
				break
			}
		}
	}
	sort.Strings(keys)
	var out []byte
	page := NewPage()
	for _, k := range keys {
		v, ok, err := s.getLocked(k)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("store: directory key %q vanished", k)
		}
		if _, fit := page.Insert(k, v); !fit {
			page.Seal()
			out = append(out, page.Buf()...)
			page = NewPage()
			if _, fit := page.Insert(k, v); !fit {
				return nil, fmt.Errorf("store: record %q does not fit an empty page", k)
			}
		}
	}
	if page.Live() > 0 {
		page.Seal()
		out = append(out, page.Buf()...)
	}
	return out, nil
}

// CheckConsistency cross-checks the in-memory directory and free-space
// map against the actual pages: every directory entry resolves to a
// live record with the right key, every live record is in the
// directory, and every page's tracked free space matches Page.FreeFor.
func (s *Store) CheckConsistency() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := 0
	for id := 0; id < s.fsm.pages(); id++ {
		p, err := s.bp.fetch(PageID(id))
		if err != nil {
			return fmt.Errorf("store: consistency fetch page %d: %w", id, err)
		}
		var bad error
		p.Range(func(slot int, key string, value int64) bool {
			seen++
			r, ok := s.dir[key]
			if !ok {
				bad = fmt.Errorf("store: record %q on page %d not in directory", key, id)
				return false
			}
			if r.page != PageID(id) || r.slot != slot {
				bad = fmt.Errorf("store: directory maps %q to (%d,%d), record lives at (%d,%d)", key, r.page, r.slot, id, slot)
				return false
			}
			return true
		})
		if bad == nil && s.fsm.get(PageID(id)) != p.FreeFor() {
			bad = fmt.Errorf("store: free-space map says %d for page %d, page says %d", s.fsm.get(PageID(id)), id, p.FreeFor())
		}
		s.bp.unpin(PageID(id), false)
		if bad != nil {
			return bad
		}
	}
	if seen != len(s.dir) {
		return fmt.Errorf("store: %d live records on pages, %d directory entries", seen, len(s.dir))
	}
	return nil
}
