package subsystem

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"transproc/internal/metrics"
	"transproc/internal/store"
)

// Durable subsystem state. With a store attached (AttachStore), the
// resource manager's ACID state is written through to slotted heap
// pages, so a crash kills the in-memory maps but a restart can rebuild
// them from disk and reconcile any torn edge against the scheduler's
// WAL (scheduler.RecoverDurable). The record-key layout:
//
//	d/<item>            committed value of a data item
//	b/<item>            baseline set via Set (distinguishes an item
//	                    whose value returned to zero from one that
//	                    never existed)
//	i/<tx>/<proc>/<svc> intent: transaction <tx> is prepared (in
//	                    doubt) here, invoked by <proc> on <svc>
//	f/<tx>/<proc>/<svc> fate: 1 = committed, 0 = rolled back
//	m/nexttx            transaction-id floor
//
// Process names must not contain '/' (service names may — the intent
// and fate keys are parsed positionally: tx, then proc, then the rest).
//
// The store is a cache of applied state plus 2PC bookkeeping; the WAL
// stays the source of truth. Durability of any individual record is
// only guaranteed after FlushStore — the composed recovery re-derives
// whatever a crash took (or tore) from the log.

const (
	durData   = "d/"
	durBase   = "b/"
	durIntent = "i/"
	durFate   = "f/"
	durNextTx = "m/nexttx"
)

// FateRecord is the durable resolution of a once-prepared transaction.
type FateRecord struct {
	Committed bool
	Proc      string
	Service   string
}

// AttachStore binds a durable store and loads its contents into the
// in-memory state: data items, baselines, the transaction-id floor,
// resolution fates, and prepared intents (restored as in-doubt
// transactions holding their locks — unless a fate record proves the
// crash hit after resolution, in which case the fate wins and the
// stale intent is dropped).
func (s *Subsystem) AttachStore(st *store.Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.durable = st
	s.baselines = make(map[string]int64)
	s.fates = make(map[TxID]FateRecord)

	st.Scan(durData, func(key string, v int64) bool {
		e := s.entry(key[len(durData):])
		e.val, e.has = v, true
		return true
	})
	st.Scan(durBase, func(key string, v int64) bool {
		s.baselines[key[len(durBase):]] = v
		return true
	})
	if v, ok := st.Get(durNextTx); ok && TxID(v) > s.nextTx {
		s.nextTx = TxID(v)
	}

	var err error
	st.Scan(durFate, func(key string, v int64) bool {
		tx, proc, svc, perr := parseTxKey(key, durFate)
		if perr != nil {
			err = perr
			return false
		}
		s.resolved[tx] = v != 0
		s.fates[tx] = FateRecord{Committed: v != 0, Proc: proc, Service: svc}
		if tx > s.nextTx {
			s.nextTx = tx
		}
		return true
	})
	if err != nil {
		return err
	}

	type intent struct {
		tx        TxID
		proc, svc string
	}
	var intents []intent
	st.Scan(durIntent, func(key string, _ int64) bool {
		tx, proc, svc, perr := parseTxKey(key, durIntent)
		if perr != nil {
			err = perr
			return false
		}
		intents = append(intents, intent{tx: tx, proc: proc, svc: svc})
		return true
	})
	if err != nil {
		return err
	}
	sort.Slice(intents, func(i, j int) bool { return intents[i].tx < intents[j].tx })
	for _, in := range intents {
		if _, resolved := s.resolved[in.tx]; resolved {
			// Crash between resolution and intent cleanup: the fate wins.
			st.Delete(durIntent + txKey(in.tx, in.proc, in.svc))
			continue
		}
		if rerr := s.restorePreparedLocked(in.tx, in.proc, in.svc); rerr != nil {
			return rerr
		}
	}
	return nil
}

func txKey(tx TxID, proc, svc string) string {
	return strconv.FormatInt(int64(tx), 10) + "/" + proc + "/" + svc
}

func parseTxKey(key, prefix string) (TxID, string, string, error) {
	rest := key[len(prefix):]
	parts := strings.SplitN(rest, "/", 3)
	if len(parts) != 3 {
		return 0, "", "", fmt.Errorf("subsystem: malformed durable key %q", key)
	}
	tx, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return 0, "", "", fmt.Errorf("subsystem: malformed durable key %q: %w", key, err)
	}
	return TxID(tx), parts[1], parts[2], nil
}

// DurableStore returns the attached store (nil when none).
func (s *Subsystem) DurableStore() *store.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable
}

// CommitsBehindLog reports whether a commit here reaches stable storage
// only behind the write-ahead log: an attached store runs the log's
// sync before every page write-back (store.Store.LogFirst). A commit
// anywhere else is durable on its own — an external resource manager's,
// or the in-memory model of one, which a crash does not take — so the
// record announcing it must be durable before the commit happens.
func (s *Subsystem) CommitsBehindLog() bool {
	st := s.DurableStore()
	return st != nil && st.LogFirst()
}

// FlushStore flushes the attached store's dirty pages (no-op without
// one). It returns the number of pages written and the first deferred
// write-through error, if any.
func (s *Subsystem) FlushStore() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.durable == nil {
		return 0, nil
	}
	if s.durableErr != nil {
		return 0, s.durableErr
	}
	return s.durable.Flush()
}

// Baselines returns the items initialized via Set and their values.
func (s *Subsystem) Baselines() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.baselines))
	for k, v := range s.baselines {
		out[k] = v
	}
	return out
}

// Fates returns the durable resolutions loaded by AttachStore, keyed
// by transaction id. Composed recovery uses them to account for
// transactions the subsystem resolved in the window before the crash
// cut off their log record.
func (s *Subsystem) Fates() map[TxID]FateRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[TxID]FateRecord, len(s.fates))
	for k, v := range s.fates {
		out[k] = v
	}
	return out
}

// EnsureTxFloor raises the transaction-id counter to at least floor, so
// ids the log already mentions are never recycled after a restart.
func (s *Subsystem) EnsureTxFloor(floor TxID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if floor > s.nextTx {
		s.nextTx = floor
		s.dPut(durNextTx, int64(floor))
	}
}

// RestorePrepared re-creates an in-doubt transaction after a restart:
// the write-ahead log shows <tx> prepared at this subsystem but the
// crash took the in-memory transaction (and possibly its durable
// intent). The restored transaction holds its strict-2PL locks again
// and awaits 2PC resolution. Restoring an already in-doubt or already
// resolved transaction is a no-op.
func (s *Subsystem) RestorePrepared(id TxID, proc, service string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, resolved := s.resolved[id]; resolved {
		return nil
	}
	return s.restorePreparedLocked(id, proc, service)
}

func (s *Subsystem) restorePreparedLocked(id TxID, proc, service string) error {
	if _, inDoubt := s.inDoubt[id]; inDoubt {
		return nil
	}
	sv, ok := s.services[service]
	if !ok {
		return fmt.Errorf("subsystem %s: restoring tx %d: unknown service %q", s.name, id, service)
	}
	t := txn{id: id, proc: proc, service: service, sv: sv, prepared: true}
	// Re-acquire unconditionally: the pre-crash acquisition proved the
	// locks compatible, and restarts restore intents before any new
	// invocation runs.
	s.lock(proc, sv)
	s.inDoubt[t.id] = t
	if id > s.nextTx {
		s.nextTx = id
		s.dPut(durNextTx, int64(id))
	}
	s.putIntentLocked(&t)
	return nil
}

// ReconcileDurable forces the data items to the expected image the
// composed recovery derived from the WAL: page-level redo for items
// the log committed but a crash kept off the pages, and undo for items
// the pages show but the log never committed (an applied local
// transaction whose record the crash cut off). Items whose expected
// value is zero with no baseline are deleted, so the page image is a
// pure function of the logical state. Returns the redo/undo item
// counts.
func (s *Subsystem) ReconcileDurable(expected map[string]int64) (redo, undo int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.durable == nil {
		return 0, 0, fmt.Errorf("subsystem %s: reconcile without a durable store", s.name)
	}
	items := make(map[string]bool, len(expected)+len(s.items))
	for item := range expected {
		items[item] = true
	}
	for item, e := range s.items {
		if e.has {
			items[item] = true
		}
	}
	sorted := make([]string, 0, len(items))
	for item := range items {
		sorted = append(sorted, item)
	}
	sort.Strings(sorted)
	for _, item := range sorted {
		want := expected[item]
		var cur int64
		e := s.items[item]
		have := e != nil && e.has
		if have {
			cur = e.val
		}
		_, hasBase := s.baselines[item]
		if want == 0 && !hasBase {
			if have {
				e.val, e.has = 0, false
				if derr := s.durable.Delete(durData + item); derr != nil {
					return redo, undo, derr
				}
				if cur != 0 {
					undo++
					s.m.Inc(metrics.StoreUndoItems)
				}
			}
			continue
		}
		if have && cur == want {
			continue
		}
		e = s.entry(item)
		e.val, e.has = want, true
		if derr := s.durable.Put(durData+item, want); derr != nil {
			return redo, undo, derr
		}
		if !have || cur < want {
			redo++
			s.m.Inc(metrics.StoreRedoItems)
		} else {
			undo++
			s.m.Inc(metrics.StoreUndoItems)
		}
	}
	return redo, undo, nil
}

// dPut writes through to the durable store (no-op without one). Write
// errors are deferred to FlushStore — the WAL remains the source of
// truth, so a lost write-through is repaired by the next recovery.
func (s *Subsystem) dPut(key string, v int64) {
	if s.durable == nil {
		return
	}
	if err := s.durable.Put(key, v); err != nil && s.durableErr == nil {
		s.durableErr = err
	}
}

// dDelete removes a durable record (no-op without a store).
func (s *Subsystem) dDelete(key string) {
	if s.durable == nil {
		return
	}
	if err := s.durable.Delete(key); err != nil && s.durableErr == nil {
		s.durableErr = err
	}
}

// putIntentLocked persists that t is prepared here (no-op without a
// store: the key is built only for one).
func (s *Subsystem) putIntentLocked(t *txn) {
	if s.durable != nil {
		s.dPut(durIntent+txKey(t.id, t.proc, t.service), 1)
	}
}

// recordFateLocked persists a transaction's resolution and drops its
// intent.
func (s *Subsystem) recordFateLocked(t *txn, committed bool) {
	if s.durable == nil {
		return
	}
	v := int64(0)
	if committed {
		v = 1
	}
	s.dPut(durFate+txKey(t.id, t.proc, t.service), v)
	s.dDelete(durIntent + txKey(t.id, t.proc, t.service))
	if s.fates != nil {
		s.fates[t.id] = FateRecord{Committed: committed, Proc: t.proc, Service: t.service}
	}
}

// FlushStores flushes every attached store in the federation.
func (f *Federation) FlushStores() error {
	for _, name := range f.order {
		if _, err := f.subs[name].FlushStore(); err != nil {
			return fmt.Errorf("federation: flushing %s: %w", name, err)
		}
	}
	return nil
}

// Durable reports whether any subsystem in the federation has a store
// attached.
func (f *Federation) Durable() bool {
	for _, name := range f.order {
		if f.subs[name].DurableStore() != nil {
			return true
		}
	}
	return false
}
