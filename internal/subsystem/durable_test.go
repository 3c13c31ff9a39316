package subsystem

import (
	"testing"

	"transproc/internal/activity"
	"transproc/internal/store"
)

func durableSub(t *testing.T, st *store.Store) *Subsystem {
	t.Helper()
	s := New("DB", 1)
	s.MustRegister(activity.Spec{
		Name: "book", Kind: activity.Compensatable, Compensation: "cancel",
		Subsystem: "DB", WriteSet: []string{"seats"},
	})
	s.MustRegister(activity.Spec{
		Name: "pay", Kind: activity.Pivot, Subsystem: "DB", WriteSet: []string{"balance"},
	})
	if err := s.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCommitsBehindLog: a commit waits for no log sync of its own only
// at a subsystem whose store runs the log's sync before its pages.
func TestCommitsBehindLog(t *testing.T) {
	if New("DB", 1).CommitsBehindLog() {
		t.Fatal("an in-memory subsystem commits behind the log")
	}
	if durableSub(t, store.OpenMem(store.Options{})).CommitsBehindLog() {
		t.Fatal("a store without a barrier commits behind the log")
	}
	if !durableSub(t, store.OpenMem(store.Options{Barrier: func() error { return nil }})).CommitsBehindLog() {
		t.Fatal("a store with a barrier does not commit behind the log")
	}
}

// TestDurableRoundTrip commits work, reopens the store into a fresh
// subsystem, and expects items, baselines, tx floor and fates back.
func TestDurableRoundTrip(t *testing.T) {
	dev := store.NewMemDevice()
	st, err := store.Open(dev, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := durableSub(t, st)
	s.Set("seats", 100)
	if _, err := s.Invoke("P1", "book", AutoCommit); err != nil {
		t.Fatal(err)
	}
	res, err := s.Invoke("P2", "pay", Prepare)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CommitPrepared(res.Tx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FlushStore(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dev, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := durableSub(t, st2)
	if got := s2.Get("seats"); got != 101 {
		t.Fatalf("seats = %d, want 101", got)
	}
	if got := s2.Get("balance"); got != 1 {
		t.Fatalf("balance = %d, want 1", got)
	}
	if got := s2.Baselines()["seats"]; got != 100 {
		t.Fatalf("baseline seats = %d, want 100", got)
	}
	if fate, ok := s2.Fates()[res.Tx]; !ok || !fate.Committed || fate.Proc != "P2" || fate.Service != "pay" {
		t.Fatalf("fate[%d] = %+v, %v", res.Tx, fate, ok)
	}
	if committed, known := s2.TxFate(res.Tx); !known || !committed {
		t.Fatalf("TxFate(%d) = (%v,%v), want committed", res.Tx, committed, known)
	}
	// The tx counter must not recycle pre-crash ids.
	r2, err := s2.Invoke("P3", "pay", AutoCommit)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Tx <= res.Tx {
		t.Fatalf("fresh tx %d not above restored floor %d", r2.Tx, res.Tx)
	}
}

// TestDurableIntentRestored prepares a transaction, "crashes", reopens
// and expects the transaction back in doubt with its locks held.
func TestDurableIntentRestored(t *testing.T) {
	dev := store.NewMemDevice()
	st, err := store.Open(dev, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := durableSub(t, st)
	res, err := s.Invoke("P1", "book", Prepare)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FlushStore(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dev, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := durableSub(t, st2)
	ind := s2.InDoubt()
	if len(ind) != 1 || ind[0].Tx != res.Tx || ind[0].Proc != "P1" || ind[0].Service != "book" {
		t.Fatalf("in-doubt after restore = %+v", ind)
	}
	// The restored transaction holds its write lock against others.
	fed := NewFederation()
	fed.MustAdd(s2)
	book, _ := fed.Route("book")
	if holder, free := book.LockBlocker("P2"); free || holder != "P1" {
		t.Fatalf("conflicting lock not restored: holder %q, free %v", holder, free)
	}
	if err := s2.CommitPrepared(res.Tx); err != nil {
		t.Fatal(err)
	}
	if got := s2.Get("seats"); got != 1 {
		t.Fatalf("seats = %d after restored commit, want 1", got)
	}
}

// TestDurableFateWinsOverStaleIntent simulates a crash between a 2PC
// resolution and the intent cleanup reaching disk: both records exist,
// and the fate must win (no resurrected in-doubt transaction).
func TestDurableFateWinsOverStaleIntent(t *testing.T) {
	dev := store.NewMemDevice()
	st, err := store.Open(dev, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := durableSub(t, st)
	res, err := s.Invoke("P1", "book", Prepare)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CommitPrepared(res.Tx); err != nil {
		t.Fatal(err)
	}
	// Re-plant the stale intent the crash failed to delete.
	if err := st.Put("i/"+txKey(res.Tx, "P1", "book"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FlushStore(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dev, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := durableSub(t, st2)
	if ind := s2.InDoubt(); len(ind) != 0 {
		t.Fatalf("stale intent resurrected: %+v", ind)
	}
	if committed, known := s2.TxFate(res.Tx); !known || !committed {
		t.Fatalf("TxFate = (%v,%v), want committed", committed, known)
	}
	if keys := st2.Keys("i/"); len(keys) != 0 {
		t.Fatalf("stale intent not cleaned: %v", keys)
	}
}

// TestRestorePreparedFromLog restores an in-doubt transaction the log
// knows about but the durable intent never reached disk for.
func TestRestorePreparedFromLog(t *testing.T) {
	st := store.OpenMem(store.Options{})
	s := durableSub(t, st)
	if err := s.RestorePrepared(7, "P4", "book"); err != nil {
		t.Fatal(err)
	}
	ind := s.InDoubt()
	if len(ind) != 1 || ind[0].Tx != 7 {
		t.Fatalf("in-doubt = %+v", ind)
	}
	// Idempotent, and resolved ids are refused silently.
	if err := s.RestorePrepared(7, "P4", "book"); err != nil {
		t.Fatal(err)
	}
	if len(s.InDoubt()) != 1 {
		t.Fatal("double restore duplicated the transaction")
	}
	if err := s.AbortPrepared(7); err != nil {
		t.Fatal(err)
	}
	if err := s.RestorePrepared(7, "P4", "book"); err != nil {
		t.Fatal(err)
	}
	if len(s.InDoubt()) != 0 {
		t.Fatal("resolved transaction resurrected")
	}
	// Fresh invocations must mint ids above the restored one.
	r, err := s.Invoke("P5", "pay", AutoCommit)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tx <= 7 {
		t.Fatalf("tx %d not above restored id 7", r.Tx)
	}
}

// TestReconcileDurable forces redo and undo edges and checks the store
// image lands exactly on the expected state.
func TestReconcileDurable(t *testing.T) {
	st := store.OpenMem(store.Options{})
	s := durableSub(t, st)
	s.Set("seats", 50)
	if _, err := s.Invoke("P1", "book", AutoCommit); err != nil {
		t.Fatal(err)
	}
	// seats=51 on pages. Log says seats should be 53 (redo two) and
	// balance should be 0 with no baseline (undo: delete the record).
	if _, err := s.Invoke("P1", "pay", AutoCommit); err != nil {
		t.Fatal(err)
	}
	redo, undo, err := s.ReconcileDurable(map[string]int64{"seats": 53})
	if err != nil {
		t.Fatal(err)
	}
	if redo != 1 || undo != 1 {
		t.Fatalf("redo=%d undo=%d, want 1,1", redo, undo)
	}
	if got := s.Get("seats"); got != 53 {
		t.Fatalf("seats = %d, want 53", got)
	}
	if _, ok := st.Get("d/balance"); ok {
		t.Fatal("undone record survived on pages")
	}
	// Baseline item forced to zero keeps its record (value 0).
	if _, _, err := s.ReconcileDurable(map[string]int64{"seats": 0}); err != nil {
		t.Fatal(err)
	}
	if v, ok := st.Get("d/seats"); !ok || v != 0 {
		t.Fatalf("d/seats = (%d,%v), want (0,true)", v, ok)
	}
}
