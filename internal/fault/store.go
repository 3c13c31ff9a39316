package fault

import (
	"bytes"
	"fmt"

	"transproc/internal/store"
	"transproc/internal/subsystem"
)

// CheckDurableStores asserts the storage-level recovery guarantees
// after a durable scenario's recovery completed (run it after
// CheckRecovered, whose invariant 5 ties the in-memory state to the
// log):
//
//  1. every store flushes cleanly and its on-disk pages all pass their
//     checksums — no torn page survives recovery undetected;
//  2. directory, free-space map and pages are mutually consistent;
//  3. no 2PC intent records linger (every in-doubt transaction was
//     resolved and its intent cleaned up);
//  4. the page image is byte-equal to a sequential oracle: a fresh
//     store fed the recovered logical state (baselines + data items)
//     in canonical order. Combined with invariant 5 this makes the
//     durable image a pure function of the log's committed work.
func CheckDurableStores(fed *subsystem.Federation) error {
	for _, sub := range fed.Subsystems() {
		st := sub.DurableStore()
		if st == nil {
			continue
		}
		if _, err := sub.FlushStore(); err != nil {
			return fmt.Errorf("store %s: flush after recovery: %w", sub.Name(), err)
		}
		if _, err := st.VerifyDisk(); err != nil {
			return fmt.Errorf("store %s: torn page survives recovery: %w", sub.Name(), err)
		}
		if err := st.CheckConsistency(); err != nil {
			return fmt.Errorf("store %s: %w", sub.Name(), err)
		}
		if intents := st.Keys("i/"); len(intents) != 0 {
			return fmt.Errorf("store %s: %d intent records survive recovery: %v", sub.Name(), len(intents), intents)
		}
		oracle := store.OpenMem(store.Options{})
		for item, v := range sub.Baselines() {
			if err := oracle.Put("b/"+item, v); err != nil {
				return fmt.Errorf("store %s: oracle: %w", sub.Name(), err)
			}
		}
		for item, v := range sub.Snapshot() {
			if err := oracle.Put("d/"+item, v); err != nil {
				return fmt.Errorf("store %s: oracle: %w", sub.Name(), err)
			}
		}
		want, err := oracle.CanonicalBytes("b/", "d/")
		if err != nil {
			return fmt.Errorf("store %s: oracle canonical bytes: %w", sub.Name(), err)
		}
		got, err := st.CanonicalBytes("b/", "d/")
		if err != nil {
			return fmt.Errorf("store %s: canonical bytes: %w", sub.Name(), err)
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("store %s: page image diverges from the sequential oracle (%d vs %d canonical bytes)",
				sub.Name(), len(got), len(want))
		}
	}
	return nil
}
