package federation

import "testing"

func journalFixture() []JEntry {
	return []JEntry{
		{Kind: jEpoch, Node: 3},
		{Kind: jLease, Stamp: 512},
		// Kind 2, the retired ownership row: the fold skips it.
		{Kind: 2, Node: 1, Origin: "W1", Proc: "W1"},
		{Kind: 2, Node: 2, Origin: "W2", Proc: "W2"},
		{Kind: jLease, Stamp: 1024},
		{Kind: 2, Node: 1, Origin: "W2", Proc: "W2+r1"},
	}
}

// TestFoldJournal pins the latest-wins fold the reopening hub seeds
// itself with.
func TestFoldJournal(t *testing.T) {
	st := FoldJournal(journalFixture())
	if st.Epoch != 3 {
		t.Errorf("epoch %d, want 3", st.Epoch)
	}
	if st.LeaseFloor != 1024 {
		t.Errorf("lease floor %d, want the highest journaled floor 1024", st.LeaseFloor)
	}
}
