package store

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzHeapPageDecode throws arbitrary bytes at DecodePage. Raw garbage
// must be rejected cleanly (almost always by checksum); to also reach
// the structural validation, the harness reseals the image — a valid
// checksum over hostile structure — and requires decode to either
// reject it or yield a page that iterates and round-trips safely, and
// whose live-byte and dead-slot counters equal a recount of its slot
// directory after every operation.
func FuzzHeapPageDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, PageSize))
	f.Add(pageImage(1, 40))
	f.Add(pageImage(2, 1))
	trunc := pageImage(3, 10)
	f.Add(trunc[:100])
	// Hostile slot directory: offsets past the page end.
	hostile := NewPage()
	hostile.setSlotCount(3)
	hostile.setSlot(0, PageSize-4, 40)
	hostile.setSlot(1, 0, 12)
	hostile.setCellStart(headerSize)
	hostile.Seal()
	f.Add(hostile.Buf())

	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := DecodePage(append([]byte(nil), data...)); err == nil {
			records(p) // must not panic
		}
		if len(data) != PageSize {
			return
		}
		img := append([]byte(nil), data...)
		binary.BigEndian.PutUint32(img[0:4], 0)
		(&Page{buf: img}).Seal()
		p, err := DecodePage(img)
		if err != nil {
			return
		}
		// Structurally accepted: every operation must stay in bounds
		// and the page must survive a mutate/seal/decode round trip.
		checkCounters(t, p, "decode")
		recs := records(p)
		if _, ok := p.Insert("fuzz/extra", 1); ok {
			if got := records(p); len(got) != len(recs)+1 {
				t.Fatalf("insert changed record count %d -> %d", len(recs), len(got))
			}
		}
		checkCounters(t, p, "insert")
		// Delete and re-insert at slots the image's own bytes pick.
		for i, b := range data[headerSize : headerSize+16] {
			if p.SlotCount() == 0 {
				break
			}
			p.Delete(int(b) % p.SlotCount())
			checkCounters(t, p, "delete")
			p.Insert(fmt.Sprintf("fuzz/%d", i), int64(b))
			checkCounters(t, p, "re-insert")
		}
		p.Compact()
		checkCounters(t, p, "compact")
		p.Seal()
		q, err := DecodePage(p.Buf())
		if err != nil {
			t.Fatalf("page invalid after compact+seal: %v", err)
		}
		records(q)
	})
}

// FuzzFreeSpaceMap interprets fuzz bytes as an insert/delete/update
// program against a real store and asserts the free-space map,
// directory and pages never drift (CheckConsistency), with a model map
// double-checking every surviving value.
func FuzzFreeSpaceMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x42, 0x81, 0x42, 0x01, 0x43})
	prog := make([]byte, 0, 256)
	for i := 0; i < 128; i++ {
		prog = append(prog, byte(i), byte(i*3))
	}
	f.Add(prog)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Open(NewMemDevice(), Options{PoolPages: 2})
		if err != nil {
			t.Fatal(err)
		}
		model := make(map[string]int64)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			key := fmt.Sprintf("k/%03d", arg)
			if op&0x80 != 0 {
				if err := st.Delete(key); err != nil {
					t.Fatalf("delete %q: %v", key, err)
				}
				delete(model, key)
				continue
			}
			v := int64(op)<<8 | int64(arg)
			if err := st.Put(key, v); err != nil {
				t.Fatalf("put %q: %v", key, err)
			}
			model[key] = v
		}
		if err := st.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		if st.Len() != len(model) {
			t.Fatalf("store %d records, model %d", st.Len(), len(model))
		}
		for k, want := range model {
			if got, ok := st.Get(k); !ok || got != want {
				t.Fatalf("%q = (%d,%v), want (%d,true)", k, got, ok, want)
			}
		}
	})
}
