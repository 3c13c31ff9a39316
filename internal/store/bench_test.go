package store

import (
	"fmt"
	"testing"
)

// BenchmarkStorePut times a put/delete mix on one page filled to 10 %
// and to 90 %: each iteration deletes a record from the middle of the
// page and puts it back, so the put reuses the dead slot. A page keeps
// its live bytes and dead slots counted, so neither the put nor the
// free-space accounting walks the slot directory: the cost is flat
// across fill levels.
func BenchmarkStorePut(b *testing.B) {
	const keyLen = 16
	perPage := (PageSize - headerSize) / (slotSize + cellOverhead + keyLen)
	for _, fill := range []int{10, 90} {
		b.Run(fmt.Sprintf("fill=%d%%", fill), func(b *testing.B) {
			st := OpenMem(Options{})
			keys := make([]string, perPage*fill/100)
			for i := range keys {
				keys[i] = fmt.Sprintf("key/%0*d", keyLen-4, i)
				if err := st.Put(keys[i], int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			if st.Health().Pages != 1 {
				b.Fatalf("%d records fill %d pages, want one", len(keys), st.Health().Pages)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i%len(keys)]
				if err := st.Delete(k); err != nil {
					b.Fatal(err)
				}
				if err := st.Put(k, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
