package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// enc encodes r, panicking on a record the codec refuses (fixtures and
// fuzz seeds only).
func enc(r Record) []byte {
	b, err := encodeRecord(&r)
	if err != nil {
		panic(err)
	}
	return b
}

// fullCheckpoint sets every field of a checkpoint.
func fullCheckpoint() *Checkpoint {
	return &Checkpoint{
		Horizon: 41,
		Live: []Record{
			{LSN: 3, Type: RecStart, Proc: "L1"},
			{LSN: 7, Type: RecOutcome, Proc: "L1", Local: -2, Service: "svc⁻¹", Subsystem: "rm0", Tx: math.MinInt64, Outcome: "prepared", Stamp: 9},
			{LSN: 40, Type: RecResolved, Proc: "L2+r1", Local: 4, Commit: true, Committed: true},
		},
		AppliedSvc: map[string]int64{"a": 2, "b": math.MaxInt64, "": 0, "c⁻¹": 1},
		Edges:      [][2]string{{"L1", "L2+r1"}, {"L2+r1", ""}},
		Shadow:     map[string][]string{"L1": {"x", "y"}, "L2+r1": {""}, "L3": {"z"}},
		Procs:      2,
		Dropped:    math.MaxInt32 + 1,
		Truncated:  true,
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	t.Parallel()
	long := strings.Repeat("p⁻¹", 50_000)
	var recs []Record
	for typ := RecStart; typ <= RecCheckpoint; typ++ {
		recs = append(recs, Record{LSN: int64(typ) + 1, Type: typ, Proc: "P1"})
	}
	recs = append(recs,
		Record{},
		Record{LSN: math.MaxInt64, Type: RecOutcome, Proc: long, Local: -7, Service: long, Subsystem: "rm0",
			Tx: math.MinInt64, Outcome: "committed", Committed: true, Commit: true, Stamp: math.MaxInt64},
		Record{LSN: math.MinInt64, Type: RecResolved, Local: math.MinInt, Tx: math.MaxInt64, Stamp: math.MinInt64, Commit: true},
		Record{LSN: 42, Type: RecCheckpoint, Checkpoint: fullCheckpoint()},
		Record{LSN: 43, Type: RecCheckpoint, Checkpoint: &Checkpoint{}},
	)
	for _, r := range recs {
		got, err := decodeRecord(enc(r))
		if err != nil {
			t.Fatalf("decode of %v record: %v", r.Type, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
		}
	}
}

// Equal checkpoints encode to equal bytes, whatever the order their maps
// were filled in or are iterated in.
func TestRecordCodecDeterministic(t *testing.T) {
	t.Parallel()
	want := enc(Record{LSN: 42, Type: RecCheckpoint, Checkpoint: fullCheckpoint()})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		cp := fullCheckpoint()
		applied, shadow := map[string]int64{}, map[string][]string{}
		for _, j := range rng.Perm(len(cp.AppliedSvc)) {
			k := []string{"a", "b", "", "c⁻¹"}[j]
			applied[k] = cp.AppliedSvc[k]
		}
		for _, j := range rng.Perm(len(cp.Shadow)) {
			k := []string{"L1", "L2+r1", "L3"}[j]
			shadow[k] = cp.Shadow[k]
		}
		cp.AppliedSvc, cp.Shadow = applied, shadow
		if got := enc(Record{LSN: 42, Type: RecCheckpoint, Checkpoint: cp}); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

// nestedCheckpoint is a checkpoint record whose live record carries a
// checkpoint of its own, which the encoder refuses to write.
func nestedCheckpoint() []byte {
	placeholder := Record{LSN: 3, Type: RecStart, Proc: "L1"}
	outer := enc(Record{LSN: 5, Type: RecCheckpoint, Checkpoint: &Checkpoint{Horizon: 4, Live: []Record{placeholder}}})
	body, _ := appendRecordBody(nil, &placeholder, false)
	inner, _ := appendRecordBody(nil, &Record{LSN: 3, Type: RecCheckpoint, Checkpoint: &Checkpoint{Horizon: 2}}, true)
	return bytes.Replace(outer, body, inner, 1)
}

func TestRecordCodecRejects(t *testing.T) {
	t.Parallel()
	// Small values keep every varint at one byte: Type sits at offset 5
	// and the flags at offset 6.
	valid := enc(Record{LSN: 3, Type: RecOutcome, Proc: "P1", Local: 2, Service: "svc", Outcome: "committed"})
	patch := func(at int, v byte) []byte {
		b := append([]byte(nil), valid...)
		b[at] = v
		return b
	}
	// overlong writes the one-byte varint at at in two bytes: the same
	// value, not in its one encoding.
	overlong := func(p []byte, at int) []byte {
		return append(append(append([]byte(nil), p[:at]...), p[at]|0x80, 0), p[at+1:]...)
	}
	// An empty checkpoint's Live count is its seventh byte from the end.
	ckpt := enc(Record{LSN: 10, Type: RecCheckpoint, Checkpoint: &Checkpoint{Horizon: 9}})
	// A live record whose Type says checkpoint: its Type byte follows the
	// 11-byte outer header, Horizon, the Live count and four varints.
	liveType := enc(Record{LSN: 5, Type: RecCheckpoint, Checkpoint: &Checkpoint{Horizon: 4, Live: []Record{{LSN: 3, Proc: "L1"}}}})
	liveType[11+2+4] = byte(RecCheckpoint)
	for _, tc := range []struct {
		name, want string
		p          []byte
	}{
		{"empty", "truncated", nil},
		{"json", "retired JSON", []byte(`{"lsn":1,"type":0,"proc":"W1"}`)},
		{"format", "unknown record format", patch(0, 2)},
		{"type", "unknown record type", patch(5, byte(RecCheckpoint)+1)},
		{"flags", "unknown flag bits", patch(6, 8)},
		{"trailing", "trailing", append(append([]byte(nil), valid...), 0)},
		{"string-overruns", "exceeds", patch(7, 100)},
		{"nested-checkpoint", "live record carries a checkpoint", nestedCheckpoint()},
		{"live-checkpoint-type", "live record of type checkpoint", liveType},
		{"overlong-lsn", "overlong varint", overlong(valid, 1)},
		{"overlong-string-length", "overlong varint", overlong(valid, 7)},
		{"overlong-checkpoint-count", "overlong varint", overlong(ckpt, len(ckpt)-7)},
	} {
		if _, err := decodeRecord(tc.p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// A payload cut at any byte is refused.
	full := enc(Record{LSN: 42, Type: RecCheckpoint, Proc: "c", Checkpoint: fullCheckpoint()})
	for k := 0; k < len(full); k++ {
		if _, err := decodeRecord(full[:k]); err == nil {
			t.Fatalf("payload cut at %d of %d bytes accepted", k, len(full))
		}
	}

	// Nothing the decoder refuses is written in the first place.
	for _, r := range []Record{
		{Type: RecCheckpoint + 1},
		{Type: -1},
		{Type: RecCheckpoint, Checkpoint: &Checkpoint{Live: []Record{{Type: RecCheckpoint, Checkpoint: &Checkpoint{}}}}},
		{Type: RecCheckpoint, Checkpoint: &Checkpoint{Live: []Record{{Type: RecCheckpoint}}}},
	} {
		if _, err := encodeRecord(&r); err == nil {
			t.Errorf("encoder accepted %+v", r)
		}
	}
}

// A count is checked against the bytes left before anything is allocated
// for it, and a list grows by the entries actually parsed: a payload
// claiming 100,000 live records but holding two and then garbage costs
// what the two cost.
// hostileCounts returns two checkpoint payloads whose Live count claims
// far more records than follow: one more than the bytes left could hold,
// one within them but padded with garbage.
func hostileCounts() []struct {
	name string
	p    []byte
} {
	// Every field of the empty checkpoint after Horizon is one byte:
	// the Live count and the six after it.
	head := enc(Record{LSN: 10, Type: RecCheckpoint, Checkpoint: &Checkpoint{Horizon: 9}})
	live, _ := appendRecordBody(nil, &Record{LSN: 1, Proc: "L1"}, false)
	claim := func(n uint64, garbage int) []byte {
		b := binary.AppendUvarint(append([]byte(nil), head[:len(head)-7]...), n)
		b = append(append(b, live...), live...)
		return append(b, bytes.Repeat([]byte{0xFF}, garbage)...)
	}
	return []struct {
		name string
		p    []byte
	}{
		{"count over the bytes left", claim(1<<40, 64)},
		{"count within the bytes left", claim(100_000, 100_000*minRecordBody)},
	}
}

func TestRecordCodecCountAllocatesByParsed(t *testing.T) {
	for _, tc := range hostileCounts() {
		var err error
		allocs := testing.AllocsPerRun(20, func() { _, err = decodeRecord(tc.p) })
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decodeRecord(tc.p)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; allocs > 20 || n > 16<<10 {
			t.Errorf("%s: %.0f allocations, %d bytes; the list must grow by records parsed", tc.name, allocs, n)
		}
	}
}

// TestRecordCodecCountEdges holds a count to the bytes left at its exact
// edges: entries that fill them are accepted, one more is short, and a
// count whose entries' size would wrap 64 bits is refused, not wrapped.
func TestRecordCodecCountEdges(t *testing.T) {
	for _, size := range []int{1, 2, minRecordBody} {
		for _, tc := range []struct {
			n    uint64
			left int
			ok   bool
		}{
			{3, 3 * size, true},
			{4, 4*size - 1, false},
			{200, 200 * size, true}, // a two-byte count
			{201, 201*size - 1, false},
			{math.MaxUint64/uint64(size) + 1, 64, false},
		} {
			if size == 1 && tc.n == 0 {
				continue // MaxUint64 + 1: no count to write
			}
			d := decoder{b: append(binary.AppendUvarint(nil, tc.n), make([]byte, tc.left)...)}
			got := d.count(size, 0, nil)
			switch {
			case tc.ok && (d.err != nil || got != int(tc.n) || len(d.rest()) != tc.left):
				t.Errorf("size %d: count %d over %d bytes = %d, %v with %d bytes left; want it accepted", size, tc.n, tc.left, got, d.err, len(d.rest()))
			case !tc.ok && (d.err == nil || d.class != ErrShortRecord):
				t.Errorf("size %d: count %d over %d bytes = %d, %v (%v); want ErrShortRecord", size, tc.n, tc.left, got, d.err, d.class)
			}
		}
	}
}

// TestScanRecordAllocatesNothing pins what OpenFile and the replay fold
// pay per frame: the validating scan reads a record with four strings
// without allocating.
func TestScanRecordAllocatesNothing(t *testing.T) {
	want := Record{LSN: 9, Type: RecOutcome, Proc: "W1", Local: 1, Service: "s", Subsystem: "rm0", Tx: 7, Outcome: "committed"}
	p := enc(want)
	var r Record
	var err error
	if allocs := testing.AllocsPerRun(100, func() { err = scanRecord(p, &r) }); allocs != 0 || err != nil || r != want {
		t.Fatalf("scanRecord = %+v, %v with %.0f allocations; want %+v, nil with none", r, err, allocs, want)
	}
}

// FuzzRecordDecode feeds arbitrary payloads to the record decoder: it
// never panics, the validating scan OpenFile and the replay fold run
// accepts exactly what it accepts (same error) and reads the same record
// but for the checkpoint payload, and a payload it accepts re-encodes to
// one that decodes to an equal record.
func FuzzRecordDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(enc(Record{LSN: 1, Type: RecStart, Proc: "W1"}))
	f.Add(enc(Record{LSN: 2, Type: RecOutcome, Proc: "W1", Local: 1, Service: "s", Subsystem: "rm0", Tx: 7, Outcome: "prepared", Stamp: 3}))
	f.Add(enc(Record{LSN: 42, Type: RecCheckpoint, Checkpoint: fullCheckpoint()}))
	f.Add(nestedCheckpoint())
	lsn := enc(Record{LSN: 1, Type: RecStart, Proc: "W1"})
	f.Add(append([]byte{lsn[0], lsn[1] | 0x80, 0}, lsn[2:]...)) // overlong LSN
	f.Add([]byte(`{"lsn":1,"type":0,"proc":"W1"}`))
	for _, tc := range hostileCounts() {
		f.Add(tc.p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := decodeRecord(p)
		var s Record
		serr := scanRecord(p, &s)
		bare := r
		bare.Checkpoint = nil
		if fmt.Sprint(serr) != fmt.Sprint(err) || err == nil && s != bare {
			t.Fatalf("scan and decode disagree: scan %+v, %v; decode %+v, %v", s, serr, r, err)
		}
		if err != nil {
			return
		}
		if tx := txOf(p); tx != r.tx() {
			t.Fatalf("txOf = %+v, the record names %+v", tx, r.tx())
		}
		if id := txIDOf(p); id != r.Tx {
			t.Fatalf("txIDOf = %d, the record names %d", id, r.Tx)
		}
		b, err := encodeRecord(&r)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		again, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("re-encoded record refused: %v", err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("re-encode changed the record:\n got %+v\nwant %+v", again, r)
		}
	})
}
