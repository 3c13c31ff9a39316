package federation

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"transproc/internal/wal"
)

// allMsgTypes enumerates every defined message type.
func allMsgTypes() []MsgType {
	var ts []MsgType
	for t := MsgHello; t <= msgTypeMax; t++ {
		ts = append(ts, t)
	}
	return ts
}

// allStatuses enumerates every defined status plus the zero value
// (request frames carry status 0).
func allStatuses() []Status {
	ss := []Status{0}
	for s := StOK; s <= statusMax; s++ {
		ss = append(ss, s)
	}
	return ss
}

func randString(rng *rand.Rand, max int) string {
	n := rng.Intn(max + 1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte(rng.Intn(256)))
	}
	return b.String()
}

// randRecords draws a record list (nil when empty, as the decoder
// leaves it).
func randRecords(rng *rand.Rand, max int) []wal.Record {
	var recs []wal.Record
	for n := rng.Intn(max + 1); n > 0; n-- {
		recs = append(recs, wal.Record{
			Type: wal.RecType(rng.Intn(int(wal.RecTerminate) + 1)), Proc: randString(rng, 16),
			Local: int(int32(rng.Uint32())), Service: randString(rng, 16), Subsystem: randString(rng, 16),
			Tx: rng.Int63() - rng.Int63(), Outcome: randString(rng, 10),
			Committed: rng.Intn(2) == 0, Commit: rng.Intn(2) == 0, Stamp: rng.Int63(),
		})
	}
	return recs
}

func randFrame(rng *rand.Rand) *Frame {
	types := allMsgTypes()
	statuses := allStatuses()
	extremes := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	i64 := func() int64 {
		if rng.Intn(3) == 0 {
			return extremes[rng.Intn(len(extremes))]
		}
		return rng.Int63() - rng.Int63()
	}
	return &Frame{
		Type:   types[rng.Intn(len(types))],
		Status: statuses[rng.Intn(len(statuses))],
		Kind:   uint8(rng.Intn(256)),
		Flag:   rng.Intn(2) == 0,
		Flag2:  rng.Intn(2) == 0,
		Node:   rng.Uint32(),
		Epoch:  rng.Uint32(),
		Req:    rng.Uint64(),
		Local:  int32(rng.Uint32()),
		Extra:  int32(rng.Uint32()),
		Tx:     i64(), Stamp: i64(), Gen: i64(),
		Proc: randString(rng, 64), Origin: randString(rng, 64),
		Service: randString(rng, 64), Subsystem: randString(rng, 64),
		Err: randString(rng, 128), Records: randRecords(rng, 6),
	}
}

// transitionReplies are the replies of the nine transitions that were
// message types of their own while the node ran the second half of each:
// what they said in fixed frame fields they now say as stamped records
// on a dispatch reply. Named as the messages were.
func transitionReplies() []struct {
	name string
	f    *Frame
} {
	rec := func(typ wal.RecType, stamp int64) wal.Record {
		return wal.Record{Type: typ, Proc: "W1+r2", Local: 4, Service: "rm0/c1", Subsystem: "rm0", Tx: 9, Stamp: stamp}
	}
	proc := func(typ wal.RecType, stamp int64) wal.Record {
		return wal.Record{Type: typ, Proc: "W1+r2", Stamp: stamp}
	}
	with := func(r wal.Record, set func(*wal.Record)) wal.Record { set(&r); return r }
	reply := func(st Status, recs ...wal.Record) *Frame {
		return &Frame{Type: MsgResponse, Status: st, Epoch: 2, Gen: recs[len(recs)-1].Stamp, Records: recs}
	}
	done := reply(StDone, with(proc(wal.RecTerminate, 61), func(r *wal.Record) { r.Committed = true }))
	done.Extra, done.Flag = ReattachCommitted, false
	return []struct {
		name string
		f    *Frame
	}{
		{"commit-local", reply(StOK, with(rec(wal.RecResolved, 43), func(r *wal.Record) { r.Commit = true }))},
		{"step-dispatch", reply(StOK, with(rec(wal.RecDispatch, 44), func(r *wal.Record) { r.Subsystem, r.Tx = "", 0 }),
			rec(wal.RecCompensate, 45))},
		{"step-commit", reply(StOK, with(rec(wal.RecOutcome, 46), func(r *wal.Record) { r.Outcome = "committed" }))},
		{"failed", reply(StOK, with(rec(wal.RecFailed, 47), func(r *wal.Record) { r.Subsystem, r.Tx = "", 0 }))},
		{"abort-tx", reply(StOK, rec(wal.RecResolved, 48))},
		{"abort-begin", reply(StOK, proc(wal.RecAbortBegin, 49))},
		{"commit-clear", reply(StOK, proc(wal.RecDecision, 50))},
		{"resolve", reply(StOK, with(rec(wal.RecResolved, 51), func(r *wal.Record) { r.Commit = true }),
			with(rec(wal.RecResolved, 52), func(r *wal.Record) { r.Commit, r.Local = true, 5 }))},
		{"terminate", done},
	}
}

// TestWireRoundTrip is the codec property test: for every message
// type — including the zero-value frame of the type, a frame with
// every string at MaxString and extreme integer values and one with
// MaxRecords records — for the reply of every transition that once was
// a message, and for a large randomized sample, encode→decode must
// reproduce the frame exactly, both at the payload layer and through
// the length-prefixed stream layer.
func TestWireRoundTrip(t *testing.T) {
	check := func(t *testing.T, f *Frame) {
		t.Helper()
		got, err := DecodePayload(EncodePayload(f))
		if err != nil {
			t.Fatalf("decode of encoded frame %+v: %v", f, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Fatalf("payload round-trip mismatch:\nin:  %+v\nout: %+v", f, got)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err = ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read of written frame: %v", err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Fatalf("stream round-trip mismatch:\nin:  %+v\nout: %+v", f, got)
		}
		if buf.Len() != 0 {
			t.Fatalf("ReadFrame left %d bytes unread", buf.Len())
		}
	}

	maxStr := strings.Repeat("x", MaxString)
	for _, typ := range allMsgTypes() {
		typ := typ
		t.Run(typ.String(), func(t *testing.T) {
			// Zero value of the type.
			check(t, &Frame{Type: typ})
			// Every status.
			for _, st := range allStatuses() {
				check(t, &Frame{Type: typ, Status: st})
			}
			// Max-size strings and extreme integers.
			check(t, &Frame{
				Type: typ, Status: statusMax, Kind: 255, Flag: true, Flag2: true,
				Node: math.MaxUint32, Epoch: math.MaxUint32, Req: math.MaxUint64,
				Local: math.MinInt32, Extra: math.MaxInt32,
				Tx: math.MinInt64, Stamp: math.MaxInt64, Gen: math.MinInt64,
				Proc: maxStr, Origin: maxStr, Service: maxStr,
				Subsystem: maxStr, Err: maxStr,
				Records: []wal.Record{{
					Type: wal.RecTerminate, Proc: maxStr, Local: math.MinInt32, Service: maxStr,
					Subsystem: maxStr, Tx: math.MinInt64, Outcome: maxStr, Committed: true, Commit: true, Stamp: math.MaxInt64,
				}},
			})
			// A full record list.
			full := &Frame{Type: typ, Records: make([]wal.Record, MaxRecords)}
			for i := range full.Records {
				full.Records[i] = wal.Record{Type: wal.RecResolved, Proc: "W1", Local: i, Stamp: int64(i + 1), Commit: true}
			}
			check(t, full)
		})
	}

	for _, tr := range transitionReplies() {
		t.Run(tr.name, func(t *testing.T) { check(t, tr.f) })
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		check(t, randFrame(rng))
	}
}

// TestWireRejectsMalformed pins the decoder's error contract on the
// malformed classes the fuzz target explores.
func TestWireRejectsMalformed(t *testing.T) {
	valid := EncodePayload(&Frame{Type: MsgDispatch, Proc: "W1", Service: "svc"})

	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short-header", valid[:fixedHeader-1], ErrTruncated},
		{"bad-type-zero", append([]byte{0}, valid[1:]...), ErrBadType},
		{"bad-type-high", append([]byte{255}, valid[1:]...), ErrBadType},
		{"bad-status", append([]byte{valid[0], 255}, valid[2:]...), ErrBadStatus},
		{"truncated-string", valid[:len(valid)-1], ErrTruncated},
		{"trailing", append(append([]byte{}, valid...), 0), ErrTrailing},
		{"oversize", make([]byte, MaxFrame+1), ErrFrameTooLarge},
	}
	for _, tc := range cases {
		if _, err := DecodePayload(tc.b); err != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// Flag bits beyond the defined two are rejected.
	bad := append([]byte{}, valid...)
	bad[3] = 4
	if _, err := DecodePayload(bad); err == nil {
		t.Error("invalid flag bits accepted")
	}

	// A string length claiming more than MaxString is rejected even
	// when the payload is big enough to hold it.
	enc := EncodePayload(&Frame{Type: MsgHello})
	binary.LittleEndian.PutUint16(enc[fixedHeader:], 0xFFFF) // Proc length
	if _, err := DecodePayload(append(enc, make([]byte, MaxFrame-len(enc)-10)...)); err != ErrBadString {
		t.Errorf("oversize string length: got %v, want %v", err, ErrBadString)
	}

	// The record list is outside input like the rest of the frame. It is
	// the WAL codec's counted list of live records: a uvarint count, then
	// per record four zigzag varints (LSN, Local, Tx, Stamp; one byte each
	// here), Type, flags and four uvarint-prefixed strings.
	rec := wal.Record{Type: wal.RecOutcome, Proc: "W1", Local: 2, Service: "svc", Subsystem: "rm", Tx: 5, Outcome: "prepared", Stamp: 8}
	withRecs := EncodePayload(&Frame{Type: MsgResponse, Status: StOK, Records: []wal.Record{rec, rec}})
	count := len(EncodePayload(&Frame{Type: MsgResponse, Status: StOK})) - 1 // offset of the record count
	oneRec := (len(withRecs) - count - 1) / 2
	const typeAt, flagsAt, procAt = 4, 5, 6 // offsets within a record
	patch := func(at int, v ...byte) []byte {
		b := append([]byte{}, withRecs...)
		copy(b[at:], v)
		return b
	}
	// splice replaces the byte at at with v.
	splice := func(at int, v ...byte) []byte {
		return append(append(append([]byte{}, withRecs[:at]...), v...), withRecs[at+1:]...)
	}
	for _, tc := range []struct {
		name string
		b    []byte
		want error
	}{
		{"count-missing", withRecs[:count], ErrTruncated},
		{"list-truncated-between-records", withRecs[:count+1+oneRec], ErrTruncated},
		{"list-truncated-in-header", withRecs[:count+1+oneRec+5], ErrTruncated},
		{"list-truncated-in-string", withRecs[:len(withRecs)-2], ErrTruncated},
		{"count-understates", patch(count, 1), ErrTrailing},
		{"count-over-MaxRecords", splice(count, 0x80, 0x02), ErrBadRecord},
		{"record-type", patch(count+1+typeAt, byte(wal.RecCheckpoint)), ErrBadRecord},
		{"record-flags", patch(count+1+flagsAt, 4), ErrBadRecord},
		{"record-flags-unknown", patch(count+1+flagsAt, 8), ErrBadRecord},
		{"record-string-oversize", patch(count+1+procAt, 0x81, 0x20), ErrBadString}, // MaxString+1
		{"record-varint-overlong", splice(count+1, 0x80, 0x00), ErrBadRecord},       // LSN 0 in two bytes
	} {
		if _, err := DecodePayload(tc.b); err != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// A count that overruns MaxFrame: 255 records claimed, two present,
	// garbage up to MaxFrame behind them. Rejected at the first malformed
	// record, having allocated for the records actually parsed — not for
	// the claimed count.
	claimed := splice(count, 0xFF, 0x01)
	overrun := append(claimed, bytes.Repeat([]byte{0xFF}, MaxFrame-len(claimed))...)
	var err error
	allocs := testing.AllocsPerRun(20, func() { _, err = DecodePayload(overrun) })
	if err != ErrBadRecord {
		t.Errorf("count overrunning MaxFrame: got %v, want %v", err, ErrBadRecord)
	}
	if allocs > 20 {
		t.Errorf("decoding an overrunning count allocated %.0f times; the list must grow by records parsed", allocs)
	}
	if _, err := DecodePayload(claimed); err != ErrTruncated {
		t.Errorf("count overrunning the payload: got %v, want %v", err, ErrTruncated)
	}

	// More records than MaxRecords never reach the wire.
	tooMany := &Frame{Type: MsgResponse, Records: make([]wal.Record, MaxRecords+1)}
	if err := WriteFrame(&bytes.Buffer{}, tooMany); err != ErrFrameTooLarge {
		t.Errorf("writing %d records: got %v, want %v", len(tooMany.Records), err, ErrFrameTooLarge)
	}
	// Nor does a string the decoder would refuse, in the frame or in a
	// record.
	long := strings.Repeat("x", MaxString+1)
	for _, f := range []*Frame{
		{Type: MsgResponse, Status: StError, Err: long},
		{Type: MsgResponse, Records: []wal.Record{{Type: wal.RecStart, Proc: long}}},
	} {
		if err := WriteFrame(&bytes.Buffer{}, f); err != ErrBadString {
			t.Errorf("writing a %d-byte string: got %v, want %v", MaxString+1, err, ErrBadString)
		}
	}
	// Nor does a record that is no live record: a checkpoint never travels.
	for _, r := range []wal.Record{{Type: wal.RecCheckpoint}, {Type: wal.RecStart, Checkpoint: &wal.Checkpoint{}}} {
		f := &Frame{Type: MsgResponse, Records: []wal.Record{r}}
		if err := WriteFrame(&bytes.Buffer{}, f); err != ErrBadRecord {
			t.Errorf("writing a %v record with checkpoint %v: got %v, want %v", r.Type, r.Checkpoint != nil, err, ErrBadRecord)
		}
	}
}

// TestHubErrorOverMaxStringReachesNode: a hub diagnostic longer than
// MaxString (an "unresolvable stall" carries the whole hub dump) is
// clipped with a visible mark, so the node reads the message instead of
// a codec error.
func TestHubErrorOverMaxStringReachesNode(t *testing.T) {
	for _, msg := range []string{
		strings.Repeat("d", MaxString+1),
		strings.Repeat("≪", MaxString), // clipped on a rune boundary
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, (&Hub{}).errf("unresolvable stall\n%s", msg)); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if len(got.Err) > MaxString || !strings.HasPrefix(got.Err, "unresolvable stall\n"+msg[:100]) ||
			!strings.HasSuffix(got.Err, "[clipped]") || !utf8.ValidString(got.Err) {
			t.Fatalf("clipped message: %d bytes, %q … %q", len(got.Err), got.Err[:40], got.Err[len(got.Err)-40:])
		}
	}
}
