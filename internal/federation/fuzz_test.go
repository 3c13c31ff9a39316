package federation

import (
	"bytes"
	"reflect"
	"testing"

	"transproc/internal/wal"
)

// FuzzWireDecode fuzzes the frame decoder: arbitrary bytes must either
// decode into a frame or return an error — never panic — and every
// successful decode must re-encode to the identical bytes (the codec
// is canonical: one frame, one byte string).
func FuzzWireDecode(f *testing.F) {
	// Seed corpus: one well-formed frame per message type and per
	// transition reply, plus the malformed classes the decoder
	// distinguishes.
	for t := MsgHello; t <= msgTypeMax; t++ {
		f.Add(EncodePayload(&Frame{Type: t}))
	}
	for _, tr := range transitionReplies() {
		f.Add(EncodePayload(tr.f))
	}
	full := EncodePayload(&Frame{
		Type: MsgDispatch, Status: StOK, Kind: 2, Flag: true, Flag2: true,
		Node: 3, Req: 99, Local: 4, Extra: -1, Tx: 1 << 40, Stamp: -7,
		Gen: 123, Proc: "W1+r2", Origin: "W1", Service: "rm0/c1",
		Subsystem: "rm0", Err: "boom",
		Records: []wal.Record{
			{Type: wal.RecDispatch, Proc: "W1+r2", Local: 4, Service: "rm0/c1", Stamp: 41},
			{Type: wal.RecOutcome, Proc: "W1+r2", Local: 4, Service: "rm0/c1", Subsystem: "rm0", Tx: 9, Outcome: "prepared", Stamp: 42},
			{Type: wal.RecTerminate, Proc: "W1+r2", Committed: true, Stamp: 43},
		},
	})
	f.Add(full)
	f.Add(full[:len(full)-3])  // truncated string inside the last record
	f.Add(full[:len(full)-40]) // truncated record list
	f.Add(full[:fixedHeader])  // strings missing entirely
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(append(append([]byte{}, full...), 1, 2, 3)) // trailing bytes
	bad := append([]byte{}, full...)
	bad[0] = 200 // unknown type
	f.Add(bad)
	// A record whose LSN 0 is written in two bytes: decodes to the same
	// value, so only the minimal-varint rule keeps the codec canonical.
	one := EncodePayload(&Frame{Type: MsgResponse, Records: []wal.Record{{Type: wal.RecStart, Proc: "W1"}}})
	at := len(EncodePayload(&Frame{Type: MsgResponse})) // the record's first byte
	f.Add(append(append(append([]byte{}, one[:at]...), 0x80, 0x00), one[at+1:]...))

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodePayload(b)
		if err != nil {
			if fr != nil {
				t.Fatalf("error %v returned a non-nil frame", err)
			}
			return
		}
		re := EncodePayload(fr)
		if !bytes.Equal(re, b) {
			t.Fatalf("decode/encode not canonical:\nin:  %x\nout: %x", b, re)
		}
		fr2, err := DecodePayload(re)
		if err != nil {
			t.Fatalf("re-decode of canonical bytes failed: %v", err)
		}
		if !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("re-decode mismatch:\n%+v\n%+v", fr, fr2)
		}
	})
}
