package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"unsafe"
)

// The record codec: the payload of every FileLog frame, laid out in
// DESIGN.md §6k ("WAL records"). The file is outside input: every count
// and string length is checked against the bytes left before anything is
// allocated for it.
const (
	recordFormat   = 1
	flagCommitted  = 1
	flagCommit     = 2
	flagCheckpoint = 4
	flagsKnown     = flagCommitted | flagCommit | flagCheckpoint
	minRecordBody  = 10 // four one-byte varints, Type, flags, four empty strings
)

// encodeRecord returns r's payload; equal records encode equally.
func encodeRecord(r *Record) ([]byte, error) {
	return appendRecordBody([]byte{recordFormat}, r, true)
}

// appendRecordBody appends r without the format byte (top: not a live
// record, which is neither a checkpoint nor carries one).
func appendRecordBody(b []byte, r *Record, top bool) ([]byte, error) {
	if r.Type < 0 || r.Type > RecCheckpoint || !top && (r.Type == RecCheckpoint || r.Checkpoint != nil) {
		return nil, fmt.Errorf("wal: cannot encode a %v record (a live record is no checkpoint and carries none)", r.Type)
	}
	for _, v := range [...]int64{r.LSN, int64(r.Local), r.Tx, r.Stamp} {
		b = binary.AppendVarint(b, v)
	}
	b = append(b, byte(r.Type), bit(r.Committed, flagCommitted)|bit(r.Commit, flagCommit)|bit(r.Checkpoint != nil, flagCheckpoint))
	for _, s := range [...]string{r.Proc, r.Service, r.Subsystem, r.Outcome} {
		b = appendString(b, s)
	}
	c := r.Checkpoint
	if c == nil {
		return b, nil
	}
	b = binary.AppendUvarint(binary.AppendVarint(b, c.Horizon), uint64(len(c.Live)))
	for i := range c.Live {
		var err error
		if b, err = appendRecordBody(b, &c.Live[i], false); err != nil {
			return nil, err
		}
	}
	b = binary.AppendUvarint(b, uint64(len(c.AppliedSvc)))
	for _, k := range slices.Sorted(maps.Keys(c.AppliedSvc)) {
		b = binary.AppendVarint(appendString(b, k), c.AppliedSvc[k])
	}
	b = binary.AppendUvarint(b, uint64(len(c.Edges)))
	for _, e := range c.Edges {
		b = appendString(appendString(b, e[0]), e[1])
	}
	b = binary.AppendUvarint(b, uint64(len(c.Shadow)))
	for _, k := range slices.Sorted(maps.Keys(c.Shadow)) {
		b = binary.AppendUvarint(appendString(b, k), uint64(len(c.Shadow[k])))
		for _, s := range c.Shadow[k] {
			b = appendString(b, s)
		}
	}
	b = binary.AppendVarint(binary.AppendVarint(b, int64(c.Procs)), int64(c.Dropped))
	return append(b, bit(c.Truncated, 1)), nil
}

func bit(on bool, v byte) byte {
	if on {
		return v
	}
	return 0
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// The classes of refusal DecodeRecords and AppendRecords report: every
// error they return wraps one.
var (
	ErrShortRecord = errors.New("wal: record list truncated")
	ErrLongString  = errors.New("wal: string over its cap")
	ErrBadRecord   = errors.New("wal: malformed record")
)

// AppendRecords appends recs as a counted list of live records, each the
// codec's record body without the format byte: the list DecodeRecords
// reads, for a reader that frames records itself (the federation wire).
// It refuses a record that is no live record (a Type past RecTerminate,
// a checkpoint) and a string longer than maxString.
func AppendRecords(b []byte, recs []Record, maxString int) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		if max(len(r.Proc), len(r.Service), len(r.Subsystem), len(r.Outcome)) > maxString {
			return nil, ErrLongString
		}
		var err error
		if b, err = appendRecordBody(b, r, false); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
	}
	return b, nil
}

// DecodeRecords reads a list AppendRecords wrote from the front of b and
// returns it with the bytes after it. b is outside input, held to the
// rules of a WAL payload and to two caps: at most maxRecords records,
// no string longer than maxString. A refusal wraps ErrShortRecord when b
// ends inside the list, ErrLongString for a string over the cap, and
// ErrBadRecord for anything else.
func DecodeRecords(b []byte, maxRecords, maxString int) ([]Record, []byte, error) {
	if len(b) > 0 && b[0] == 0 {
		return nil, b[1:], nil // an empty list, what most frames carry
	}
	d := decoder{b: b, maxString: maxString}
	recs := list(&d, d.count(minRecordBody, maxRecords, ErrBadRecord), d.liveRecord)
	if d.err != nil {
		return nil, nil, fmt.Errorf("%w: %v", d.class, d.err)
	}
	return recs, d.rest(), nil
}

// decodeRecord parses one payload; DESIGN.md §6k lists what it refuses.
func decodeRecord(p []byte) (r Record, err error) {
	err = parseRecord(p, false, &r)
	return r, err
}

// scanRecord validates one payload under exactly decodeRecord's rules and
// reads its record into r without materialising anything: no checkpoint
// payload, and strings that share p's bytes, so a caller clones the ones
// it keeps.
func scanRecord(p []byte, r *Record) error { return parseRecord(p, true, r) }

// txOf reads the transaction a payload scanRecord accepted names: its
// Tx, Service and Subsystem, where d.record reads them from
// (FuzzRecordDecode holds the two to the same fields). It checks
// nothing, and its strings share p's bytes.
func txOf(p []byte) PreparedTx {
	var v [7]uint64 // LSN, Local, Tx, Stamp, then the lengths of Proc, Service and Subsystem
	var s [3]string
	i := 1 // past the format byte
	for k := range v {
		if k == 4 {
			i += 2 // Type and flags
		}
		var n int
		v[k], n = binary.Uvarint(p[i:])
		if i += n; k >= 4 {
			s[k-4] = unsafe.String(unsafe.SliceData(p[i:]), v[k])
			i += int(v[k])
		}
	}
	return PreparedTx{Subsystem: s[2], Tx: int64(v[2]>>1) ^ -int64(v[2]&1), Service: s[1]}
}

// txIDOf reads the Tx of a payload scanRecord accepted, where txOf
// reads it, and nothing after it.
func txIDOf(p []byte) int64 {
	i := 1        // past the format byte
	for range 2 { // LSN and Local
		_, n := binary.Uvarint(p[i:])
		i += n
	}
	v, _ := binary.Uvarint(p[i:])
	return int64(v>>1) ^ -int64(v&1)
}

func parseRecord(p []byte, skip bool, r *Record) error {
	d := decoder{b: p, skip: skip}
	if f := d.u8(); f == '{' {
		*r = Record{}
		return errors.New("payload in the retired JSON record format (such logs are refused, not migrated)")
	} else if d.err == nil && f != recordFormat {
		*r = Record{}
		return fmt.Errorf("unknown record format %#x", f)
	}
	d.record(r, true)
	if n := len(d.rest()); n > 0 {
		d.fail(ErrBadRecord, "%d trailing bytes", n)
	}
	return d.err
}

// decoder reads a payload front to back, b[i:] being what is left; after
// its first failure it reads zeros. A cursor, not a reslice, so that a
// read stores no pointer. A skipping decoder checks everything and keeps
// no list entry, map entry or checkpoint; its strings share the
// payload's bytes instead of copying them. maxString, when positive,
// caps every string.
type decoder struct {
	b         []byte
	i         int
	err       error
	class     error // the refusal class err belongs to
	skip      bool
	maxString int
}

func (d *decoder) fail(class error, format string, args ...any) {
	if d.err == nil {
		d.err, d.class = fmt.Errorf(format, args...), class
	}
	d.i = len(d.b)
}

// rest returns the bytes left.
func (d *decoder) rest() []byte { return d.b[d.i:] }

func (d *decoder) u8() (v byte) {
	if d.i >= len(d.b) {
		d.fail(ErrShortRecord, "truncated record")
		return 0
	}
	v = d.b[d.i]
	d.i++
	return v
}

// uvarint reads an unsigned varint, most often one byte. It refuses a
// truncated varint, an overflowing one and one that is not minimal (a
// final zero byte after the first), so that one value has one encoding.
func (d *decoder) uvarint() uint64 {
	if d.i < len(d.b) && d.b[d.i] < 0x80 {
		d.i++
		return uint64(d.b[d.i-1])
	}
	b := d.rest()
	v, n := binary.Uvarint(b)
	switch {
	case n == 0:
		d.fail(ErrShortRecord, "truncated varint")
	case n < 0 || n > 1 && b[n-1] == 0:
		d.fail(ErrBadRecord, "overlong varint")
	default:
		d.i += n
		return v
	}
	return 0
}

// varint reads a zigzag varint under uvarint's rules.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a length or entry count under uvarint's rules. It refuses
// one over limit (when positive) as class over, and one whose entries,
// at least size bytes each, could not fit in the bytes left: v ≤ left
// keeps v*size from overflowing, size being a small constant.
func (d *decoder) count(size, limit int, over error) int {
	had := len(d.rest())
	v := d.uvarint()
	switch left := uint64(len(d.rest())); {
	case d.err != nil:
	case limit > 0 && v > uint64(limit):
		d.fail(over, "count %d over the cap of %d", v, limit)
	case v > left || v*uint64(size) > left:
		d.fail(ErrShortRecord, "count exceeds the %d bytes left", had)
	default:
		return int(v)
	}
	return 0
}

func (d *decoder) str() (s string) {
	n := d.count(1, d.maxString, ErrLongString)
	switch {
	case n == 0:
	case d.skip:
		s = unsafe.String(&d.b[d.i], n)
	default:
		s = string(d.b[d.i : d.i+n])
	}
	d.i += n
	return s
}

// list reads n entries, growing the list by the entries actually parsed.
func list[T any](d *decoder, n int, entry func() T) []T {
	var out []T
	for ; n > 0 && d.err == nil; n-- {
		if e := entry(); !d.skip {
			out = append(out, e)
		}
	}
	return out
}

// dict reads a counted map of string keys, nil when empty.
func dict[V any](d *decoder, value func() V) map[string]V {
	var m map[string]V
	for n := d.count(2, 0, nil); n > 0 && d.err == nil; n-- {
		k := d.str()
		if v := value(); !d.skip {
			if m == nil {
				m = make(map[string]V)
			}
			m[k] = v
		}
	}
	return m
}

// liveRecord reads a live record: a checkpoint's, or one of a list.
func (d *decoder) liveRecord() (r Record) {
	d.record(&r, false)
	return r
}

func (d *decoder) record(r *Record, top bool) {
	r.LSN, r.Local, r.Tx, r.Stamp = d.varint(), int(d.varint()), d.varint(), d.varint()
	r.Type = RecType(d.u8())
	flags := d.u8()
	switch {
	case r.Type > RecCheckpoint:
		d.fail(ErrBadRecord, "unknown record type %d", r.Type)
	case flags&^flagsKnown != 0:
		d.fail(ErrBadRecord, "unknown flag bits %#x", flags)
	case flags&flagCheckpoint != 0 && !top:
		d.fail(ErrBadRecord, "a live record carries a checkpoint")
	case r.Type == RecCheckpoint && !top:
		d.fail(ErrBadRecord, "a live record of type checkpoint")
	}
	r.Committed, r.Commit = flags&flagCommitted != 0, flags&flagCommit != 0
	r.Proc, r.Service, r.Subsystem, r.Outcome = d.str(), d.str(), d.str(), d.str()
	r.Checkpoint = nil
	if flags&flagCheckpoint != 0 && d.err == nil {
		if c := d.checkpoint(); !d.skip {
			r.Checkpoint = c
		}
	}
}

func (d *decoder) checkpoint() *Checkpoint {
	c := &Checkpoint{Horizon: d.varint()}
	c.Live = list(d, d.count(minRecordBody, 0, nil), d.liveRecord)
	c.AppliedSvc = dict(d, d.varint)
	c.Edges = list(d, d.count(2, 0, nil), func() [2]string { return [2]string{d.str(), d.str()} })
	c.Shadow = dict(d, func() []string { return list(d, d.count(1, 0, nil), d.str) })
	c.Procs, c.Dropped = int(d.varint()), int(d.varint())
	if t := d.u8(); t > 1 {
		d.fail(ErrBadRecord, "bad truncated flag %d", t)
	} else {
		c.Truncated = t == 1
	}
	return c
}
