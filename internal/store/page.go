// Package store is the durable storage engine under the simulated
// subsystems: slotted heap pages with per-page checksums and LSNs, a
// page device with atomic full-page writes (write → fsync; torn-page
// detection via checksum on read), a free-space map, and a small
// buffer pool with pin counts, dirty tracking and clock eviction that
// honors a write-ahead rule against the scheduler's WAL. On top of the
// pages it exposes a string→int64 record store — exactly the shape of
// a simulated resource manager's data items — so subsystem-local ACID
// state survives a crash and composes with the process-level WAL into
// end-to-end recovery (DESIGN.md §6g).
//
// The package is a leaf: it depends only on internal/metrics. Crash
// points ("store:page-write", "store:page-fsync", "store:evict",
// "store:alloc") are fired through an injected hook and re-exported by
// internal/fault for the torture battery.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// PageSize is the fixed on-disk page size. Every device read and
	// write moves exactly one page.
	PageSize = 4096
	// headerSize is the page header: checksum (4), pageLSN (8),
	// slotCount (2), cellStart (2), reserved (8).
	headerSize = 24
	// slotSize is one slot-directory entry: cell offset and length.
	slotSize = 4
	// cellOverhead is the per-record framing inside a cell: key length
	// (2) plus the fixed-size int64 value (8).
	cellOverhead = 10
	// MaxKeyLen bounds record keys so a record always fits a page.
	MaxKeyLen = 1024
)

// Crash point names fired through Options.Inject (re-exported by
// internal/fault).
const (
	// PointPageWrite fires immediately before a page image is handed to
	// the device: a crash here loses the write entirely.
	PointPageWrite = "store:page-write"
	// PointPageFsync fires between the device writes of a flush and
	// their fsync: a crash here leaves the writes in the OS cache.
	PointPageFsync = "store:page-fsync"
	// PointEvict fires when the buffer pool is about to evict a dirty
	// victim to make room.
	PointEvict = "store:evict"
	// PointAlloc fires when the heap file is about to grow by a page.
	PointAlloc = "store:alloc"
)

// ErrTornPage marks a page whose checksum does not cover its bytes — a
// torn or corrupted write.
var ErrTornPage = errors.New("store: torn page (checksum mismatch)")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Page is one slotted heap page: a header, a slot directory growing up
// from the header, and cells growing down from the end. Records are
// (key, int64) pairs; dead slots (length 0) are reused and their cell
// space reclaimed by in-place compaction.
//
// live and dead account for the slot directory in memory only — the
// bytes of live cells and the number of dead slots — and no slot below
// deadFrom is dead, so that FreeFor and Insert need not walk it.
// DecodePage counts them from the image; format, Insert and Delete keep
// them, and Compact moves cells without changing any. The page image
// does not carry them.
type Page struct {
	buf                  []byte
	live, dead, deadFrom int
}

// NewPage returns a freshly formatted empty page.
func NewPage() *Page {
	p := &Page{buf: make([]byte, PageSize)}
	p.format(0)
	return p
}

// DecodePage validates a raw page image: exact size, checksum, and
// structural bounds of every live slot. It returns ErrTornPage on a
// checksum mismatch and a descriptive error on structural corruption
// (possible only if corruption collides with the checksum).
func DecodePage(data []byte) (*Page, error) {
	if len(data) != PageSize {
		return nil, fmt.Errorf("store: page image is %d bytes, want %d", len(data), PageSize)
	}
	p := &Page{buf: data}
	if stored := binary.BigEndian.Uint32(data[0:4]); stored != p.computeChecksum() {
		return nil, ErrTornPage
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	p.live, p.dead = p.recount()
	return p, nil
}

// validate bounds-checks the slot directory and cells.
func (p *Page) validate() error {
	n := p.SlotCount()
	dirEnd := headerSize + slotSize*n
	cs := p.cellStart()
	if dirEnd > PageSize || cs < dirEnd || cs > PageSize {
		return fmt.Errorf("store: page structure out of bounds (slots %d, cellStart %d)", n, cs)
	}
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		if length == 0 {
			continue
		}
		if off < dirEnd || off+length > PageSize || length < cellOverhead {
			return fmt.Errorf("store: slot %d cell out of bounds (off %d, len %d)", i, off, length)
		}
		keyLen := int(binary.BigEndian.Uint16(p.buf[off : off+2]))
		if keyLen != length-cellOverhead || keyLen > MaxKeyLen {
			return fmt.Errorf("store: slot %d key length %d inconsistent with cell length %d", i, keyLen, length)
		}
	}
	return nil
}

// Buf returns the underlying page image. Seal before persisting it.
func (p *Page) Buf() []byte { return p.buf }

// format initializes an empty page with the given LSN.
func (p *Page) format(lsn int64) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.SetLSN(lsn)
	p.setSlotCount(0)
	p.setCellStart(PageSize)
	p.live, p.dead, p.deadFrom = 0, 0, 0
	p.Seal()
}

// Seal computes and stores the checksum over everything after it.
func (p *Page) Seal() {
	binary.BigEndian.PutUint32(p.buf[0:4], p.computeChecksum())
}

func (p *Page) computeChecksum() uint32 {
	return crc32.Checksum(p.buf[4:], crcTable)
}

// LSN returns the page LSN: the store-wide mutation sequence number of
// the last change applied to this page.
func (p *Page) LSN() int64 { return int64(binary.BigEndian.Uint64(p.buf[4:12])) }

// SetLSN stamps the page LSN.
func (p *Page) SetLSN(lsn int64) { binary.BigEndian.PutUint64(p.buf[4:12], uint64(lsn)) }

// SlotCount returns the size of the slot directory (live and dead).
func (p *Page) SlotCount() int { return int(binary.BigEndian.Uint16(p.buf[12:14])) }

func (p *Page) setSlotCount(n int) { binary.BigEndian.PutUint16(p.buf[12:14], uint16(n)) }

func (p *Page) cellStart() int { return int(binary.BigEndian.Uint16(p.buf[14:16])) }

func (p *Page) setCellStart(off int) { binary.BigEndian.PutUint16(p.buf[14:16], uint16(off)) }

func (p *Page) slot(i int) (off, length int) {
	base := headerSize + slotSize*i
	return int(binary.BigEndian.Uint16(p.buf[base : base+2])),
		int(binary.BigEndian.Uint16(p.buf[base+2 : base+4]))
}

func (p *Page) setSlot(i, off, length int) {
	base := headerSize + slotSize*i
	binary.BigEndian.PutUint16(p.buf[base:base+2], uint16(off))
	binary.BigEndian.PutUint16(p.buf[base+2:base+4], uint16(length))
}

// contiguousFree is the gap between the slot directory and the lowest
// cell.
func (p *Page) contiguousFree() int {
	return p.cellStart() - (headerSize + slotSize*p.SlotCount())
}

// recount walks the slot directory for the bytes of live cells and the
// number of dead slots: what p.live and p.dead hold.
func (p *Page) recount() (liveBytes, deadSlots int) {
	for i := 0; i < p.SlotCount(); i++ {
		if _, length := p.slot(i); length == 0 {
			deadSlots++
		} else {
			liveBytes += length
		}
	}
	return liveBytes, deadSlots
}

// FreeFor reports the bytes available to a future insert after an
// in-place compaction: the contiguous gap plus the cell space of dead
// slots. A new record of key length k needs cellOverhead+k bytes plus
// (when no dead slot is reusable) slotSize for its directory entry.
func (p *Page) FreeFor() int {
	free := p.contiguousFree() + PageSize - p.cellStart() - p.live
	if p.dead == 0 {
		free -= slotSize
	}
	if free < 0 {
		return 0
	}
	return free
}

// Insert adds a record and returns its slot; ok is false when the page
// cannot fit it even after compaction.
func (p *Page) Insert(key string, value int64) (slot int, ok bool) {
	if len(key) > MaxKeyLen {
		return 0, false
	}
	cellLen := cellOverhead + len(key)
	// Reuse a dead slot when available, else extend the directory.
	slot = -1
	for i := p.deadFrom; p.dead > 0 && i < p.SlotCount(); i++ {
		if _, length := p.slot(i); length == 0 {
			slot = i
			break
		}
	}
	needDir := 0
	if slot < 0 {
		needDir = slotSize
	}
	if p.contiguousFree() < cellLen+needDir {
		p.Compact()
		if p.contiguousFree() < cellLen+needDir {
			return 0, false
		}
	}
	if slot < 0 {
		slot = p.SlotCount()
		p.setSlotCount(slot + 1)
	} else {
		p.dead--
		p.deadFrom = slot + 1
	}
	p.live += cellLen
	off := p.cellStart() - cellLen
	p.setCellStart(off)
	binary.BigEndian.PutUint16(p.buf[off:off+2], uint16(len(key)))
	copy(p.buf[off+2:], key)
	binary.BigEndian.PutUint64(p.buf[off+2+len(key):off+cellLen], uint64(value))
	p.setSlot(slot, off, cellLen)
	return slot, true
}

// Record returns the record in a slot; ok is false for dead or
// out-of-range slots.
func (p *Page) Record(slot int) (key string, value int64, ok bool) {
	if slot < 0 || slot >= p.SlotCount() {
		return "", 0, false
	}
	off, length := p.slot(slot)
	if length == 0 {
		return "", 0, false
	}
	keyLen := int(binary.BigEndian.Uint16(p.buf[off : off+2]))
	key = string(p.buf[off+2 : off+2+keyLen])
	value = int64(binary.BigEndian.Uint64(p.buf[off+2+keyLen : off+length]))
	return key, value, true
}

// Update overwrites the value of a live slot in place.
func (p *Page) Update(slot int, value int64) error {
	if slot < 0 || slot >= p.SlotCount() {
		return fmt.Errorf("store: update of out-of-range slot %d", slot)
	}
	off, length := p.slot(slot)
	if length == 0 {
		return fmt.Errorf("store: update of dead slot %d", slot)
	}
	binary.BigEndian.PutUint64(p.buf[off+length-8:off+length], uint64(value))
	return nil
}

// Delete kills a slot; its cell space is reclaimed by a later Compact.
func (p *Page) Delete(slot int) {
	if slot < 0 || slot >= p.SlotCount() {
		return
	}
	if _, length := p.slot(slot); length > 0 {
		p.live -= length
		p.dead++
		p.deadFrom = min(p.deadFrom, slot)
	}
	p.setSlot(slot, 0, 0)
	// Trim trailing dead slots so empty pages shrink back to zero.
	n := p.SlotCount()
	for n > 0 {
		if _, length := p.slot(n - 1); length != 0 {
			break
		}
		n--
		p.dead--
	}
	p.setSlotCount(n)
	if n == 0 {
		p.setCellStart(PageSize)
	}
}

// Live returns the number of live records.
func (p *Page) Live() int {
	live := 0
	for i := 0; i < p.SlotCount(); i++ {
		if _, length := p.slot(i); length > 0 {
			live++
		}
	}
	return live
}

// Range calls fn for every live record until fn returns false.
func (p *Page) Range(fn func(slot int, key string, value int64) bool) {
	for i := 0; i < p.SlotCount(); i++ {
		if key, value, ok := p.Record(i); ok {
			if !fn(i, key, value) {
				return
			}
		}
	}
}

// Compact repacks live cells against the end of the page in slot order,
// preserving slot numbering, so dead cell space becomes contiguous free
// space. The cells are read from a copy of the page on the stack.
func (p *Page) Compact() {
	var old [PageSize]byte
	copy(old[:], p.buf)
	off := PageSize
	for i := 0; i < p.SlotCount(); i++ {
		from, length := p.slot(i)
		if length == 0 {
			continue
		}
		off -= length
		copy(p.buf[off:], old[from:from+length])
		p.setSlot(i, off, length)
	}
	p.setCellStart(off)
	// Zero the reclaimed gap so page images stay deterministic.
	for i := headerSize + slotSize*p.SlotCount(); i < off; i++ {
		p.buf[i] = 0
	}
}
