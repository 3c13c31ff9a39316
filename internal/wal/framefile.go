package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// The one on-disk log format (DESIGN.md §6k, "one log format"): a file
// magic, then frames of `len u32 | crc32(payload) u32 | payload`,
// little-endian. The WAL, the serve intake journal and the hub journal
// are payload codecs over a FrameFile.
const (
	fileMagic   = "tplog01\n"
	frameHeader = 8
	// maxFrame bounds one payload; it also covers checkpoint records,
	// the largest the WAL writes.
	maxFrame = 16 << 20
)

// ErrCorrupt reports damage that cannot be a torn tail: a missing file
// magic, an over-limit frame length, a bad frame with intact data after
// it, or a frame whose payload its codec rejects. The file is left
// untouched: acknowledged records are never dropped silently.
var ErrCorrupt = errors.New("wal: log corrupt")

// FrameFile is an append-only file of checksummed frames. It is not
// safe for concurrent use; each log built on it serializes access
// under the mutex that also guards its sequence counter.
type FrameFile struct {
	path  string
	f     *os.File
	w     *bufio.Writer
	fsync bool
}

// OpenFrameFile opens (or creates) the frame file at path and passes
// every intact payload to visit, in order; visit must not retain the
// slice, and an error from it is ErrCorrupt. A torn tail — what a crash
// mid-append leaves — is truncated away, so that at most the final,
// unacknowledged append is lost and later appends never splice onto
// garbage. With fsync false, Sync and Close only reach the OS.
func OpenFrameFile(path string, fsync bool, visit func(payload []byte) error) (*FrameFile, error) {
	ff, _, err := openFrameFile(path, fsync, func(data []byte) (int, error) { return walkFrames(data, visit) })
	return ff, err
}

// openFrameFile is OpenFrameFile with the walk of the file's data left to
// walk, which returns where the intact prefix ends (walkFrames). It also
// returns the image it read and walk checked, its torn tail cut off (nil
// for a new file). The image is the caller's: the FrameFile keeps no copy
// of its file.
func openFrameFile(path string, fsync bool, walk func(data []byte) (int, error)) (*FrameFile, []byte, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	ff := &FrameFile{path: path, f: f, w: bufio.NewWriter(f), fsync: fsync}
	image, err := ff.replay(walk)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return ff, image, nil
}

func (ff *FrameFile) replay(walk func([]byte) (int, error)) ([]byte, error) {
	data, err := ff.read()
	if err != nil {
		return nil, err
	}
	end, err := walk(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ff.path, err)
	}
	if end < len(data) {
		if err := ff.f.Truncate(int64(end)); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", ff.path, err)
		}
	}
	if end > 0 {
		return data[:end], nil
	}
	// A new file. Without the parent-directory fsync a freshly created
	// (and even fsynced) log file can vanish wholesale on power loss.
	if _, err := ff.f.WriteString(fileMagic); err != nil {
		return nil, fmt.Errorf("wal: write magic: %w", err)
	}
	return nil, syncDir(filepath.Dir(ff.path))
}

// read returns the file's contents; positional reads leave the append
// offset alone.
func (ff *FrameFile) read() ([]byte, error) {
	fi, err := ff.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("wal: stat %s: %w", ff.path, err)
	}
	data := make([]byte, fi.Size())
	if _, err := ff.f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("wal: read %s: %w", ff.path, err)
	}
	return data, nil
}

// walkFrames passes each intact payload of a log image to visit and
// returns where the intact prefix ends: len(data) for a clean image,
// less for one with a torn tail, 0 for an empty file or one cut inside
// the magic.
//
// A frame that fails its checksum or runs past the end of the image is
// a torn tail only if nothing follows it and no intact frame lies
// inside it: a crash tears the final append, a prefix of one write. A
// bad frame with either is damage to acknowledged data (the second case
// is a damaged length field that swallowed the frames behind it).
func walkFrames(data []byte, visit func(payload []byte) error) (int, error) {
	if len(data) < len(fileMagic) && bytes.HasPrefix([]byte(fileMagic), data) {
		return 0, nil
	}
	if !bytes.HasPrefix(data, []byte(fileMagic)) {
		return 0, fmt.Errorf("%w: no file magic", ErrCorrupt)
	}
	off := len(fileMagic)
	for len(data)-off >= frameHeader {
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxFrame {
			return off, fmt.Errorf("%w: frame length %d at offset %d", ErrCorrupt, n, off)
		}
		body := data[off+frameHeader:]
		if int(n) > len(body) || crc32.ChecksumIEEE(body[:n]) != sum {
			if int(n) < len(body) || holdsIntactFrame(body) {
				return off, fmt.Errorf("%w: bad frame at offset %d with intact data after it", ErrCorrupt, off)
			}
			break
		}
		if err := visit(body[:n]); err != nil {
			return off, fmt.Errorf("%w: frame at offset %d: %v", ErrCorrupt, off, err)
		}
		off += frameHeader + int(n)
	}
	return off, nil
}

// holdsIntactFrame reports whether a complete, checksum-valid,
// non-empty frame starts anywhere in b.
func holdsIntactFrame(b []byte) bool {
	for ; len(b) > frameHeader; b = b[1:] {
		n := binary.LittleEndian.Uint32(b)
		body := b[frameHeader:]
		if n != 0 && uint64(n) <= uint64(len(body)) &&
			crc32.ChecksumIEEE(body[:n]) == binary.LittleEndian.Uint32(b[4:]) {
			return true
		}
	}
	return false
}

// FrameBounds returns where the first frame of a log image begins,
// followed by where each intact frame ends (nil without the magic).
// The fault harness tears files on these boundaries.
func FrameBounds(data []byte) []int {
	bounds := []int{len(fileMagic)}
	end, _ := walkFrames(data, func(p []byte) error {
		bounds = append(bounds, bounds[len(bounds)-1]+frameHeader+len(p))
		return nil
	})
	if end == 0 {
		return nil
	}
	return bounds
}

// writeFrame buffers one frame into w.
func writeFrame(w *bufio.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("wal: %d-byte record exceeds the %d-byte frame limit", len(payload), maxFrame)
	}
	hdr := w.AvailableBuffer()
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	_, err := w.Write(hdr)
	if err == nil {
		_, err = w.Write(payload)
	}
	if err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	return nil
}

// Append buffers one frame; Sync makes it durable.
func (ff *FrameFile) Append(payload []byte) error { return writeFrame(ff.w, payload) }

// Sync flushes the buffered frames to the OS and, unless the file was
// opened without fsync, forces them to stable storage.
func (ff *FrameFile) Sync() error {
	err := ff.w.Flush()
	if err == nil && ff.fsync {
		err = ff.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("wal: sync %s: %w", ff.path, err)
	}
	return nil
}

// contents returns the file's frames, every one appended so far
// included.
func (ff *FrameFile) contents() ([]byte, error) {
	if err := ff.w.Flush(); err != nil {
		return nil, fmt.Errorf("wal: flush: %w", err)
	}
	return ff.read()
}

// scan passes every payload of image, the file's frames, to visit, in
// order, under the rules of OpenFrameFile.
func (ff *FrameFile) scan(image []byte, visit func(payload []byte) error) error {
	if _, err := walkFrames(image, visit); err != nil {
		return fmt.Errorf("%s: %w", ff.path, err)
	}
	return nil
}

// nextFrame returns the payload of the frame at off in a log image
// walkFrames checked, and where the frame after it begins.
func nextFrame(image []byte, off int) (p []byte, next int) {
	next = off + frameHeader + int(binary.LittleEndian.Uint32(image[off:]))
	return image[off+frameHeader : next], next
}

// frameCount returns how many frames the length fields of a log image
// chain through, a torn tail's included, checking nothing: a bound to
// size what a walk keeps per frame by.
func frameCount(image []byte) int {
	n := 0
	for off := len(fileMagic); off+frameHeader <= len(image); n++ {
		off += frameHeader + int(binary.LittleEndian.Uint32(image[off:]))
	}
	return n
}

// Rewrite atomically replaces the file's contents (frames still
// buffered included) with the given payloads: temp file → fsync →
// rename → parent-directory fsync, so a crash at any point leaves
// either the old complete log or the new complete log. inject, when
// non-nil, fires PointCompactRename before the rename and
// PointCompactDirSync after it.
func (ff *FrameFile) Rewrite(payloads [][]byte, inject func(string)) error {
	tmp := ff.path + ".compact"
	// O_TRUNC: a crashed earlier rewrite may have left one.
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rewrite temp: %w", err)
	}
	bw := bufio.NewWriter(tf)
	_, err = bw.WriteString(fileMagic)
	for i := 0; err == nil && i < len(payloads); i++ {
		err = writeFrame(bw, payloads[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: writing %s: %w", tmp, err)
	}
	if inject != nil {
		inject(PointCompactRename)
	}
	if err := os.Rename(tmp, ff.path); err != nil {
		return fmt.Errorf("wal: rewrite rename: %w", err)
	}
	if inject != nil {
		inject(PointCompactDirSync)
	}
	if err := syncDir(filepath.Dir(ff.path)); err != nil {
		return err
	}
	// The open descriptor still references the replaced inode: swap it
	// for the new file before any further append.
	nf, err := os.OpenFile(ff.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopening rewritten log: %w", err)
	}
	ff.f.Close()
	ff.f = nf
	ff.w.Reset(nf)
	return nil
}

// Close syncs (a clean shutdown must leave nothing in the page cache
// that a power loss could take away) and closes the file.
func (ff *FrameFile) Close() error {
	err := ff.Sync()
	if cerr := ff.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-created or just-renamed file
// inside it survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("wal: fsync dir %s: %w", dir, err)
	}
	return d.Close()
}
