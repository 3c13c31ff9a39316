package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Device is a page-addressed backing file: fixed-size page reads and
// writes plus an explicit durability barrier. Implementations must be
// safe for concurrent use.
type Device interface {
	// ReadPage fills buf (PageSize bytes) with page id.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf as page id, growing the device if id is
	// the next page. The write is not durable until Sync.
	WritePage(id PageID, buf []byte) error
	// Sync makes all completed writes durable.
	Sync() error
	// Pages returns the current page count.
	Pages() (int, error)
	// Close releases the device. Implementations do not flush.
	Close() error
}

// PageID addresses a page within a device.
type PageID uint32

// FileDevice is a Device over a single heap file. Pages are written
// with WriteAt at page-aligned offsets; Sync fsyncs the file. A crash
// between WritePage and Sync can tear a page — DecodePage's checksum
// catches that on the next read.
type FileDevice struct {
	mu sync.Mutex
	f  *os.File
}

// OpenFileDevice opens (or creates) a heap file. On creation the
// parent directory is fsynced so the file itself survives a crash.
func OpenFileDevice(path string) (*FileDevice, error) {
	_, statErr := os.Stat(path)
	created := os.IsNotExist(statErr)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if created {
		if dir, err := os.Open(filepath.Dir(path)); err == nil {
			_ = dir.Sync()
			_ = dir.Close()
		}
	}
	sz, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	if sz%PageSize != 0 {
		// A crash mid-append can leave a partial trailing page; treat
		// the fragment as a torn final page by padding to a page
		// boundary (the checksum will fail and Open will repair it).
		if err := f.Truncate((sz/PageSize + 1) * PageSize); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &FileDevice{f: f}, nil
}

// Path returns the backing file path.
func (d *FileDevice) Path() string { return d.f.Name() }

func (d *FileDevice) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("store: read buffer is %d bytes, want %d", len(buf), PageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.f.ReadAt(buf, int64(id)*PageSize)
	return err
}

func (d *FileDevice) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("store: write buffer is %d bytes, want %d", len(buf), PageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.f.WriteAt(buf, int64(id)*PageSize)
	return err
}

func (d *FileDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Sync()
}

func (d *FileDevice) Pages() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sz, err := d.f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	return int(sz / PageSize), nil
}

func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Close()
}

// MemDevice is an in-memory Device: the zero-setup default backing for
// subsystems when durability is off, and the oracle target in tests.
type MemDevice struct {
	mu    sync.Mutex
	pages [][]byte
}

// NewMemDevice returns an empty in-memory device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

func (d *MemDevice) ReadPage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("store: read of unallocated page %d (have %d)", id, len(d.pages))
	}
	copy(buf, d.pages[id])
	return nil
}

func (d *MemDevice) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for int(id) >= len(d.pages) {
		d.pages = append(d.pages, make([]byte, PageSize))
	}
	copy(d.pages[id], buf)
	return nil
}

func (d *MemDevice) Sync() error { return nil }

func (d *MemDevice) Pages() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages), nil
}

func (d *MemDevice) Close() error { return nil }
