// Package extmem provides disk-backed attribute-list storage: binary list
// files written once and scanned sequentially through a small buffer, with
// byte-exact I/O counters.
//
// This is the storage model the pre-parallel classifiers assume (section 2:
// attribute lists are too large for memory and live on disk; every
// splitting pass over them is "expensive disk I/O"). SLIQ was designed for
// exactly this layout — resident class list, disk-resident attribute lists
// scanned once per level — and package sliq's out-of-core mode runs on
// this store.
package extmem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/atomicfile"
	"repro/internal/dataset"
)

// contRecordSize and catRecordSize are the on-disk sizes of one entry.
const (
	contRecordSize = 8 + 4 + 1 // value, rid, cid
	catRecordSize  = 4 + 4 + 1
)

// Every list file opens with a fixed header: a magic word and the payload
// byte count. The count is what turns a torn write into a detected error
// instead of a silently shorter list — without it, truncation at a record
// boundary is indistinguishable from a complete file.
const (
	fileMagic  = 0x4c4d4558 // "XEML"
	headerSize = 4 + 8      // magic, payload bytes
)

// Stats counts the store's disk traffic.
type Stats struct {
	BytesWritten int64
	BytesRead    int64
	EntriesRead  int64
	Scans        int64
}

// Store keeps binary attribute-list files under a directory.
type Store struct {
	dir     string
	bufSize int
	stats   Stats
}

// NewStore creates a store rooted at dir (created if absent). bufSize is
// the scan/write buffer in bytes; values < 4 KiB are raised to 4 KiB.
func NewStore(dir string, bufSize int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("extmem: creating store dir: %w", err)
	}
	if bufSize < 4096 {
		bufSize = 4096
	}
	return &Store{dir: dir, bufSize: bufSize}, nil
}

// Stats returns a copy of the I/O counters.
func (s *Store) Stats() Stats { return s.stats }

// ResetStats zeroes the I/O counters.
func (s *Store) ResetStats() { s.stats = Stats{} }

func (s *Store) path(name string) string {
	return filepath.Join(s.dir, name+".list")
}

// WriteCont writes a continuous attribute list to the named file.
func (s *Store) WriteCont(name string, entries []dataset.ContEntry) error {
	return s.write(name, len(entries)*contRecordSize, func(w *bufio.Writer) error {
		var buf [contRecordSize]byte
		for _, e := range entries {
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(e.Val))
			binary.LittleEndian.PutUint32(buf[8:], uint32(e.Rid))
			buf[12] = e.Cid
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
		}
		return nil
	})
}

// WriteCat writes a categorical attribute list to the named file.
func (s *Store) WriteCat(name string, entries []dataset.CatEntry) error {
	return s.write(name, len(entries)*catRecordSize, func(w *bufio.Writer) error {
		var buf [catRecordSize]byte
		for _, e := range entries {
			binary.LittleEndian.PutUint32(buf[0:], uint32(e.Val))
			binary.LittleEndian.PutUint32(buf[4:], uint32(e.Rid))
			buf[8] = e.Cid
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
		}
		return nil
	})
}

// write creates the named list atomically (atomicfile.Write: a failed
// write can neither clobber an existing good list nor leave litter behind).
// Not fsynced: the lists are the working set of a live run and nothing
// resumes from them after a crash.
func (s *Store) write(name string, bytes int, fill func(*bufio.Writer) error) error {
	err := atomicfile.Write(s.path(name), func(f io.Writer) error {
		w := bufio.NewWriterSize(f, s.bufSize)
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[0:], fileMagic)
		binary.LittleEndian.PutUint64(hdr[4:], uint64(bytes))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if err := fill(w); err != nil {
			return err
		}
		return w.Flush()
	})
	if err != nil {
		return fmt.Errorf("extmem: writing %s: %w", name, err)
	}
	s.stats.BytesWritten += int64(bytes) // payload only; the header is bookkeeping, not list I/O
	return nil
}

// ScanCont streams a continuous list in file order. fn returning an error
// aborts the scan with that error.
func (s *Store) ScanCont(name string, fn func(dataset.ContEntry) error) error {
	return s.scan(name, contRecordSize, func(buf []byte) error {
		e := dataset.ContEntry{
			Val: math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])),
			Rid: int32(binary.LittleEndian.Uint32(buf[8:])),
			Cid: buf[12],
		}
		return fn(e)
	})
}

// ScanCat streams a categorical list in file order.
func (s *Store) ScanCat(name string, fn func(dataset.CatEntry) error) error {
	return s.scan(name, catRecordSize, func(buf []byte) error {
		e := dataset.CatEntry{
			Val: int32(binary.LittleEndian.Uint32(buf[0:])),
			Rid: int32(binary.LittleEndian.Uint32(buf[4:])),
			Cid: buf[8],
		}
		return fn(e)
	})
}

func (s *Store) scan(name string, recordSize int, fn func([]byte) error) error {
	f, err := os.Open(s.path(name))
	if err != nil {
		return fmt.Errorf("extmem: opening %s: %w", name, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, s.bufSize)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("extmem: reading %s header: %w", name, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != fileMagic {
		return fmt.Errorf("extmem: %s is not a list file (bad magic)", name)
	}
	payload := int64(binary.LittleEndian.Uint64(hdr[4:]))
	if payload < 0 || payload%int64(recordSize) != 0 {
		return fmt.Errorf("extmem: %s header claims %d payload bytes, not a multiple of the %d-byte record", name, payload, recordSize)
	}
	buf := make([]byte, recordSize)
	s.stats.Scans++
	var got int64
	for {
		_, err := io.ReadFull(r, buf)
		if err == io.EOF {
			if got != payload {
				return fmt.Errorf("extmem: %s truncated: header claims %d payload bytes, file holds %d", name, payload, got)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("extmem: reading %s: %w", name, err)
		}
		got += int64(recordSize)
		if got > payload {
			return fmt.Errorf("extmem: %s has %d trailing bytes beyond the declared payload", name, got-payload)
		}
		s.stats.BytesRead += int64(recordSize)
		s.stats.EntriesRead++
		if err := fn(buf); err != nil {
			return err
		}
	}
}

// Remove deletes the named list file.
func (s *Store) Remove(name string) error {
	if err := os.Remove(s.path(name)); err != nil {
		return fmt.Errorf("extmem: removing %s: %w", name, err)
	}
	return nil
}

// Close removes the store's directory and all list files.
func (s *Store) Close() error {
	return os.RemoveAll(s.dir)
}
