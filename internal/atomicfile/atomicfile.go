// Package atomicfile replaces a file's contents all-or-nothing: the data
// goes to a temp file in the target's directory and is renamed over the
// target only after a successful fill and close, so a reader sees either
// the old file or the complete new one, and a failed write leaves the old
// file untouched and no temp litter.
//
// The two entry points differ only in what survives a power loss, and a
// call site names its contract by the function it calls:
//
//	Write        atomic against process death. For files nothing reads
//	             after a crash (a live run's working set, IPC scratch).
//	WriteDurable the same, plus the data is fsynced before the rename and
//	             the directory after it. For files a rerun resumes from.
//
// Temp files are named "<target base>.<random>.tmp", so the owner of a
// directory can recognise and sweep the litter of a writer killed mid-write.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write atomically replaces path with whatever fill writes.
func Write(path string, fill func(io.Writer) error) error {
	return write(path, fill, false)
}

// WriteDurable is Write whose result, once it returns, survives a power loss.
func WriteDurable(path string, fill func(io.Writer) error) error {
	return write(path, fill, true)
}

func write(path string, fill func(io.Writer) error, durable bool) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // harmless when already closed
			os.Remove(f.Name())
		}
	}()
	if err = fill(f); err != nil {
		return err
	}
	if durable {
		if err = f.Sync(); err != nil {
			return err
		}
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	if durable {
		return syncDir(dir)
	}
	return nil
}

// syncDir makes a completed rename in dir durable. The target is already in
// place, so a failure here is reported but nothing is rolled back.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
