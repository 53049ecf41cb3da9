package bench

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/atomicfile"
)

// gates collects every gate one guard run violates, so a failing guard
// reports all of them at once rather than stopping at the first. Each
// guard's thresholds stay named constants beside the guard that owns them.
type gates struct{ errs []error }

func (g *gates) fail(format string, args ...any) {
	g.errs = append(g.errs, fmt.Errorf(format, args...))
}

// guardError turns a guard's violated gates into its result: nil when every
// gate held, otherwise all of them joined. A failing guard that has an
// artifact (dump, nil for none) first writes it, so a tripped gate leaves
// more behind than its message.
func guardError(errs []error, dump func() error) error {
	if len(errs) == 0 {
		return nil
	}
	if dump != nil {
		if err := dump(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// writeArtifact is the one place this package writes a file: name inside
// dir, created if missing, replaced atomically. An empty dir — a guard whose
// artifact variable CI did not set — is a silent no-op; a failure is the os
// error, which names the path.
func writeArtifact(dir, name string, fill func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return atomicfile.Write(filepath.Join(dir, name), fill)
}
