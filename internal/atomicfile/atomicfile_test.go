package atomicfile

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// dirNames lists dir, so tests can assert nothing but the target is left.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestWriteContracts runs both entry points through the shared contract:
// success replaces the target and round-trips, a failing fill (even one
// that already wrote bytes) leaves the old target byte-identical, and
// neither path leaves a temp file behind.
func TestWriteContracts(t *testing.T) {
	for name, write := range map[string]func(string, func(io.Writer) error) error{
		"Write":        Write,
		"WriteDurable": WriteDurable,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "target.bin")
			put := func(s string) func(io.Writer) error {
				return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
			}
			if err := write(path, put("old contents")); err != nil {
				t.Fatal(err)
			}
			if err := write(path, put("new")); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); string(got) != "new" {
				t.Fatalf("target holds %q after a successful replace, want %q", got, "new")
			}

			boom := errors.New("injected fill failure")
			err := write(path, func(w io.Writer) error {
				io.WriteString(w, "half a fra")
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("fill error not surfaced: %v", err)
			}
			if got, _ := os.ReadFile(path); string(got) != "new" {
				t.Fatalf("failed write damaged the target: %q", got)
			}
			if names := dirNames(t, dir); len(names) != 1 || names[0] != "target.bin" {
				t.Fatalf("directory holds %v, want only the target", names)
			}
		})
	}
}

// TestWriteMissingDirectory: the temp file lives beside the target, so an
// absent directory is an error up front, not a write somewhere else.
func TestWriteMissingDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent", "x")
	called := false
	err := Write(path, func(io.Writer) error { called = true; return nil })
	if err == nil || called {
		t.Fatalf("err=%v called=%v, want an error before fill runs", err, called)
	}
}

// TestEveryFileWriteGoesThroughAtomicfile keeps DESIGN.md's claim true: no
// non-test source of the root module outside this package calls os.Create or
// os.WriteFile. (benchmark/ is its own frozen module and is not walked.)
func TestEveryFileWriteGoesThroughAtomicfile(t *testing.T) {
	root := filepath.Join("..", "..")
	inPlace := regexp.MustCompile(`\bos\.(Create|WriteFile)\(`)
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if rel == "benchmark" || rel == "internal/atomicfile" || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checked++
		for n, line := range strings.Split(string(src), "\n") {
			if inPlace.MatchString(line) {
				t.Errorf("%s:%d writes a file in place; use atomicfile.Write: %s", rel, n+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil || checked == 0 {
		t.Fatalf("walked %d sources: %v", checked, err)
	}
}
