package comm

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/timing"
)

// TestBarrierClearsDeposits pins the memory-hygiene fix: a collective
// must not pin its buffers for the life of the world. After the next
// barrier, no deposit cell or exchange-buffer entry still references
// collective data.
func TestBarrierClearsDeposits(t *testing.T) {
	p := 4
	w := NewWorld(p, timing.T3D())
	w.Run(func(c *Comm) {
		AllReduceSumInto(c, []int64{int64(c.Rank())}, nil)
		Allgather(c, []int{c.Rank()})
		c.Barrier()
	})
	for r := 0; r < p; r++ {
		if w.cells[r].data != nil {
			t.Errorf("cells[%d].data still references %T after barrier", r, w.cells[r].data)
		}
		for i, d := range w.exchBuf[r] {
			if d.data != nil {
				t.Errorf("exchBuf[%d][%d].data still references %T after barrier", r, i, d.data)
			}
		}
	}
}

// TestOnlyBackendNamesTheTransport keeps the backend seam from re-forking:
// outside backend.go, the only non-test source allowed to mention World's
// tr field is the struct declaration that holds it. An operation that
// needs to know which machine it runs on belongs behind a primitive in
// backend.go, not beside a second `w.tr != nil` test.
func TestOnlyBackendNamesTheTransport(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	field := regexp.MustCompile(`\btr\b`)
	for _, file := range files {
		if file == "backend.go" || strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		inWorld := false
		for n, line := range strings.Split(string(src), "\n") {
			switch {
			case line == "type World struct {":
				inWorld = true
			case inWorld && line == "}":
				inWorld = false
			case !inWorld && field.MatchString(line):
				t.Errorf("%s:%d mentions the tr field outside the backend seam: %s", file, n+1, strings.TrimSpace(line))
			}
		}
	}
}
