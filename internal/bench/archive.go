package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The seven BENCH_*.json files at the repo root are a frozen archive of the
// runs this package recorded until PR 24 (last written 2026-09-28). Nothing
// writes them any more: a figure that is exact — virtual clocks, bytes, ops,
// tree identity — is archived as text in experiments_output.txt and diffed
// by `make experiments-check`; a wall-clock figure is benchmark/'s to
// measure and judge. What still reads the archive is GUARD-HOTPATH's
// allocation gate and the test that pins the files' shape.

// archive is the on-disk shape of every BENCH_*.json: what the file records
// and its labeled runs, oldest first. R is the part of a run the reader
// wants; json.RawMessage reads any of the seven files whole.
type archive[R any] struct {
	Experiment string `json:"experiment"`
	Notes      string `json:"notes"`
	Runs       []R    `json:"runs"`
}

// loadArchive reads dir's copy of the named BENCH_*.json.
func loadArchive[R any](dir, name string) (*archive[R], error) {
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a := new(archive[R])
	if err := json.Unmarshal(data, a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
