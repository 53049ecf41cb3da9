package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestTrajectoryFiles pins the frozen archive: each of the seven checked-in
// BENCH_*.json loads through the one generic reader, opens every run with
// the same six host keys in the same order, and re-saves byte for byte.
func TestTrajectoryFiles(t *testing.T) {
	repoRoot := filepath.Join("..", "..")
	hostKeys := []string{"label", "date", "go", "goos", "goarch", "numcpu"}
	for _, name := range []string{
		"BENCH_induction.json", "BENCH_scan.json", "BENCH_predict.json", "BENCH_serve.json",
		"BENCH_tcp.json", "BENCH_vote.json", "BENCH_forest.json",
	} {
		t.Run(name, func(t *testing.T) {
			checkedIn, err := os.ReadFile(filepath.Join(repoRoot, name))
			if err != nil {
				t.Fatal(err)
			}
			a, err := loadArchive[json.RawMessage](repoRoot, name)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(a.Experiment, "EXP-") || a.Notes == "" || len(a.Runs) == 0 {
				t.Fatalf("header = %q / %q with %d runs", a.Experiment, a.Notes, len(a.Runs))
			}
			for i, run := range a.Runs {
				dec := json.NewDecoder(bytes.NewReader(run))
				if _, err := dec.Token(); err != nil { // the opening brace
					t.Fatal(err)
				}
				for _, want := range hostKeys {
					key, err := dec.Token()
					if err != nil || key != want {
						t.Fatalf("run %d: key %v (%v) where %q belongs", i, key, err, want)
					}
					var value any
					if err := dec.Decode(&value); err != nil {
						t.Fatal(err)
					}
				}
			}
			resaved, err := json.MarshalIndent(a, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(resaved, '\n'), checkedIn) {
				t.Errorf("re-saving %s changes its bytes", name)
			}
		})
	}
}

// TestOnlyWriteArtifactWritesFiles keeps the harness an instrument that
// writes nothing down: outside writeArtifact's own body no non-test source
// of this package may create, write or rename a file, directly or through
// atomicfile.
func TestOnlyWriteArtifactWritesFiles(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	writes := regexp.MustCompile(`\b(os\.(Create|CreateTemp|WriteFile|OpenFile|Rename)|atomicfile\.\w+)\(`)
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		inWriter := false
		for n, line := range strings.Split(string(src), "\n") {
			switch {
			case strings.HasPrefix(line, "func writeArtifact("):
				inWriter = true
			case inWriter && line == "}":
				inWriter = false
			case !inWriter && writes.MatchString(line):
				t.Errorf("%s:%d writes a file outside writeArtifact: %s", file, n+1, strings.TrimSpace(line))
			}
		}
	}
}
