package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestTrajectoryFiles pins the frozen archive: each of the seven checked-in
// BENCH_*.json opens every run with the same six host keys in the same
// order, and re-saves byte for byte. Nothing but tests reads the files; the
// docs cite them as history.
func TestTrajectoryFiles(t *testing.T) {
	hostKeys := []string{"label", "date", "go", "goos", "goarch", "numcpu"}
	for _, name := range []string{
		"BENCH_induction.json", "BENCH_scan.json", "BENCH_predict.json", "BENCH_serve.json",
		"BENCH_tcp.json", "BENCH_vote.json", "BENCH_forest.json",
	} {
		t.Run(name, func(t *testing.T) {
			checkedIn := readRepoFile(t, name)
			var a struct {
				Experiment string            `json:"experiment"`
				Notes      string            `json:"notes"`
				Runs       []json.RawMessage `json:"runs"`
			}
			if err := json.Unmarshal([]byte(checkedIn), &a); err != nil {
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
			if string(resaved)+"\n" != checkedIn {
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

// TestWriteServeArtifact: writeArtifact, which writes -trace (GUARD-SERVE's
// artifact is internal/serve's now), creates its directory and replaces the
// file atomically, leaving nothing beside it.
func TestWriteServeArtifact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	for _, body := range []string{"first", "second"} {
		err := writeArtifact(dir, "run.json", func(w io.Writer) error {
			_, err := io.WriteString(w, body)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "run.json"))
	if err != nil || string(data) != "second" {
		t.Fatalf("artifact = %q (%v), want the second write", data, err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("artifact directory holds %d entries (%v), want run.json alone", len(entries), err)
	}
}
