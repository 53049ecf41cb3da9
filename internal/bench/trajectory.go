package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// hostMeta is what every trajectory run records about when and where it was
// measured — enough to judge whether two runs are comparable. Each run type
// embeds it first, so all seven BENCH_*.json files open a run with the same
// six keys in the same order.
type hostMeta struct {
	Label     string `json:"label"`
	Date      string `json:"date"`
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numcpu"`
}

func (h hostMeta) host() hostMeta { return h }

// hosted is a trajectory run: any struct that embeds hostMeta.
type hosted interface{ host() hostMeta }

// newHostMeta stamps a run measured here and now. An empty label defaults
// to the measurement date.
func newHostMeta(label string) hostMeta {
	date := time.Now().UTC().Format("2006-01-02")
	if label == "" {
		label = "measured " + date
	}
	return hostMeta{
		Label:     label,
		Date:      date,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// trajectoryFile names one checked-in BENCH_*.json (relative to the repo
// root) and what a first run starts the file with.
type trajectoryFile struct{ name, experiment, notes string }

// trajectory is the on-disk shape of every BENCH_*.json: an append-only
// list of labeled runs, oldest first.
type trajectory[R hosted] struct {
	Experiment string `json:"experiment"`
	Notes      string `json:"notes"`
	Runs       []R    `json:"runs"`
}

// Latest returns the newest run, or nil for an empty trajectory.
func (t *trajectory[R]) Latest() *R {
	if len(t.Runs) == 0 {
		return nil
	}
	return &t.Runs[len(t.Runs)-1]
}

// Baseline returns the oldest run — the pre-optimization measurement the
// improvement gates compare against.
func (t *trajectory[R]) Baseline() *R {
	if len(t.Runs) == 0 {
		return nil
	}
	return &t.Runs[0]
}

// loadTrajectory reads dir's copy of f; a missing file yields an empty
// trajectory carrying f's experiment id and notes.
func loadTrajectory[R hosted](dir string, f trajectoryFile) (*trajectory[R], error) {
	t := &trajectory[R]{Experiment: f.experiment, Notes: f.notes}
	path := filepath.Join(dir, f.name)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return t, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// saveJSON writes v indented and newline-terminated — the shape of every
// JSON file this package leaves behind, so the guards' failure artifacts go
// through it too.
func saveJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// record is the one way a run lands in a trajectory: load dir's copy of f,
// append run, save, and print the whole trajectory under header, one line
// per run — its label, then what summary makes of it. A nil summary prints
// nothing. It returns the trajectory as saved.
func record[R hosted](w io.Writer, dir string, f trajectoryFile, run R, header string, summary func(i int, r *R) string) (*trajectory[R], error) {
	t, err := loadTrajectory[R](dir, f)
	if err != nil {
		return nil, err
	}
	t.Runs = append(t.Runs, run)
	if err := saveJSON(filepath.Join(dir, f.name), t); err != nil {
		return nil, err
	}
	if summary != nil {
		fmt.Fprintf(w, "\n%s\n", header)
		for i := range t.Runs {
			fmt.Fprintf(w, "  %-38s%s\n", t.Runs[i].host().Label, summary(i, &t.Runs[i]))
		}
	}
	return t, nil
}
