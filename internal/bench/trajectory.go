package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// loadTrajectory and saveTrajectory read and write every BENCH_*.json: an
// append-only list of labeled runs, oldest first. loadTrajectory reads the
// file at path over empty, which carries what a first run starts the file
// with (experiment name, notes); a missing file yields empty itself.
func loadTrajectory[T any](path string, empty T) (*T, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &empty, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &empty); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &empty, nil
}

// saveTrajectory writes the trajectory back, indented and
// newline-terminated — the shape of every JSON file this package leaves
// behind, so the guards' failure artifacts go through it too.
func saveTrajectory(path string, traj any) error {
	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
