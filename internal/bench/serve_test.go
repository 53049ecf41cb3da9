package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func serveTestPoints(rps, p99 float64, meanBatch float64) []ServePoint {
	return []ServePoint{
		{Clients: 32, RowsPerReq: 1, Requests: 1280, RowsPerSec: rps / 10, P50Micros: 500, P99Micros: p99, MeanBatchRows: 4},
		{Clients: 16, RowsPerReq: 16, Requests: 640, RowsPerSec: rps, P50Micros: 400, P99Micros: p99, MeanBatchRows: meanBatch},
		{Clients: 4, RowsPerReq: 64, Requests: 240, RowsPerSec: rps, P50Micros: 400, P99Micros: p99, MeanBatchRows: meanBatch},
	}
}

func serveTestTraj(rps, walkNs float64) *trajectory[ServeRun] {
	return &trajectory[ServeRun]{
		Experiment: "EXP-SERVE",
		Runs: []ServeRun{{
			hostMeta:     hostMeta{Label: "recorded"},
			WalkNsPerRow: walkNs,
			Points:       serveTestPoints(rps, 2000, 50),
		}},
	}
}

// TestServeChecksGates drives the pure gate logic across the regression
// shapes the guard exists to catch.
func TestServeChecksGates(t *testing.T) {
	const walkNs = 100.0
	healthy := serveTestPoints(50_000, 2000, 80)

	if errs := serveChecks(healthy, walkNs, serveTestTraj(50_000, walkNs)); len(errs) != 0 {
		t.Fatalf("healthy run tripped gates: %v", errs)
	}

	// Requests fragment: a 64-row request's flushes average 50 rows.
	broken := serveTestPoints(50_000, 2000, 50)
	if errs := serveChecks(broken, walkNs, serveTestTraj(50_000, walkNs)); len(errs) == 0 {
		t.Fatal("mean batch 50 on 64-row requests passed the no-fragmentation gate")
	}

	// Flushers waiting for company: single-row p99 explodes.
	slow := serveTestPoints(50_000, 5_000_000, 80)
	if errs := serveChecks(slow, walkNs, serveTestTraj(50_000, walkNs)); len(errs) == 0 {
		t.Fatal("5s p99 passed the latency gate")
	}

	// Throughput collapse beyond the slack, same host speed.
	if errs := serveChecks(serveTestPoints(10_000, 2000, 80), walkNs, serveTestTraj(50_000, walkNs)); len(errs) == 0 {
		t.Fatal("5x throughput loss passed the gate")
	}

	// Same collapse explained by a 5x slower host probe: must pass.
	if errs := serveChecks(serveTestPoints(10_000, 2000, 80), walkNs*5, serveTestTraj(50_000, walkNs)); len(errs) != 0 {
		t.Fatalf("host-normalized slowdown tripped gates: %v", errs)
	}

	// Empty trajectory is itself a failure.
	if errs := serveChecks(healthy, walkNs, &trajectory[ServeRun]{}); len(errs) == 0 {
		t.Fatal("empty trajectory passed")
	}
}

func TestWriteServeArtifact(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("SERVE_ARTIFACT_DIR", dir)
	points := serveTestPoints(1000, 100, 10)[:1]
	lats := [][]time.Duration{{50 * time.Microsecond, 3 * time.Millisecond, 2 * time.Second}}
	if err := writeServeArtifact(points, lats); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "serve_latency.json"))
	if err != nil {
		t.Fatal(err)
	}
	var arts []struct {
		Counts []int `json:"counts"`
	}
	if err := json.Unmarshal(data, &arts); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range arts[0].Counts {
		total += c
	}
	if len(arts) != 1 || total != 3 {
		t.Fatalf("artifact = %s", data)
	}
	// First bucket (<100µs) and overflow bucket (>1s) each hold one.
	if arts[0].Counts[0] != 1 || arts[0].Counts[len(arts[0].Counts)-1] != 1 {
		t.Fatalf("bucketing wrong: %v", arts[0].Counts)
	}

	// Unset env is a silent no-op.
	t.Setenv("SERVE_ARTIFACT_DIR", "")
	if err := writeServeArtifact(points, lats); err != nil {
		t.Fatal(err)
	}
}
