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

// TestServeChecksGates drives the pure gate logic across the regression
// shapes the guard exists to catch.
func TestServeChecksGates(t *testing.T) {
	if errs := serveChecks(serveTestPoints(50_000, 2000, 80)); len(errs) != 0 {
		t.Fatalf("healthy run tripped gates: %v", errs)
	}

	// Requests fragment: a 64-row request's flushes average 50 rows.
	if errs := serveChecks(serveTestPoints(50_000, 2000, 50)); len(errs) == 0 {
		t.Fatal("mean batch 50 on 64-row requests passed the no-fragmentation gate")
	}

	// Flushers waiting for company: single-row p99 explodes.
	if errs := serveChecks(serveTestPoints(50_000, 5_000_000, 80)); len(errs) == 0 {
		t.Fatal("5s p99 passed the latency gate")
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

	// Written atomically: the artifact is alone in its directory.
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("artifact directory holds %d entries (%v), want serve_latency.json alone", len(entries), err)
	}

	// Unset env is a silent no-op.
	t.Setenv("SERVE_ARTIFACT_DIR", "")
	if err := writeServeArtifact(points, lats); err != nil {
		t.Fatal(err)
	}
}
