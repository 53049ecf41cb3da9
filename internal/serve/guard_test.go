package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/tree"
)

// GUARD-SERVE drives the whole serving stack over loopback HTTP — framing,
// body decode, the per-model-version micro-batcher, the sharded model
// cache and the engine — with two hot models of very different sizes (a
// production-scale tree trained on noisy records and a small clean one),
// serving rows from a table generated with a third seed. Clients alternate
// models, so every point exercises the cache, not one entry. Its gates are
// the ones one process on any host can judge: identical labels over the
// wire, whole requests per flush, and a p99 disaster line. Serving
// throughput and latency as figures are benchmark/'s to measure.
const (
	serveTrainBig   = 100_000
	serveTrainNoise = 0.2
	serveTrainSmall = 20_000
	serveTableRows  = 20_000
	// The latency gate only catches order-of-magnitude disasters (a flusher
	// that sleeps waiting for company, or requests parked in the queue).
	serveGuardP99Floor = 100_000.0 // µs
	serveGuardDiffRows = 10_000
)

// servePoint is one load shape's measurement; the guard's failure
// artifact carries it as JSON. IdleFrac is the share of flushes closed
// because the queue ran dry; the rest closed full.
type servePoint struct {
	Clients       int     `json:"clients"`
	RowsPerReq    int     `json:"rows_per_req"`
	Requests      int     `json:"requests"`
	RowsPerSec    float64 `json:"rows_per_sec"`
	P50Micros     float64 `json:"p50_micros"`
	P99Micros     float64 `json:"p99_micros"`
	MeanBatchRows float64 `json:"mean_batch_rows"`
	IdleFrac      float64 `json:"idle_flush_frac"`
}

// serveBench is a running server holding both models, plus the prebuilt
// request bodies the load points replay.
type serveBench struct {
	srv    *Server
	base   string
	client *http.Client
	tab    *dataset.Table
	// bodies[model][rowsPerReq] is a cycle of prebuilt JSON bodies.
	bodies map[string]map[int][][]byte
}

func startServeBench(t *testing.T, big, small *tree.Tree, tab *dataset.Table) *serveBench {
	t.Helper()
	s, ts := newTestServer(t, Config{})
	for name, tr := range map[string]*tree.Tree{"quest-big": big, "quest-small": small} {
		if _, err := s.SetModel(name, tr); err != nil {
			t.Fatal(err)
		}
	}
	transport := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	t.Cleanup(transport.CloseIdleConnections)
	return &serveBench{
		srv: s, base: ts.URL, client: &http.Client{Transport: transport}, tab: tab,
		bodies: map[string]map[int][][]byte{},
	}
}

// bodyCycle prebuilds (and caches) a cycle of JSON bodies of rowsPerReq
// rows each, windowed over the serving table, so the measured loop spends
// its time on the wire, not marshaling.
func (sb *serveBench) bodyCycle(model string, rowsPerReq int) ([][]byte, error) {
	if c, ok := sb.bodies[model][rowsPerReq]; ok {
		return c, nil
	}
	const cycle = 64
	out := make([][]byte, cycle)
	for i := range out {
		rows := make([][]float64, rowsPerReq)
		for j := range rows {
			rows[j] = sb.tab.Row((i*rowsPerReq + j) % sb.tab.NumRows())
		}
		b, err := json.Marshal(map[string]any{"rows": rows})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	if sb.bodies[model] == nil {
		sb.bodies[model] = map[int][][]byte{}
	}
	sb.bodies[model][rowsPerReq] = out
	return out, nil
}

func (sb *serveBench) post(model string, body []byte) error {
	resp, err := sb.client.Post(sb.base+"/predict/"+model, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("predict %s: status %d", model, resp.StatusCode)
	}
	return nil
}

// measurePoint drives one load shape — clients concurrent connections each
// sending reqPerClient requests of rowsPerReq rows, alternating between the
// two models — and returns the point plus every request's latency.
func (sb *serveBench) measurePoint(clients, rowsPerReq, reqPerClient int) (servePoint, []time.Duration, error) {
	models := []string{"quest-big", "quest-small"}
	cycles := make([][][]byte, len(models))
	for i, m := range models {
		c, err := sb.bodyCycle(m, rowsPerReq)
		if err != nil {
			return servePoint{}, nil, err
		}
		cycles[i] = c
	}

	stats := sb.srv.Stats()
	batches0, batchRows0, idle0 := stats.Batches.Load(), stats.BatchRows.Load(), stats.IdleFlushes.Load()

	lats := make([]time.Duration, clients*reqPerClient)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < reqPerClient; q++ {
				mi := (c + q) % len(models)
				body := cycles[mi][(c*reqPerClient+q)%len(cycles[mi])]
				t0 := time.Now()
				if err := sb.post(models[mi], body); err != nil {
					errs[c] = err
					return
				}
				lats[c*reqPerClient+q] = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return servePoint{}, nil, err
		}
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pt := servePoint{
		Clients:    clients,
		RowsPerReq: rowsPerReq,
		Requests:   clients * reqPerClient,
		RowsPerSec: float64(clients*reqPerClient*rowsPerReq) / wall.Seconds(),
		P50Micros:  float64(lats[len(lats)/2].Microseconds()),
		P99Micros:  float64(lats[len(lats)*99/100].Microseconds()),
	}
	if db := stats.Batches.Load() - batches0; db > 0 {
		pt.MeanBatchRows = float64(stats.BatchRows.Load()-batchRows0) / float64(db)
		pt.IdleFrac = float64(stats.IdleFlushes.Load()-idle0) / float64(db)
	}
	return pt, lats, nil
}

// serveDifferential pushes serveGuardDiffRows table rows through the real
// HTTP path in mixed-size chunks against both models and insists on
// bit-identical labels vs each model's walker oracle.
func serveDifferential(t *testing.T, sb *serveBench, big, small *tree.Tree) {
	t.Helper()
	models := []struct {
		name string
		tr   *tree.Tree
	}{{"quest-big", big}, {"quest-small", small}}
	chunks := []int{1, 7, 64, 512, 1000}
	for _, m := range models {
		for r := 0; r < serveGuardDiffRows; {
			n := min(chunks[r%len(chunks)], serveGuardDiffRows-r)
			rows := make([][]float64, n)
			for j := range rows {
				rows[j] = sb.tab.Row(r + j)
			}
			pr, status := postPredict(t, sb.client, sb.base, m.name, jsonBody(t, rows), false)
			if status != http.StatusOK || len(pr.Indices) != n {
				t.Fatalf("model %s chunk at %d: status %d for %d rows", m.name, r, status, n)
			}
			for j, got := range pr.Indices {
				if want := m.tr.Predict(rows[j]); got != want {
					t.Fatalf("model %s row %d: served %d, walker oracle %d", m.name, r+j, got, want)
				}
			}
			r += n
		}
	}
	t.Logf("labels identical over HTTP: %d rows x %d models, mixed chunk sizes", serveGuardDiffRows, len(models))
}

// writeServeArtifact dumps the per-point latency distributions to
// SERVE_ARTIFACT_DIR (an absolute path: go test runs in the package
// directory; CI uploads it on failure), so a tripped gate leaves the whole
// histogram behind, not just two percentiles. Unset, it writes nothing.
func writeServeArtifact(points []servePoint, lats [][]time.Duration) error {
	dir := os.Getenv("SERVE_ARTIFACT_DIR")
	if dir == "" {
		return nil
	}
	type pointArtifact struct {
		Point        servePoint `json:"point"`
		BucketEdgeUs []float64  `json:"bucket_edge_us"`
		Counts       []int      `json:"counts"`
	}
	var arts []pointArtifact
	edges := []float64{100, 250, 500, 1000, 2500, 5000, 10_000, 25_000, 50_000, 100_000, 1_000_000}
	for i, pt := range points {
		counts := make([]int, len(edges)+1)
		for _, l := range lats[i] {
			counts[sort.SearchFloat64s(edges, float64(l.Microseconds()))]++
		}
		arts = append(arts, pointArtifact{Point: pt, BucketEdgeUs: edges, Counts: counts})
	}
	data, err := json.MarshalIndent(arts, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "serve_latency.json"), append(data, '\n'), 0o644)
}

// TestGuardServe is GUARD-SERVE (make guard): labels over HTTP first, then
// three load shapes — a latency-bound swarm of single-row clients, a
// balanced mixed shape, and fewer, fatter requests. No fat shape may
// fragment (a flush carries whole requests, so its mean size cannot be
// below one request's rows), and the single-row p99 stays under the
// disaster line. It needs a clock, so it skips unless GUARD=1.
func TestGuardServe(t *testing.T) {
	if os.Getenv("GUARD") != "1" {
		t.Skip("clock gate: runs under GUARD=1 (make guard)")
	}
	quest := func(function int, seed int64, n int, noise float64) *dataset.Table {
		tab, err := datagen.Generate(datagen.Config{Function: function, Attrs: datagen.Seven, Seed: seed, LabelNoise: noise}, n)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	big, _ := trainTree(t, 1, serveTrainBig, serveTrainNoise)
	small, err := serial.Train(quest(5, 2, serveTrainSmall, 0), splitter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tab := quest(2, 3, serveTableRows, 0)

	serveDifferential(t, startServeBench(t, big, small, tab), big, small)

	sb := startServeBench(t, big, small, tab)
	// Warmup: fault in connections and pools before the timed points.
	if _, _, err := sb.measurePoint(4, 4, 8); err != nil {
		t.Fatal(err)
	}
	var points []servePoint
	var lats [][]time.Duration
	for _, shape := range []struct{ clients, rowsPerReq, reqPerClient int }{{32, 1, 40}, {16, 16, 40}, {4, 64, 60}} {
		pt, l, err := sb.measurePoint(shape.clients, shape.rowsPerReq, shape.reqPerClient)
		if err != nil {
			t.Fatal(err)
		}
		points, lats = append(points, pt), append(lats, l)
		t.Logf("%3d clients x %3d rows  %9.0f rows/s  p50 %7.0fµs  p99 %7.0fµs  mean batch %6.1f rows  idle flushes %4.0f%%",
			pt.Clients, pt.RowsPerReq, pt.RowsPerSec, pt.P50Micros, pt.P99Micros, pt.MeanBatchRows, pt.IdleFrac*100)
	}

	for _, pt := range points[1:] {
		if pt.MeanBatchRows < float64(pt.RowsPerReq) {
			t.Errorf("requests fragment across flushes: %dx%d mean batch %.2f rows < %d rows per request",
				pt.Clients, pt.RowsPerReq, pt.MeanBatchRows, pt.RowsPerReq)
		}
	}
	if p99 := points[0].P99Micros; p99 > serveGuardP99Floor {
		t.Errorf("single-row p99 %.0fµs exceeds the %.0fµs disaster line", p99, serveGuardP99Floor)
	}
	if t.Failed() {
		if err := writeServeArtifact(points, lats); err != nil {
			t.Error(err)
		}
	}
}
