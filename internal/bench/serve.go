// GUARD-SERVE: load generation through the production inference server's
// real HTTP path, and the CI regression gate on what it observes.
//
// Unlike GUARD-PREDICT (which measures the compiled engine's kernel alone),
// GUARD-SERVE drives the whole serving stack: HTTP framing, body decode,
// the per-model-version micro-batcher, the sharded model cache, and the
// engine — the path a production row actually takes. Its gates are the
// ones one process on any host can judge: identical labels over the wire,
// whole requests per flush, and a p99 disaster line. Serving throughput and
// latency as figures are benchmark/'s to measure (serve-single-row,
// serve-bulk-json).
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/tree"
)

// The fixed GUARD-SERVE workload: two hot models of very different sizes —
// a production-scale tree trained on noisy records and a small clean one —
// serving rows from a table generated with a third seed. Clients alternate
// models so every point exercises the sharded cache, not one entry.
const (
	ServeTrainBig   = 100_000
	ServeTrainNoise = 0.2
	ServeTrainSmall = 20_000
	ServeTableRows  = 20_000
)

// ServePoint is one load shape's measurement; the guard's failure artifact
// carries it as JSON.
type ServePoint struct {
	Clients       int     `json:"clients"`
	RowsPerReq    int     `json:"rows_per_req"`
	Requests      int     `json:"requests"`
	RowsPerSec    float64 `json:"rows_per_sec"`
	P50Micros     float64 `json:"p50_micros"`
	P99Micros     float64 `json:"p99_micros"`
	MeanBatchRows float64 `json:"mean_batch_rows"`
	// DeadlineFrac is the share of flushes closed by the flush timer (0
	// since PR 13 removed it), IdleFrac the share closed because the queue
	// ran dry; the rest closed full.
	DeadlineFrac float64 `json:"deadline_flush_frac"`
	IdleFrac     float64 `json:"idle_flush_frac"`
}

type serveFixture struct {
	big   *tree.Tree
	small *tree.Tree
	tab   *dataset.Table
}

var getServeFixture = sync.OnceValues(func() (*serveFixture, error) {
	big, err := questTree(2, 1, ServeTrainBig, ServeTrainNoise)
	if err != nil {
		return nil, err
	}
	small, err := questTree(5, 2, ServeTrainSmall, 0)
	if err != nil {
		return nil, err
	}
	tab, err := quest(2, 3, ServeTableRows, 0)
	if err != nil {
		return nil, err
	}
	return &serveFixture{big: big, small: small, tab: tab}, nil
})

// serveBench is a running benchmark server plus the prebuilt request
// bodies the load points replay.
type serveBench struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	fix    *serveFixture
	// bodies[model][rowsPerReq bucket] is a cycle of prebuilt JSON bodies.
	bodies map[string]map[int][][]byte
}

func startServeBench(fix *serveFixture, maxConns int) (*serveBench, error) {
	s := serve.New(serve.Config{})
	if _, err := s.SetModel("quest-big", fix.big); err != nil {
		s.Close()
		return nil, err
	}
	if _, err := s.SetModel("quest-small", fix.small); err != nil {
		s.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	return &serveBench{
		srv:  s,
		hs:   hs,
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        maxConns,
			MaxIdleConnsPerHost: maxConns,
		}},
		fix:    fix,
		bodies: map[string]map[int][][]byte{},
	}, nil
}

func (sb *serveBench) stop() {
	sb.hs.Close()
	sb.srv.Close()
}

// bodyCycle prebuilds (and caches) a cycle of JSON bodies of rowsPerReq
// rows each, windowed over the serving table, so the measured loop spends
// its time on the wire, not marshaling.
func (sb *serveBench) bodyCycle(model string, rowsPerReq int) ([][]byte, error) {
	if c, ok := sb.bodies[model][rowsPerReq]; ok {
		return c, nil
	}
	const cycle = 64
	tab := sb.fix.tab
	out := make([][]byte, cycle)
	for i := range out {
		rows := make([][]float64, rowsPerReq)
		for j := range rows {
			rows[j] = tab.Row((i*rowsPerReq + j) % tab.NumRows())
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
func (sb *serveBench) measurePoint(clients, rowsPerReq, reqPerClient int) (ServePoint, []time.Duration, error) {
	models := []string{"quest-big", "quest-small"}
	cycles := make([][][]byte, len(models))
	for i, m := range models {
		c, err := sb.bodyCycle(m, rowsPerReq)
		if err != nil {
			return ServePoint{}, nil, err
		}
		cycles[i] = c
	}

	stats := sb.srv.Stats()
	batches0, batchRows0 := stats.Batches.Load(), stats.BatchRows.Load()
	deadline0, idle0 := stats.DeadlineFlushes.Load(), stats.IdleFlushes.Load()

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
			return ServePoint{}, nil, err
		}
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	totalRows := clients * reqPerClient * rowsPerReq
	pt := ServePoint{
		Clients:    clients,
		RowsPerReq: rowsPerReq,
		Requests:   clients * reqPerClient,
		RowsPerSec: float64(totalRows) / wall.Seconds(),
		P50Micros:  float64(lats[len(lats)/2].Microseconds()),
		P99Micros:  float64(lats[len(lats)*99/100].Microseconds()),
	}
	if db := stats.Batches.Load() - batches0; db > 0 {
		pt.MeanBatchRows = float64(stats.BatchRows.Load()-batchRows0) / float64(db)
		pt.DeadlineFrac = float64(stats.DeadlineFlushes.Load()-deadline0) / float64(db)
		pt.IdleFrac = float64(stats.IdleFlushes.Load()-idle0) / float64(db)
	}
	return pt, lats, nil
}

// serveLoadShapes are the fixed GUARD-SERVE points: a latency-bound swarm of
// single-row clients, a balanced mixed shape, and a throughput-bound shape
// of fewer, fatter requests.
var serveLoadShapes = []struct{ clients, rowsPerReq, reqPerClient int }{
	{32, 1, 40},
	{16, 16, 40},
	{4, 64, 60},
}

func measureServe(w io.Writer, fix *serveFixture) ([]ServePoint, [][]time.Duration, error) {
	sb, err := startServeBench(fix, 64)
	if err != nil {
		return nil, nil, err
	}
	defer sb.stop()
	// Warmup: fault in connections and pools before the timed points.
	if _, _, err := sb.measurePoint(4, 4, 8); err != nil {
		return nil, nil, err
	}
	var points []ServePoint
	var allLats [][]time.Duration
	for _, shape := range serveLoadShapes {
		pt, lats, err := sb.measurePoint(shape.clients, shape.rowsPerReq, shape.reqPerClient)
		if err != nil {
			return nil, nil, err
		}
		points = append(points, pt)
		allLats = append(allLats, lats)
		fmt.Fprintf(w, "  %3d clients x %3d rows  %9.0f rows/s  p50 %7.0fµs  p99 %7.0fµs  mean batch %6.1f rows  idle flushes %4.0f%%\n",
			pt.Clients, pt.RowsPerReq, pt.RowsPerSec, pt.P50Micros, pt.P99Micros, pt.MeanBatchRows, pt.IdleFrac*100)
	}
	return points, allLats, nil
}

// GUARD-SERVE thresholds. The differential gate is absolute. The latency
// gate only catches order-of-magnitude disasters (a flusher that sleeps
// waiting for company, or requests parked in the queue), and the batching
// gate proves the fatter shapes' requests are never fragmented: a flush
// carries whole requests, so its mean size cannot be below one request's
// rows.
const (
	serveGuardP99Floor = 100_000.0 // µs
	serveGuardDiffRows = 10_000
)

// serveDifferential pushes serveGuardDiffRows fixture rows through the real
// HTTP path in mixed-size chunks against both models and insists on
// bit-identical labels vs each model's walker oracle.
func serveDifferential(w io.Writer, sb *serveBench) error {
	fix := sb.fix
	models := []struct {
		name string
		tr   *tree.Tree
	}{{"quest-big", fix.big}, {"quest-small", fix.small}}
	chunks := []int{1, 7, 64, 512, 1000}
	for _, m := range models {
		want := make([]int, serveGuardDiffRows)
		for r := 0; r < serveGuardDiffRows; r++ {
			want[r] = m.tr.Predict(fix.tab.Row(r))
		}
		r := 0
		for r < serveGuardDiffRows {
			n := chunks[r%len(chunks)]
			if r+n > serveGuardDiffRows {
				n = serveGuardDiffRows - r
			}
			rows := make([][]float64, n)
			for j := range rows {
				rows[j] = fix.tab.Row(r + j)
			}
			body, err := json.Marshal(map[string]any{"rows": rows})
			if err != nil {
				return err
			}
			resp, err := sb.client.Post(sb.base+"/predict/"+m.name, "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			var pr struct {
				Indices []int `json:"indices"`
			}
			err = json.NewDecoder(resp.Body).Decode(&pr)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK || len(pr.Indices) != n {
				return fmt.Errorf("model %s chunk at %d: status %d, %d indices for %d rows",
					m.name, r, resp.StatusCode, len(pr.Indices), n)
			}
			for j := 0; j < n; j++ {
				if pr.Indices[j] != want[r+j] {
					return fmt.Errorf("model %s row %d: served %d, walker oracle %d",
						m.name, r+j, pr.Indices[j], want[r+j])
				}
			}
			r += n
		}
	}
	fmt.Fprintf(w, "  labels identical over HTTP: %d rows x %d models, mixed chunk sizes\n",
		serveGuardDiffRows, len(models))
	return nil
}

func serveChecks(fresh []ServePoint) []error {
	var g gates
	find := func(clients, rows int) *ServePoint {
		for i := range fresh {
			if fresh[i].Clients == clients && fresh[i].RowsPerReq == rows {
				return &fresh[i]
			}
		}
		return nil
	}

	// Gate 1 (host-independent): no fragmentation — a fat shape's mean
	// flush holds at least one whole request.
	for _, shape := range [][2]int{{16, 16}, {4, 64}} {
		if pt := find(shape[0], shape[1]); pt == nil {
			g.fail("missing fresh %dx%d point", shape[0], shape[1])
		} else if pt.MeanBatchRows < float64(shape[1]) {
			g.fail("requests fragment across flushes: %dx%d mean batch %.2f rows < %d rows per request",
				shape[0], shape[1], pt.MeanBatchRows, shape[1])
		}
	}

	// Gate 2 (host-independent): the single-row swarm's p99 must stay
	// bounded-latency — a flusher that waits for batches to fill, or a
	// queue nobody drains, blows through this by orders of magnitude.
	if pt := find(32, 1); pt == nil {
		g.fail("missing fresh 32x1 point")
	} else if pt.P99Micros > serveGuardP99Floor {
		g.fail("single-row p99 %.0fµs exceeds the %.0fµs disaster line", pt.P99Micros, serveGuardP99Floor)
	}
	return g.errs
}

// writeServeArtifact dumps the per-point latency distributions to
// SERVE_ARTIFACT_DIR (CI uploads it on guard failure) so a tripped gate
// leaves the full histogram behind, not just the two percentiles.
func writeServeArtifact(points []ServePoint, lats [][]time.Duration) error {
	type pointArtifact struct {
		Point        ServePoint `json:"point"`
		BucketEdgeUs []float64  `json:"bucket_edge_us"`
		Counts       []int      `json:"counts"`
	}
	var arts []pointArtifact
	edges := []float64{100, 250, 500, 1000, 2500, 5000, 10_000, 25_000, 50_000, 100_000, 1_000_000}
	for i, pt := range points {
		counts := make([]int, len(edges)+1)
		for _, l := range lats[i] {
			us := float64(l.Microseconds())
			b := sort.SearchFloat64s(edges, us)
			counts[b]++
		}
		arts = append(arts, pointArtifact{Point: pt, BucketEdgeUs: edges, Counts: counts})
	}
	return writeArtifact(os.Getenv("SERVE_ARTIFACT_DIR"), "serve_latency.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(arts)
	})
}

// ServeGuard runs and prints GUARD-SERVE, the CI regression gate for the
// inference server. It verifies bit-identical labels through the real HTTP
// path, then drives the load points and holds them to serveChecks. On
// failure the latency distributions land in SERVE_ARTIFACT_DIR for CI to
// upload.
func ServeGuard(e *Env) error {
	w := e.Out
	fmt.Fprintln(w, "GUARD-SERVE — HTTP inference serving: labels, batching, tail latency")
	fix, err := getServeFixture()
	if err != nil {
		return err
	}

	sb, err := startServeBench(fix, 64)
	if err != nil {
		return err
	}
	diffErr := serveDifferential(w, sb)
	sb.stop()
	if diffErr != nil {
		return diffErr
	}

	points, lats, err := measureServe(w, fix)
	if err != nil {
		return err
	}
	err = guardError(serveChecks(points), func() error { return writeServeArtifact(points, lats) })
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ok: labels identical over HTTP, no request fragmented, single-row p99 under %.0fms (%d load shapes)\n",
		serveGuardP99Floor/1e3, len(points))
	return nil
}
