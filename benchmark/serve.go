package main

// The two serve workloads: serve.New on a real 127.0.0.1 listener, one hot
// model, and a closed loop of two keep-alive clients that each send their
// next request only after the previous reply — callers that wait for an
// answer, so no queue builds. Overload and shedding need an open-loop rate
// sweep, which is a benchmark issue of its own.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/serial"
	"repro/internal/serve"
	"repro/internal/serve/cache"
	"repro/internal/splitter"
	"repro/internal/tree"
)

const (
	modelName = "quest"
	bodyCycle = 64 // distinct request bodies each client cycles through
)

func runServeSingle(rc *runCtx) error { return runServing(rc, 1) }
func runServeBulk(rc *runCtx) error   { return runServing(rc, rc.sz.bulkRows) }

// serveFixture is a running server plus the request bodies and, for each,
// the bytes a correct reply consists of.
type serveFixture struct {
	train *dataset.Table
	tree  *tree.Tree
	rows  [][][]float64 // per body, the rows it carries
	body  [][]byte
	want  [][]byte

	srv  *serve.Server
	hs   *http.Server
	done chan struct{} // closed when hs.Serve has returned
	url  string

	genWall, serialWall float64
}

func (f *serveFixture) stop() {
	f.hs.Close()
	<-f.done
	f.srv.Close()
}

// setupServing builds everything before the first timed request: the
// training table, the served tree (serial.Train, whose pointer walker is
// also the label oracle), the request bodies, the server, and one checked
// request per body that fixes the expected reply bytes.
func setupServing(rc *runCtx, rowsPerReq int) (*serveFixture, error) {
	f := &serveFixture{}
	var err error
	rc.tr.do("datagen", "Generate", 0, func() {
		f.genWall = timeIt(func() { f.train, err = datagen.Generate(questConfig(0.2), rc.sz.serveTrain) }).Seconds()
	})
	if err != nil {
		return nil, err
	}
	rc.tr.do("serial", "Train", 0, func() {
		f.serialWall = timeIt(func() { f.tree, err = serial.Train(f.train, splitter.Config{}) }).Seconds()
	})
	if err != nil {
		return nil, err
	}
	// The rows the clients send are the seed's own sample, without label
	// noise; the served model is the same for every seed (see recordsSeed).
	rowCfg := questConfig(0)
	rowCfg.Seed = rc.seed + 1_000_003
	rowTab, err := datagen.Generate(rowCfg, rc.sz.serveRows)
	if err != nil {
		return nil, err
	}
	for b := 0; b < bodyCycle; b++ {
		rows := make([][]float64, rowsPerReq)
		for j := range rows {
			rows[j] = rowTab.Row((b*rowsPerReq + j) % rowTab.NumRows())
		}
		body, err := json.Marshal(map[string]any{"rows": rows})
		if err != nil {
			return nil, err
		}
		f.rows, f.body = append(f.rows, rows), append(f.body, body)
	}

	rc.tr.do("serve", "New + SetModel + listen", 0, func() {
		f.srv = serve.New(serve.Config{})
		_, err = f.srv.SetModel(modelName, f.tree)
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.srv.Close()
		return nil, err
	}
	f.hs = &http.Server{Handler: f.srv.Handler()}
	f.done = make(chan struct{})
	go func() {
		defer close(f.done)
		f.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	f.url = "http://" + ln.Addr().String() + "/predict/" + modelName

	cl := newClient()
	defer cl.CloseIdleConnections()
	var buf bytes.Buffer
	for b, body := range f.body {
		status, err := post(cl, f.url, body, &buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, buf.Bytes())
		}
		var reply struct {
			Indices []int `json:"indices"`
		}
		if err == nil {
			err = json.Unmarshal(buf.Bytes(), &reply)
		}
		if err == nil && len(reply.Indices) != len(f.rows[b]) {
			err = fmt.Errorf("%d labels for %d rows", len(reply.Indices), len(f.rows[b]))
		}
		for j := 0; err == nil && j < len(reply.Indices); j++ {
			if want := f.tree.Predict(f.rows[b][j]); reply.Indices[j] != want {
				err = fmt.Errorf("row %d labelled %d, the walker says %d", j, reply.Indices[j], want)
			}
		}
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("body %d: %w", b, err)
		}
		f.want = append(f.want, append([]byte(nil), buf.Bytes()...))
	}
	return f, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// post sends one request and reads the whole reply into buf.
func post(cl *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// loadResult is one closed-loop window.
type loadResult struct {
	lats   []time.Duration // latency of every request that was answered correctly, sorted
	done   []time.Duration // when each of those requests completed, from the window's start
	window float64         // the window's length in seconds
	failed []error
}

// requestsPerSecond is the window's throughput: the median over ten equal
// slices of the window of the requests completed in a slice. A plain count
// over the whole window is a mean, and one interference episode of two
// seconds (see README.md) moves it by a tenth; the median slice repeats.
func (r loadResult) requestsPerSecond() float64 {
	const slices = 10
	counts := make([]float64, slices)
	width := r.window / slices
	for _, d := range r.done {
		if i := int(d.Seconds() / width); i < slices { // the last requests finish past the deadline
			counts[i]++
		}
	}
	return median(counts) / width
}

// closedLoop drives the fixed load for the given time: procs clients, each
// sending its next request as soon as the previous reply is checked. Every
// reply must be 200 and byte-equal to the reply whose labels set-up checked
// against the walker. send performs one request (HTTP or direct handler).
func closedLoop(rc *runCtx, f *serveFixture, secs float64, spanName string, send func(client, body int, buf *bytes.Buffer) (int, error)) loadResult {
	parent := rc.tr.current()
	lats := make([][]time.Duration, procs)
	done := make([][]time.Duration, procs)
	fails := make([][]error, procs)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for q := 0; ; q++ {
				b := (c*bodyCycle/procs + q) % bodyCycle
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				status, err := send(c, b, &buf)
				t1 := time.Now()
				switch {
				case err != nil:
				case status != http.StatusOK:
					err = fmt.Errorf("status %d", status)
				case !bytes.Equal(buf.Bytes(), f.want[b]):
					err = errors.New("reply differs from the oracle-checked reply")
				}
				if err != nil {
					fails[c] = append(fails[c], err)
					continue
				}
				lats[c] = append(lats[c], t1.Sub(t0))
				done[c] = append(done[c], t1.Sub(start))
				rc.tr.add(parent, "serve", spanName, q, c+1, t0, t1)
			}
		}(c)
	}
	wg.Wait()
	res := loadResult{window: secs}
	for c := range lats {
		res.lats = append(res.lats, lats[c]...)
		res.done = append(res.done, done[c]...)
		res.failed = append(res.failed, fails[c]...)
	}
	sortDurations(res.lats)
	return res
}

// httpSender returns a send function over real keep-alive connections, one
// per client, and the function that closes them.
func httpSender(f *serveFixture) (send func(c, b int, buf *bytes.Buffer) (int, error), closeAll func()) {
	clients := make([]*http.Client, procs)
	for c := range clients {
		clients[c] = newClient()
	}
	send = func(c, b int, buf *bytes.Buffer) (int, error) { return post(clients[c], f.url, f.body[b], buf) }
	closeAll = func() {
		for _, cl := range clients {
			cl.CloseIdleConnections()
		}
	}
	return send, closeAll
}

func runServing(rc *runCtx, rowsPerReq int) error {
	var f *serveFixture
	setups, err := repeatSetup(rc, func() error {
		if f != nil {
			f.stop()
		}
		var err error
		f, err = setupServing(rc, rowsPerReq)
		return err
	})
	if err != nil {
		return err
	}
	defer f.stop()
	runtime.GC()

	send, closeClients := httpSender(f)
	defer closeClients()
	closedLoop(rc, f, rc.sz.serveWarm, "warm-up request", send)

	if rc.trace {
		return traceServing(rc, f, rowsPerReq, send)
	}

	stats := f.srv.Stats()
	rows0 := stats.RowsIn.Load()
	res := closedLoop(rc, f, rc.seconds, "request", send)
	recordLoad(rc, res)
	if len(res.lats) == 0 {
		return errors.New("no request succeeded")
	}
	rc.logf("%d requests in %g s, %d rows decoded by the server", len(res.lats), res.window, stats.RowsIn.Load()-rows0)
	rc.set("setup_s", median(setups), len(setups))
	rc.set("op_ms", percentileMs(res.lats, 0.5), len(res.lats))
	rc.set("rows_per_s", res.requestsPerSecond()*float64(rowsPerReq), len(res.lats))

	// The compiled model must label its table as the pointer walker does.
	if _, err := measurePredict(rc, servedModel(f.tree), f.train, 0); err != nil {
		return err
	}
	rc.set("peak_rss_mb", peakRSSMB(), 1)
	return nil
}

func recordLoad(rc *runCtx, res loadResult) {
	rc.attempted += len(res.lats)
	for _, err := range res.failed {
		rc.op(err)
	}
}

func servedModel(t *tree.Tree) func() (model, error) {
	return modelOf(&outcome{tree: t})
}

// recorder is the cheapest ResponseWriter that keeps what the oracle check
// needs: the status and the body.
type recorder struct {
	header http.Header
	status int
	buf    *bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(p []byte) (int, error) { return r.buf.Write(p) }

// handlerSender calls a server's handler directly — no socket, no HTTP
// framing — with the same bodies.
func handlerSender(f *serveFixture, h http.Handler) func(c, b int, buf *bytes.Buffer) (int, error) {
	return func(c, b int, buf *bytes.Buffer) (int, error) {
		req, err := http.NewRequest(http.MethodPost, "/predict/"+modelName, bytes.NewReader(f.body[b]))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		buf.Reset()
		rec := &recorder{header: http.Header{}, status: http.StatusOK, buf: buf}
		h.ServeHTTP(rec, req)
		return rec.status, nil
	}
}

// traceServing is the traced run of a serve workload: a short untraced
// window and a full traced one (every request a span), the server's own
// counters over the traced window, then the same load against the handler
// directly, against a handler that never waits for a batch, and against the
// kernel alone — the differences are the layers' shares of a request.
func traceServing(rc *runCtx, f *serveFixture, rowsPerReq int, send func(c, b int, buf *bytes.Buffer) (int, error)) error {
	rc.tr.on = false
	untraced := closedLoop(rc, f, rc.seconds/4, "request", send)
	recordLoad(rc, untraced)
	rc.tr.on = true

	st := f.srv.Stats()
	batches0, batchRows0, deadline0, sheds0, reqs0 := st.Batches.Load(), st.BatchRows.Load(), st.DeadlineFlushes.Load(), st.Sheds.Load(), st.Requests.Load()
	var res loadResult
	rc.tr.do("bench", "closed loop", 0, func() { res = closedLoop(rc, f, rc.seconds, "request", send) })
	recordLoad(rc, res)
	if len(res.lats) == 0 || len(untraced.lats) == 0 {
		return errors.New("no request succeeded")
	}
	clientP50 := percentileMs(res.lats, 0.5)
	rc.set("bench.trace_overhead_share", (clientP50-percentileMs(untraced.lats, 0.5))/percentileMs(untraced.lats, 0.5), len(res.lats))
	rc.set("serve.request_p99_ms", percentileMs(res.lats, 0.99), len(res.lats))
	rc.set("serve.request_p999_ms", percentileMs(res.lats, 0.999), len(res.lats))
	if batches := float64(st.Batches.Load() - batches0); batches > 0 {
		rc.set("serve.mean_batch_rows", float64(st.BatchRows.Load()-batchRows0)/batches, int(batches))
		rc.set("serve.deadline_flush_share", float64(st.DeadlineFlushes.Load()-deadline0)/batches, int(batches))
	}
	rc.set("serve.shed_share", float64(st.Sheds.Load()-sheds0)/float64(st.Requests.Load()-reqs0), int(st.Requests.Load()-reqs0))
	bodyBytes := 0
	for _, b := range f.body {
		bodyBytes += len(b)
	}
	rc.set("serve.body_bytes_per_row", float64(bodyBytes)/float64(bodyCycle*rowsPerReq), bodyCycle)
	rc.set("datagen.generate_s", f.genWall, 1)
	rc.set("serial.train_wall_s", f.serialWall, 1)

	var direct, nowait loadResult
	rc.tr.do("serve", "handler, no socket", 0, func() {
		direct = closedLoop(rc, f, rc.sz.probeSecs, "Handler.ServeHTTP", handlerSender(f, f.srv.Handler()))
	})
	recordLoad(rc, direct)
	// A second server whose MaxBatch equals the rows of one request: every
	// request fills a batch, so no flush ever waits for the deadline.
	eager := serve.New(serve.Config{MaxBatch: rowsPerReq})
	defer eager.Close()
	if _, err := eager.SetModel(modelName, f.tree); err != nil {
		return err
	}
	rc.tr.do("serve", "handler, no socket, no batch wait", 0, func() {
		nowait = closedLoop(rc, f, rc.sz.probeSecs, "Handler.ServeHTTP", handlerSender(f, eager.Handler()))
	})
	recordLoad(rc, nowait)
	if len(direct.lats) == 0 || len(nowait.lats) == 0 {
		return errors.New("no direct handler call succeeded")
	}
	handlerP50, nowaitP50 := percentileMs(direct.lats, 0.5), percentileMs(nowait.lats, 0.5)
	rc.set("serve.handler_p50_ms", handlerP50, len(direct.lats))
	rc.set("serve.handler_nowait_p50_ms", nowaitP50, len(nowait.lats))
	rc.set("serve.batch_wait_ms", handlerP50-nowaitP50, len(direct.lats))
	rc.set("serve.http_overhead_ms", clientP50-handlerP50, len(res.lats))

	pm, err := probeModel(rc, servedModel(f.tree), f.train)
	if err != nil {
		return err
	}
	rc.set("infer.table_ns_per_row", pm.nsPerRow, pm.passes)
	kernel, calls := probeKernel(rc, pm.model.compiled, f.rows)
	rc.set("infer.rows_ns_per_row", kernel*1e9/float64(rowsPerReq), calls)
	rc.set("serve.kernel_ms_per_req", kernel*1e3, calls)
	rc.set("cache.acquire_release_ns", probeCache(rc, pm.model), rc.sz.probeReps)
	return nil
}

// probeKernel times PredictRowsInto on request-sized row groups and
// returns the seconds one request's rows take and the calls per repetition.
// A repetition predicts about 250 rows per probeCalls whatever the request
// size, so the probe costs the same on both serve workloads.
func probeKernel(rc *runCtx, m infer.Compiled, bodies [][][]float64) (perReq float64, calls int) {
	out := make([]int, len(bodies[0]))
	cycles := max(1, 250*rc.sz.probeCalls/(len(bodies)*len(bodies[0])))
	calls = cycles * len(bodies)
	rc.tr.do("infer", "PredictRowsInto per request", 0, func() {
		perReq = medianOf(rc.sz.probeReps, func() {
			for i := 0; i < cycles; i++ {
				for _, rows := range bodies {
					if err := m.PredictRowsInto(rows, out); err != nil {
						panic(err) // the same rows were just served
					}
				}
			}
		}) / float64(calls)
	})
	return perReq, calls
}

// probeCache times the model cache's per-request cost: Acquire + Release of
// a hot entry.
func probeCache(rc *runCtx, m model) float64 {
	c := cache.New(0)
	c.Store(c.NewEntry(modelName, m.forest, m.compiled))
	defer c.Delete(modelName)
	var ns float64
	rc.tr.do("cache", "Acquire + Release", 0, func() {
		calls := rc.sz.probeCalls * 100
		ns = medianOf(rc.sz.probeReps, func() {
			for i := 0; i < calls; i++ {
				e, ok := c.Acquire(modelName)
				if !ok {
					panic("cache: stored entry missing")
				}
				e.Release()
			}
		}) * 1e9 / float64(calls)
	})
	return ns
}
