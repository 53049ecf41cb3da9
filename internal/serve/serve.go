// Package serve is the production inference server: a long-running HTTP
// prediction service on top of the compiled batch engine in internal/infer.
//
// Requests — single rows or small row groups, JSON or a compact CSV body
// reusing the internal/dataset schema conventions — land in a
// work-conserving micro-batcher (one per model version) that coalesces
// them into the engine's batches: a flusher takes the requests already
// waiting, up to MaxBatch rows, and flushes the moment the queue is empty —
// it never sleeps to fill a batch, so a lone request costs its own service
// time and batches grow only from the backlog that load builds. Each flush
// is one PredictRowsInto call over pooled buffers. BatchWait bounds only
// how long a request may wait for admission to a full queue before it is
// shed with 503. Multiple named models stay hot behind the sharded,
// versioned cache in internal/serve/cache; POST /models/{name} hot-swaps a
// version atomically (upload a serialized tree, or retrain from a labeled
// CSV via classify), and old versions are drained by refcount so an
// in-flight batch never sees a torn swap.
//
// Endpoints:
//
//	POST   /predict/{model}   classify rows (application/json or text/csv)
//	POST   /models/{name}     upload a tree (JSON) or retrain (text/csv)
//	GET    /models            list live models
//	DELETE /models/{name}     remove a model
//	GET    /healthz           liveness
//	GET    /stats             counters, batch-size and per-stage latency histograms, queue depth
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/classify"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/serve/cache"
	"repro/internal/tree"
)

// Config sizes the server. The zero value selects every default.
type Config struct {
	// MaxBatch caps a flush's row count; default 512 (the engine's
	// level-synchronous batch size — larger batches stop helping).
	MaxBatch int
	// BatchWait is the admission deadline: the longest a request waits for
	// a slot in a full prediction queue before it is shed (ErrOverloaded,
	// HTTP 503). It delays nothing else — flushes never wait for company,
	// and a request finding room in the queue never sees it. Default 1ms.
	BatchWait time.Duration
	// Workers is the flusher count per model version; default
	// max(2, GOMAXPROCS).
	Workers int
	// MaxBodyBytes caps a request body; default 8 MiB.
	MaxBodyBytes int64
	// MaxRowsPerRequest caps one request's row group; default 4096.
	MaxRowsPerRequest int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 512
	}
	if c.BatchWait <= 0 {
		c.BatchWait = time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 2 {
			c.Workers = 2
		}
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxRowsPerRequest <= 0 {
		c.MaxRowsPerRequest = 4096
	}
	return c
}

// served is the per-version payload hung on a cache entry: the version's
// micro-batcher, the decode indexes precomputed for its schema, the JSON
// fragments its replies are assembled from, and where its requests' time
// went.
type served struct {
	b        *batcher
	catIndex []map[string]int
	// replyHead is `{"model":<name>,"version":` and classJSON[c] is class
	// c's name, both rendered once by encoding/json so escaping is its,
	// not ours. (The version number is assigned when the entry is stored,
	// after its payload is attached, so it is appended per reply.)
	replyHead []byte
	classJSON [][]byte
	stages    stageStats
}

// newServed builds a version's payload. json.Marshal of a string cannot
// fail, so its error is dropped.
func newServed(b *batcher, name string, sc *dataset.Schema) *served {
	sv := &served{b: b, catIndex: buildCatIndex(sc)}
	nameJSON, _ := json.Marshal(name)
	sv.replyHead = fmt.Appendf(nil, `{"model":%s,"version":`, nameJSON)
	for _, c := range sc.Classes {
		cj, _ := json.Marshal(c)
		sv.classJSON = append(sv.classJSON, cj)
	}
	return sv
}

// appendReply appends /predict's JSON reply to dst: one class index and
// one class name per input row, in input order, plus the version that
// answered — every row of one request is answered by exactly one model
// version. The bytes are those json.Encoder writes for the same fields
// (TestReplyMatchesEncoder), trailing newline included.
func (sv *served) appendReply(dst []byte, version int, indices []int) []byte {
	dst = append(dst, sv.replyHead...)
	dst = strconv.AppendInt(dst, int64(version), 10)
	dst = append(dst, `,"indices":[`...)
	for i, c := range indices {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	dst = append(dst, `],"classes":[`...)
	for i, c := range indices {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, sv.classJSON[c]...)
	}
	return append(dst, "]}\n"...)
}

// Server is the inference service. Create with New, expose via Handler,
// and Close when done (drains every model version's batcher).
type Server struct {
	cfg   Config
	cache *cache.Cache
	stats *Stats
	mux   *http.ServeMux
}

// New creates a server with no models; add them with SetModel or over HTTP.
func New(cfg Config) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		cache: cache.New(cache.DefaultShards),
		stats: &Stats{},
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /models", s.handleListModels)
	s.mux.HandleFunc("POST /models/{name}", s.handleStoreModel)
	s.mux.HandleFunc("DELETE /models/{name}", s.handleDeleteModel)
	s.mux.HandleFunc("POST /predict/{model}", s.handlePredict)
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats returns the server's live counters (for tests and embedding).
func (s *Server) Stats() *Stats { return s.stats }

// SetModel stores a single tree as the newest version of name, returning
// the version: SetForest of a forest of one.
func (s *Server) SetModel(name string, t *tree.Tree) (int, error) {
	if t == nil {
		return 0, fmt.Errorf("serve: nil tree")
	}
	return s.SetForest(name, &tree.Forest{Schema: t.Schema, Trees: []*tree.Tree{t}})
}

// SetForest compiles the forest and stores it as the newest version of
// name, returning the version. The entry owns a fresh micro-batcher whose
// flushers stop when the version drains.
func (s *Server) SetForest(name string, f *tree.Forest) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("serve: empty model name")
	}
	m, err := infer.CompileForest(f) // rejects a nil, empty or malformed forest
	if err != nil {
		return 0, err
	}
	e := s.cache.NewEntry(name, f, m)
	b := newBatcher(m, s.cfg.Workers, s.cfg.MaxBatch, s.cfg.BatchWait, s.stats)
	e.Payload = newServed(b, name, f.Schema)
	e.OnDrain(b.close)
	v := s.cache.Store(e)
	s.stats.Swaps.Add(1)
	return v, nil
}

// Model returns the current version of a model's oracle forest (for
// tests); a single-tree model comes back as a forest of one.
func (s *Server) Model(name string) (*tree.Forest, int, bool) {
	e, ok := s.cache.Acquire(name)
	if !ok {
		return nil, 0, false
	}
	defer e.Release()
	return e.Forest, e.Version, true
}

// Close deletes every model, draining each version's batcher. In-flight
// requests that already acquired an entry finish normally.
func (s *Server) Close() {
	var names []string
	s.cache.Range(func(e *cache.Entry) { names = append(names, e.Name) })
	for _, n := range names {
		s.cache.Delete(n)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.stats.snapshot()
	s.cache.Range(func(e *cache.Entry) {
		st := e.Model.Footprint()
		ms := ModelSnapshot{
			Name:    e.Name,
			Version: e.Version,
			Hits:    e.Hits(),
			Nodes:   st.Nodes,
			Depth:   st.Depth,
			Bytes:   st.Bytes,
		}
		if sv, ok := e.Payload.(*served); ok {
			ms.QueueDepth = sv.b.depth()
			ms.Stages = sv.stages.snapshot()
		}
		snap.QueueDepth += ms.QueueDepth
		snap.Models = append(snap.Models, ms)
	})
	writeJSON(w, http.StatusOK, snap)
}

// modelInfo is one /models listing entry and the store/delete response.
type modelInfo struct {
	Model   string `json:"model"`
	Version int    `json:"version"`
	Nodes   int    `json:"nodes,omitempty"`
	Trees   int    `json:"trees,omitempty"`
	Classes int    `json:"classes,omitempty"`
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	out := []modelInfo{}
	s.cache.Range(func(e *cache.Entry) {
		out = append(out, modelInfo{
			Model:   e.Name,
			Version: e.Version,
			Nodes:   e.Model.Footprint().Nodes,
			Trees:   e.Forest.NumTrees(),
			Classes: e.Forest.Schema.NumClasses(),
		})
	})
	writeJSON(w, http.StatusOK, out)
}

// handleStoreModel hot-swaps a model version. application/json bodies are
// a serialized model — a single tree (tree.Encode) or a whole forest
// (tree.Forest.Encode) — parsed by tree.DecodeModel; text/csv bodies are a
// labeled training table in dataset.WriteCSV's format, parsed against the
// *existing* version's schema and retrained via classify (query parameter
// "procs" overrides the simulated processor count).
func (s *Server) handleStoreModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, status, err := s.readBody(r, nil)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	var f *tree.Forest
	if isCSV(r) {
		old, ok := s.cache.Acquire(name)
		if !ok {
			s.stats.NotFound.Add(1)
			http.Error(w, "retrain-from-CSV needs an existing model to supply the schema; upload a JSON tree first", http.StatusNotFound)
			return
		}
		schema := old.Forest.Schema
		old.Release()
		tab, err := dataset.ReadCSV(bytes.NewReader(body), schema)
		if err != nil {
			s.stats.DecodeErrors.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var cfg classify.Config
		if p := r.URL.Query().Get("procs"); p != "" {
			n, err := strconv.Atoi(p)
			if err != nil || n < 1 {
				http.Error(w, fmt.Sprintf("invalid procs %q", p), http.StatusBadRequest)
				return
			}
			cfg.Processors = n
		}
		model, err := classify.Train(tab, cfg)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f = &tree.Forest{Schema: model.Tree.Schema, Trees: []*tree.Tree{model.Tree}}
	} else {
		var err error
		if f, err = tree.DecodeModel(bytes.NewReader(body)); err != nil {
			s.stats.DecodeErrors.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	v, err := s.SetForest(name, f)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	nodes := 0
	for _, t := range f.Trees {
		nodes += t.NumNodes()
	}
	writeJSON(w, http.StatusOK, modelInfo{
		Model: name, Version: v, Nodes: nodes,
		Trees: f.NumTrees(), Classes: f.Schema.NumClasses(),
	})
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.cache.Delete(name) {
		s.stats.NotFound.Add(1)
		http.Error(w, fmt.Sprintf("no model %q", name), http.StatusNotFound)
		return
	}
	s.stats.Deletes.Add(1)
	writeJSON(w, http.StatusOK, modelInfo{Model: name})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	tStart := time.Now()
	s.stats.Requests.Add(1)
	name := r.PathValue("model")
	buf := s.getBuf()
	defer s.putBuf(buf)
	body, status, err := s.readBody(r, buf.body)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	buf.body = body

	// The cache reference spans decode through response: the rows are
	// decoded against this version's schema, batched into this version's
	// flushers, and the version cannot drain while we hold it.
	e, ok := s.cache.Acquire(name)
	if !ok {
		s.stats.NotFound.Add(1)
		http.Error(w, fmt.Sprintf("no model %q", name), http.StatusNotFound)
		return
	}
	defer e.Release()
	sv := e.Payload.(*served)

	tDecode := time.Now()
	if isCSV(r) {
		err = decodeCSVRows(body, e.Forest.Schema, sv.catIndex, s.cfg.MaxRowsPerRequest, buf)
	} else {
		err = decodeJSONRows(body, e.Forest.Schema, sv.catIndex, s.cfg.MaxRowsPerRequest, buf)
	}
	if err != nil {
		s.stats.DecodeErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.stats.RowsIn.Add(int64(len(buf.rows)))
	buf.out = slices.Grow(buf.out[:0], len(buf.rows))[:len(buf.rows)]

	tEnqueue := time.Now()
	if err := sv.b.predictInto(r.Context(), &buf.call); err != nil {
		if errors.Is(err, ErrOverloaded) {
			// Graceful degradation: a saturated batcher sheds rather than
			// queues without bound. Retry-After is one admission deadline
			// rounded up — by then the backlog has either drained or the
			// server is still saturated and sheds again cheaply.
			s.stats.Sheds.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.BatchWait/time.Second)+1))
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	buf.reply = sv.appendReply(buf.reply[:0], e.Version, buf.out)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.reply) // a failed write means the client is gone; there is no one to tell
	tEnd := time.Now()

	d := [numStages]time.Duration{
		stageDecode: tEnqueue.Sub(tDecode),
		stageQueue:  buf.flushStart.Sub(tEnqueue),
		stageKernel: buf.kernelDone.Sub(buf.flushStart),
		stageEncode: tEnd.Sub(buf.kernelDone),
	}
	s.stats.Stages.record(tEnd.Sub(tStart), d)
	sv.stages.record(tEnd.Sub(tStart), d)
}

// readBody reads a size-capped request body into dst's storage (nil for a
// fresh one) and returns it; over-limit bodies get 413.
func (s *Server) readBody(r *http.Request, dst []byte) ([]byte, int, error) {
	body := bytes.NewBuffer(dst[:0])
	if _, err := body.ReadFrom(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		if _, ok := err.(*http.MaxBytesError); ok {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", s.cfg.MaxBodyBytes)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	return body.Bytes(), 0, nil
}

// isCSV reports whether the request declares a text/csv body, in any
// spelling of the media type and with any parameters; everything else,
// a missing or unparsable header included, is treated as JSON.
func isCSV(r *http.Request) bool {
	mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return mt == "text/csv"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
