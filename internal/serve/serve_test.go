package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/tree"
)

// trainTree builds a deterministic oracle tree on n Quest records.
func trainTree(t testing.TB, seed int64, n int, noise float64) (*tree.Tree, *dataset.Table) {
	t.Helper()
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: seed, LabelNoise: noise}, n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := serial.Train(tab, splitter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, tab
}

// newTestServer starts a server (with cfg defaults unless overridden) on a
// httptest listener and registers cleanup.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// jsonBody renders rows (Table value convention) as a /predict JSON body.
func jsonBody(t testing.TB, rows [][]float64) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// csvBody renders rows as the compact CSV body (header + unlabeled rows).
func csvBody(t testing.TB, sc *dataset.Schema, rows [][]float64) []byte {
	t.Helper()
	var sb strings.Builder
	for a, attr := range sc.Attrs {
		if a > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(attr.Name)
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		for a, attr := range sc.Attrs {
			if a > 0 {
				sb.WriteByte(',')
			}
			if attr.Kind == dataset.Continuous {
				fmt.Fprintf(&sb, "%g", row[a])
			} else {
				sb.WriteString(attr.Values[int(row[a])])
			}
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

func postPredict(t testing.TB, client *http.Client, url, model string, body []byte, csv bool) (*predictResponse, int) {
	t.Helper()
	ct := "application/json"
	if csv {
		ct = "text/csv"
	}
	resp, err := client.Post(url+"/predict/"+model, ct, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &pr, resp.StatusCode
}

// TestEndpoints walks the API surface once: health, store, list, predict
// (JSON and CSV), stats, delete.
func TestEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	tr, tab := trainTree(t, 1, 2000, 0)
	if v, err := s.SetModel("quest", tr); err != nil || v != 1 {
		t.Fatalf("SetModel = %d, %v", v, err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var models []modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(models) != 1 || models[0].Model != "quest" || models[0].Version != 1 {
		t.Fatalf("models = %+v", models)
	}

	rows := [][]float64{tab.Row(0), tab.Row(1), tab.Row(2)}
	want := make([]int, len(rows))
	for i, r := range rows {
		want[i] = tr.Predict(r)
	}
	for _, csv := range []bool{false, true} {
		body := jsonBody(t, rows)
		if csv {
			body = csvBody(t, tr.Schema, rows)
		}
		pr, code := postPredict(t, http.DefaultClient, ts.URL, "quest", body, csv)
		if code != 200 {
			t.Fatalf("csv=%v: status %d", csv, code)
		}
		if pr.Version != 1 || len(pr.Indices) != len(rows) {
			t.Fatalf("csv=%v: response %+v", csv, pr)
		}
		for i := range want {
			if pr.Indices[i] != want[i] {
				t.Fatalf("csv=%v row %d: served %d, oracle %d", csv, i, pr.Indices[i], want[i])
			}
			if pr.Classes[i] != tr.Schema.Classes[want[i]] {
				t.Fatalf("csv=%v row %d: class %q, want %q", csv, i, pr.Classes[i], tr.Schema.Classes[want[i]])
			}
		}
	}

	// Single-row shorthand.
	one, _ := json.Marshal(map[string]any{"row": rows[0]})
	pr, code := postPredict(t, http.DefaultClient, ts.URL, "quest", one, false)
	if code != 200 || len(pr.Indices) != 1 || pr.Indices[0] != want[0] {
		t.Fatalf("single-row: code %d resp %+v want %d", code, pr, want[0])
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Requests != 3 || snap.RowsIn != 7 || snap.Batches == 0 {
		t.Fatalf("stats = %+v", snap)
	}
	if len(snap.Models) != 1 || snap.Models[0].Hits != 3 {
		t.Fatalf("model stats = %+v", snap.Models)
	}
	if snap.BufGets != snap.BufPuts {
		t.Fatalf("request buffer pool unbalanced: %d gets, %d puts", snap.BufGets, snap.BufPuts)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/models/quest", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("delete: %v %v", resp, err)
	}
	resp.Body.Close()
	if _, code := postPredict(t, http.DefaultClient, ts.URL, "quest", jsonBody(t, rows[:1]), false); code != 404 {
		t.Fatalf("predict after delete: status %d, want 404", code)
	}
}

// TestDecodeFailuresReturn400AndReleaseBuffers is the regression test for
// the pooled request buffers: a storm of malformed bodies must all yield
// 400 (or 413) and leave the buffer pool exactly balanced — a leaked
// early-error path shows up as BufGets > BufPuts.
func TestDecodeFailuresReturn400AndReleaseBuffers(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRowsPerRequest: 8, MaxBodyBytes: 1 << 16})
	tr, _ := trainTree(t, 1, 500, 0)
	if _, err := s.SetModel("m", tr); err != nil {
		t.Fatal(err)
	}
	// The Seven-attribute Quest schema: six continuous attributes plus the
	// categorical elevel (cardinality 5) at index 3.
	bad := []struct {
		body []byte
		csv  bool
	}{
		{[]byte(`{`), false},
		{[]byte(`{}`), false},
		{[]byte(`{"rows": []}`), false},
		{[]byte(`{"rows": [[1]]}`), false},                                     // wrong width
		{[]byte(`{"rows": [[1,2,"nope",4,5,6,7]]}`), false},                    // bad type for a continuous attr
		{[]byte(`{"row": [1,2,3,99,5,6,7]}`), false},                           // out-of-domain categorical index
		{[]byte(`{"row": [1,2,3,0.5,5,6,7]}`), false},                          // fractional categorical index
		{[]byte(`{"row": [1,2,3,"e9",5,6,7]}`), false},                         // unknown categorical name
		{[]byte(`{"rows": [[1,2,3,4,5,6,7]], "row": [1,2,3,4,5,6,7]}`), false}, // both keys
		{[]byte("wrong,header\n1,2\n"), true},
		{[]byte(""), true},
		{csvBody(t, tr.Schema, nil), true},                                // header only, no rows
		{bytes.Repeat([]byte(`{"rows":[[1,2,3,4,5,6,0],`), 1<<13), false}, // oversized body
	}
	for i, tc := range bad {
		_, code := postPredict(t, http.DefaultClient, ts.URL, "m", tc.body, tc.csv)
		if code != 400 && code != 413 {
			t.Fatalf("case %d: status %d, want 400/413", i, code)
		}
	}
	// Over the row cap (decoder-level, not body-size-level).
	rows := make([][]float64, 9)
	for i := range rows {
		rows[i] = []float64{1, 2, 3, 4, 5, 6, 7}
	}
	if _, code := postPredict(t, http.DefaultClient, ts.URL, "m", jsonBody(t, rows), false); code != 400 {
		t.Fatalf("over row cap: want 400")
	}
	if g, p := s.stats.BufGets.Load(), s.stats.BufPuts.Load(); g != p || g == 0 {
		t.Fatalf("buffer pool unbalanced after decode failures: %d gets, %d puts", g, p)
	}
	if s.stats.DecodeErrors.Load() == 0 {
		t.Fatal("no decode errors counted")
	}
}

// TestServeSoak is the race/soak headline test: N goroutine clients firing
// mixed JSON/CSV traffic at M models, every response checked bit-for-bit
// against the walker oracle, and no request outliving the batch deadline
// plus a generous epsilon (the race detector inflates wall time; the tight
// single-request bound lives in TestBatcherDeadlineBound).
func TestServeSoak(t *testing.T) {
	const (
		nClients    = 8
		nModels     = 3
		reqPerCl    = 60
		deadline    = 2 * time.Millisecond
		epsilon     = 5 * time.Second
		maxReqRows  = 8
		fixtureRows = 3000
	)
	s, ts := newTestServer(t, Config{BatchWait: deadline, Workers: 2})
	trees := make([]*tree.Tree, nModels)
	var tab *dataset.Table
	for i := range trees {
		trees[i], tab = trainTree(t, int64(i+1), fixtureRows, 0.05)
		if _, err := s.SetModel(fmt.Sprintf("m%d", i), trees[i]); err != nil {
			t.Fatal(err)
		}
	}
	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: nClients}

	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for q := 0; q < reqPerCl; q++ {
				mi := rng.Intn(nModels)
				n := 1 + rng.Intn(maxReqRows)
				rows := make([][]float64, n)
				want := make([]int, n)
				for i := range rows {
					rows[i] = tab.Row(rng.Intn(tab.NumRows()))
					want[i] = trees[mi].Predict(rows[i])
				}
				csv := rng.Intn(2) == 0
				body := jsonBody(t, rows)
				if csv {
					body = csvBody(t, trees[mi].Schema, rows)
				}
				start := time.Now()
				pr, code := postPredict(t, client, ts.URL, fmt.Sprintf("m%d", mi), body, csv)
				if code != 200 {
					t.Errorf("client %d req %d: status %d", c, q, code)
					return
				}
				if wait := time.Since(start); wait > deadline+epsilon {
					t.Errorf("client %d req %d waited %v > deadline %v + epsilon", c, q, wait, deadline)
				}
				for i := range want {
					if pr.Indices[i] != want[i] {
						t.Errorf("client %d req %d row %d (model m%d): served %d, oracle %d",
							c, q, i, mi, pr.Indices[i], want[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	snap := s.stats.snapshot()
	if snap.Requests != nClients*reqPerCl {
		t.Fatalf("requests = %d, want %d", snap.Requests, nClients*reqPerCl)
	}
	if snap.BatchRows != snap.RowsIn {
		t.Fatalf("batched rows %d != rows in %d (dropped or duplicated rows)", snap.BatchRows, snap.RowsIn)
	}
	if snap.MaxBatchRows > 512 {
		t.Fatalf("a batch exceeded the cap: %d rows", snap.MaxBatchRows)
	}
	if snap.MinBatchRows < 1 {
		t.Fatalf("empty flush recorded (min batch %d)", snap.MinBatchRows)
	}
	if snap.BufGets != snap.BufPuts {
		t.Fatalf("buffer pool unbalanced: %d gets, %d puts", snap.BufGets, snap.BufPuts)
	}
}
