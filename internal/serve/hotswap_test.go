package serve

import (
	"bytes"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/serial"
	"repro/internal/splitter"
)

// TestHotSwapDifferential swaps a model version in the middle of sustained
// load and checks the swap is atomic from the client's view: every response
// is entirely the old version's predictions or entirely the new version's —
// never a mix within one request — and the old version's batcher drains
// (all queued rows answered, flushers stopped) once its last holder lets
// go. The two versions are trained on different Quest functions so their
// trees genuinely disagree; a torn swap cannot hide behind identical
// predictions.
func TestHotSwapDifferential(t *testing.T) {
	const (
		nClients = 6
		reqPerCl = 40
		swapAt   = reqPerCl / 2 // client 0 swaps after this many requests
		reqRows  = 5
	)
	s, ts := newTestServer(t, Config{BatchWait: 2 * time.Millisecond, Workers: 2})

	// v1 and v2 approximate different Quest functions over the same schema.
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 7}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	tab2, err := datagen.Generate(datagen.Config{Function: 5, Attrs: datagen.Seven, Seed: 7}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := serial.Train(tab, splitter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := serial.Train(tab2, splitter.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Precompute both versions' oracle answers for the whole fixture, and
	// make sure they disagree somewhere — otherwise the test is vacuous.
	want1 := make([]int, tab.NumRows())
	want2 := make([]int, tab.NumRows())
	differ := false
	for r := 0; r < tab.NumRows(); r++ {
		want1[r] = tr1.Predict(tab.Row(r))
		want2[r] = tr2.Predict(tab.Row(r))
		differ = differ || want1[r] != want2[r]
	}
	if !differ {
		t.Fatal("fixture trees agree on every row; pick different functions")
	}

	if _, err := s.SetModel("m", tr1); err != nil {
		t.Fatal(err)
	}

	// Hold a reference to the v1 entry across the swap, as a stand-in for
	// the slowest in-flight request: v1 must retire at the swap but cannot
	// drain until this reference releases.
	held, ok := s.cache.Acquire("m")
	if !ok || held.Version != 1 {
		t.Fatalf("acquire v1: ok=%v version=%d", ok, held.Version)
	}

	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: nClients}
	var wg sync.WaitGroup
	var sawV1, sawV2 int64
	var mu sync.Mutex
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(77 + c)))
			for q := 0; q < reqPerCl; q++ {
				if c == 0 && q == swapAt {
					if v, err := s.SetModel("m", tr2); err != nil || v != 2 {
						t.Errorf("swap: v=%d err=%v", v, err)
						return
					}
				}
				idx := make([]int, reqRows)
				rows := make([][]float64, reqRows)
				for i := range rows {
					idx[i] = rng.Intn(tab.NumRows())
					rows[i] = tab.Row(idx[i])
				}
				pr, code := postPredict(t, client, ts.URL, "m", jsonBody(t, rows), false)
				if code != 200 {
					t.Errorf("client %d req %d: status %d", c, q, code)
					return
				}
				// The response's version decides which oracle every row
				// must match — old-or-new per request, never mixed.
				want := want1
				switch pr.Version {
				case 1:
				case 2:
					want = want2
				default:
					t.Errorf("client %d req %d: version %d", c, q, pr.Version)
					return
				}
				for i := range rows {
					if pr.Indices[i] != want[idx[i]] {
						t.Errorf("client %d req %d row %d: version %d served %d, that version's oracle says %d",
							c, q, i, pr.Version, pr.Indices[i], want[idx[i]])
						return
					}
				}
				mu.Lock()
				if pr.Version == 1 {
					sawV1++
				} else {
					sawV2++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if sawV2 == 0 {
		t.Fatal("no request was served by v2 — swap never took effect under load")
	}
	t.Logf("served %d requests on v1, %d on v2", sawV1, sawV2)

	// v1 is retired but must not have drained: we still hold it.
	if s.cache.Retired() != 1 {
		t.Fatalf("retired = %d, want 1", s.cache.Retired())
	}
	select {
	case <-held.Drained():
		t.Fatal("v1 drained while a reference was still held")
	default:
	}
	// Old version still answers through its own batcher while held.
	oldSv := held.Payload.(*served)
	oneOut := make([]int, 1)
	if err := predictRows(t.Context(), oldSv.b, rows2(tab.Row(0)), oneOut); err != nil {
		t.Fatalf("held v1 batcher refused a row: %v", err)
	}
	if oneOut[0] != want1[0] {
		t.Fatalf("held v1 batcher served %d, v1 oracle says %d", oneOut[0], want1[0])
	}

	// Release the last reference: the drain hook must fire, stopping the
	// flushers with an empty queue.
	held.Release()
	select {
	case <-held.Drained():
	case <-time.After(10 * time.Second):
		t.Fatal("v1 did not drain after its last reference released")
	}
	if d := oldSv.b.depth(); d != 0 {
		t.Fatalf("drained batcher still has %d queued requests", d)
	}

	// Global conservation: every row that entered a batcher came back out.
	// (+1 for the direct probe above, which bypassed the HTTP RowsIn count.)
	snap := s.stats.snapshot()
	if snap.BatchRows != snap.RowsIn+1 {
		t.Fatalf("batched rows %d != rows in %d + 1 probe", snap.BatchRows, snap.RowsIn)
	}
	if snap.BufGets != snap.BufPuts {
		t.Fatalf("buffer pool unbalanced: %d gets, %d puts", snap.BufGets, snap.BufPuts)
	}
	if _, v, ok := s.Model("m"); !ok || v != 2 {
		t.Fatalf("current model version = %d, %v; want 2", v, ok)
	}
}

func rows2(r []float64) [][]float64 { return [][]float64{r} }

// TestRetrainOverHTTP uploads a tree as JSON, retrains it from a labeled
// CSV body over the wire, and checks the new version answers with the
// retrained tree's exact predictions.
func TestRetrainOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	tr, tab := trainTree(t, 11, 1500, 0)

	// Upload v1 as a serialized tree.
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/models/q", "application/json", bytes.NewReader(buf.Bytes()))
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("upload: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// Retrain v2 from the labeled training CSV (dataset.WriteCSV format).
	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, tab); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/models/q?procs=2", "text/csv", bytes.NewReader(csv.Bytes()))
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("retrain: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	got, v, ok := s.Model("q")
	if !ok || v != 2 {
		t.Fatalf("after retrain: version %d, %v", v, ok)
	}
	rows := make([][]float64, 20)
	want := make([]int, 20)
	for i := range rows {
		rows[i] = tab.Row(i * 7)
		want[i] = got.Predict(rows[i])
	}
	pr, code := postPredict(t, http.DefaultClient, ts.URL, "q", jsonBody(t, rows), false)
	if code != 200 || pr.Version != 2 {
		t.Fatalf("predict on v2: code %d resp %+v", code, pr)
	}
	for i := range want {
		if pr.Indices[i] != want[i] {
			t.Fatalf("row %d: served %d, retrained oracle %d", i, pr.Indices[i], want[i])
		}
	}

	// Retraining a model that does not exist has no schema to parse with.
	resp, err = http.Post(ts.URL+"/models/ghost", "text/csv", bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("retrain unknown model: status %d, want 404", resp.StatusCode)
	}
}
