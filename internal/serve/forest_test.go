package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/scalparc"
	"repro/internal/splitter"
	"repro/internal/tree"
)

// trainForest builds a deterministic bagged ensemble on n Quest records.
func trainForest(t testing.TB, trees, n int) (*tree.Forest, *dataset.Table) {
	t.Helper()
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 5}, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scalparc.TrainForest(tab, splitter.Config{MinSplit: 8}, scalparc.ForestOptions{
		Trees: trees, Seed: 17, FeatureSample: 3, Procs: 2,
		Engine: scalparc.Options{Split: scalparc.SplitBinned, Bins: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Forest, tab
}

// TestServeForestEndToEnd uploads a forest in its wire format over HTTP,
// predicts through the micro-batcher, and pins every served answer to the
// walker-vote oracle. It also checks the /models listing reports the tree
// count and that a single-tree upload still round-trips through the same
// store path.
func TestServeForestEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	f, tab := trainForest(t, 7, 1500)

	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/models/ensemble", "application/json", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var info modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.Trees != 7 || info.Version != 1 {
		t.Fatalf("store: code %d info %+v, want 7 trees at version 1", resp.StatusCode, info)
	}

	got, v, ok := s.Model("ensemble")
	if !ok || v != 1 || got.NumTrees() != 7 {
		t.Fatalf("Model() = %d trees version %d %v", got.NumTrees(), v, ok)
	}

	rows := make([][]float64, 64)
	want := make([]int, len(rows))
	for i := range rows {
		rows[i] = tab.Row(i * 11)
		want[i] = f.Predict(rows[i])
	}
	pr, code := postPredict(t, http.DefaultClient, ts.URL, "ensemble", jsonBody(t, rows), false)
	if code != http.StatusOK {
		t.Fatalf("predict: code %d", code)
	}
	for i := range want {
		if pr.Indices[i] != want[i] {
			t.Fatalf("row %d: served %d, walker-vote oracle %d", i, pr.Indices[i], want[i])
		}
		if pr.Classes[i] != f.Schema.Classes[want[i]] {
			t.Fatalf("row %d: served class %q, want %q", i, pr.Classes[i], f.Schema.Classes[want[i]])
		}
	}

	// A hot-swap to a single tree through the same endpoint must work
	// transparently.
	tr, _ := trainTree(t, 5, 800, 0)
	buf.Reset()
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/models/ensemble", "application/json", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Version != 2 || info.Trees != 1 {
		t.Fatalf("swap to single tree: info %+v, want version 2 with 1 tree", info)
	}
	pr, code = postPredict(t, http.DefaultClient, ts.URL, "ensemble", jsonBody(t, rows), false)
	if code != http.StatusOK || pr.Version != 2 {
		t.Fatalf("predict on v2: code %d version %d", code, pr.Version)
	}
	for i := range rows {
		if pr.Indices[i] != tr.Predict(rows[i]) {
			t.Fatalf("row %d after swap: served %d, tree oracle %d", i, pr.Indices[i], tr.Predict(rows[i]))
		}
	}
}
