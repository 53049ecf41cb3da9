package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/datagen"
	"repro/internal/scalparc"
	"repro/internal/serial"
	"repro/internal/splitter"
)

// writeTreeFile trains a small tree and serializes it for -model loading.
func writeTreeFile(t *testing.T, dir, name string, seed int64) string {
	t.Helper()
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: seed}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := serial.Train(tab, splitter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// boot runs the command on a free port and returns its address, its stdout
// and a function that shuts it down gracefully via context cancel (the
// signal path in main uses the same cancellation) and returns run's error.
func boot(t *testing.T, args ...string) (addr string, out *bytes.Buffer, shutdown func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	out = new(bytes.Buffer)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-deadline", "1ms"}, args...),
			out, func(addr string) { addrc <- addr })
	}()
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("server exited before ready: %v\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	return addr, out, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("graceful shutdown hung")
			return nil
		}
	}
}

type predictResponse struct {
	Model   string   `json:"model"`
	Indices []int    `json:"indices"`
	Classes []string `json:"classes"`
}

func predict(t *testing.T, addr, model string, body []byte) predictResponse {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/predict/"+model, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || pr.Model != model {
		t.Fatalf("predict %s: status %d resp %+v", model, resp.StatusCode, pr)
	}
	return pr
}

// TestServeEndToEnd boots the command with two preloaded models, predicts
// over HTTP, and shuts down gracefully.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	p1 := writeTreeFile(t, dir, "a.json", 1)
	p2 := writeTreeFile(t, dir, "b.json", 2)
	addr, out, shutdown := boot(t, "-model", "alpha="+p1, "-model", "beta="+p2)

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	body := []byte(`{"row": [50000,10000,30,"e2",200000,10,5000]}`)
	for _, model := range []string{"alpha", "beta"} {
		if pr := predict(t, addr, model, body); len(pr.Indices) != 1 || len(pr.Classes) != 1 {
			t.Fatalf("predict %s: resp %+v", model, pr)
		}
	}

	if err := shutdown(); err != nil {
		t.Fatalf("run returned %v", err)
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("missing shutdown log in output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `loaded model "alpha" v1`) {
		t.Fatalf("missing model load log:\n%s", out.String())
	}
}

// TestServeLoadsForestFile starts the command on the file `scalparc -forest
// -json-out` writes (Forest.Encode) and requires the majority-vote answers
// of Forest.Predict, on rows where the trees disagree among them.
func TestServeLoadsForestFile(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 7, Attrs: datagen.Seven, Seed: 3, LabelNoise: 0.2}, 1200)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scalparc.TrainForest(tab, splitter.Config{}, scalparc.ForestOptions{Trees: 5, Seed: 11, FeatureSample: 3, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "forest.json")
	if err := atomicfile.Write(path, res.Forest.Encode); err != nil {
		t.Fatal(err)
	}
	addr, out, shutdown := boot(t, "-model", "ensemble="+path)
	if !strings.Contains(out.String(), `loaded model "ensemble" v1`) || !strings.Contains(out.String(), "(5 tree(s),") {
		t.Fatalf("missing forest load log:\n%s", out.String())
	}

	const n = 200
	rows := make([][]float64, n)
	split := 0
	for r := range rows {
		rows[r] = tab.Row(r)
		for _, tr := range res.Forest.Trees[1:] {
			if tr.Predict(rows[r]) != res.Forest.Trees[0].Predict(rows[r]) {
				split++
				break
			}
		}
	}
	if split == 0 {
		t.Fatal("fixture too easy: the five trees agree on every row, so a vote is indistinguishable from one tree")
	}
	body, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	pr := predict(t, addr, "ensemble", body)
	if len(pr.Indices) != n {
		t.Fatalf("%d answers for %d rows", len(pr.Indices), n)
	}
	for r, got := range pr.Indices {
		if want := res.Forest.Predict(rows[r]); got != want {
			t.Fatalf("row %d: served %d, Forest.Predict %d", r, got, want)
		}
	}
	if err := shutdown(); err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// TestBadFlags exercises startup failure paths.
func TestBadFlags(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-model", "nopath"},
		{"-model", "x=/does/not/exist.json"},
		{"stray"},
		{"-addr", "definitely:not:an:addr"},
	} {
		if err := run(ctx, args, &out, nil); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}
