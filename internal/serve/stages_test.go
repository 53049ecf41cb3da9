package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestStageConservation: /stats accounts for every nanosecond of every
// answered request. Globally and per model, the five stages' totals add up
// to the handler spans' total exactly (what no named stage covers is in
// "other", never dropped), every stage's histogram holds one sample per
// answered request, the models' figures add up to the global ones, and
// requests answered with an error are not in them.
func TestStageConservation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	tr, tab := trainTree(t, 1, 1500, 0)
	for _, name := range []string{"a", "b"} {
		if _, err := s.SetModel(name, tr); err != nil {
			t.Fatal(err)
		}
	}
	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: 4}

	const nClients, reqPerCl = 4, 30
	answered := map[string]int64{"a": 0, "b": 0}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < reqPerCl; q++ {
				model := []string{"a", "b"}[(c+q)%2]
				n := []int{1, 7, 600}[q%3] // 600 rows: more than one flush
				rows := make([][]float64, n)
				for i := range rows {
					rows[i] = tab.Row((c*reqPerCl + q + i) % tab.NumRows())
				}
				if _, code := postPredict(t, client, ts.URL, model, jsonBody(t, rows), false); code != http.StatusOK {
					t.Errorf("client %d request %d: status %d", c, q, code)
					return
				}
				mu.Lock()
				answered[model]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	// Errors of each kind, which must leave the stage figures alone.
	if _, code := postPredict(t, client, ts.URL, "a", []byte(`{"rows": [[1]]}`), false); code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", code)
	}
	if _, code := postPredict(t, client, ts.URL, "ghost", jsonBody(t, rows2(tab.Row(0))), false); code != http.StatusNotFound {
		t.Fatalf("unknown model: status %d", code)
	}

	resp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	check := func(who string, st StagesSnapshot, wantRequests int64) {
		t.Helper()
		if st.Requests != wantRequests {
			t.Errorf("%s: %d requests in the stage figures, %d were answered", who, st.Requests, wantRequests)
		}
		if len(st.Stages) != numStages {
			t.Fatalf("%s: %d stages, want %d", who, len(st.Stages), numStages)
		}
		var sum int64
		for i, stage := range st.Stages {
			if stage.Stage != stageNames[i] {
				t.Errorf("%s: stage %d is %q, want %q", who, i, stage.Stage, stageNames[i])
			}
			if stage.SumNs < 0 {
				t.Errorf("%s: stage %q has negative total %d ns", who, stage.Stage, stage.SumNs)
			}
			sum += stage.SumNs
			var samples int64
			for _, n := range stage.Log2NsHist {
				samples += n
			}
			if samples != st.Requests {
				t.Errorf("%s: stage %q histogram holds %d samples for %d requests", who, stage.Stage, samples, st.Requests)
			}
		}
		if sum != st.SpanNs || st.SpanNs <= 0 {
			t.Errorf("%s: stages add up to %d ns, handler spans to %d ns", who, sum, st.SpanNs)
		}
	}
	check("all models", snap.Stages, answered["a"]+answered["b"])
	var modelSpans int64
	for _, m := range snap.Models {
		check(fmt.Sprintf("model %q", m.Name), m.Stages, answered[m.Name])
		modelSpans += m.Stages.SpanNs
	}
	if modelSpans != snap.Stages.SpanNs {
		t.Errorf("models' handler spans add up to %d ns, the global figure is %d ns", modelSpans, snap.Stages.SpanNs)
	}
	// Every stage did measurable work somewhere in 120 requests.
	for _, stage := range snap.Stages.Stages {
		if stage.SumNs == 0 {
			t.Errorf("stage %q measured nothing", stage.Stage)
		}
	}
}

// sinkTime keeps BenchmarkStageStamps' clock reads alive.
var sinkTime time.Time

// BenchmarkStageStamps pins what the always-on request timing costs: the
// six clock reads and the two histogram updates of one answered request,
// beside a loop that does neither. The difference (well under a
// microsecond) is what a request pays, which is why there is no switch to
// turn it off.
func BenchmarkStageStamps(b *testing.B) {
	var global, model stageStats
	b.Run("stamped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			t1 := time.Now()
			t2 := time.Now()
			t3 := time.Now()
			t4 := time.Now()
			t5 := time.Now()
			d := [numStages]time.Duration{
				stageDecode: t2.Sub(t1),
				stageQueue:  t3.Sub(t2),
				stageKernel: t4.Sub(t3),
				stageEncode: t5.Sub(t4),
			}
			global.record(t5.Sub(t0), d)
			model.record(t5.Sub(t0), d)
			sinkTime = t5
		}
	})
	b.Run("bare", func(b *testing.B) {
		var t time.Time
		for i := 0; i < b.N; i++ {
			sinkTime = t
		}
	})
}
