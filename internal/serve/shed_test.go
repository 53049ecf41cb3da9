package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/infer"
)

// wedgeBatcher stops b's flushers and fills its queue, so every later
// enqueue blocks past the admission deadline — a deterministic stand-in
// for a saturated worker pool. The junk requests never complete (nothing
// flushes them).
func wedgeBatcher(t *testing.T, b *batcher, row []float64) {
	t.Helper()
	b.close()
	for i := 0; i < cap(b.q); i++ {
		select {
		case b.q <- newCall(rows2(row), make([]int, 1)):
		default:
			t.Fatal("queue refused a fill request")
		}
	}
}

// TestBatcherShedsPastDeadline pins all-or-nothing admission on the shed
// side: a request that cannot be queued within BatchWait returns
// ErrOverloaded — after the deadline (it really waited), without hanging
// on the wedged pool, whatever its size, and leaving nothing of itself in
// the queue.
func TestBatcherShedsPastDeadline(t *testing.T) {
	tr, tab := trainTree(t, 1, 500, 0)
	m, err := infer.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 25 * time.Millisecond
	b := newBatcher(m, 0, 1, deadline, &Stats{}) // 0 flushers: a wedged pool
	wedgeBatcher(t, b, tab.Row(0))

	start := time.Now()
	err = predictRows(context.Background(), b, rows2(tab.Row(0)), make([]int, 1))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("predictInto on a wedged batcher returned %v, want ErrOverloaded", err)
	}
	if elapsed < deadline {
		t.Fatalf("shed after %v, before the %v deadline", elapsed, deadline)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("shed took %v — not a bounded wait", elapsed)
	}
	// A second, many-row request sheds just as cleanly: the first left no
	// debris, and none of its own rows is queued for a pool that will never
	// flush them.
	many := make([][]float64, 64)
	for i := range many {
		many[i] = tab.Row(i)
	}
	if err := predictRows(context.Background(), b, many, make([]int, len(many))); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second shed returned %v", err)
	}
	if b.depth() != cap(b.q) {
		t.Fatalf("queue depth %d after two sheds, want the %d fill requests", b.depth(), cap(b.q))
	}
}

// postRaw posts a /predict body and returns the status, the Retry-After
// header, and (on 200) the decoded response.
func postRaw(t testing.TB, client *http.Client, url, model string, body []byte) (int, string, *predictResponse) {
	t.Helper()
	resp, err := client.Post(url+"/predict/"+model, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	retry := resp.Header.Get("Retry-After")
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, retry, nil
	}
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, retry, &pr
}

// TestServeShedSoak is the graceful-degradation soak: one model's worker
// pool is wedged while another stays healthy. Under concurrent mixed
// traffic every response must be a bit-correct 200 or a 503 with a
// Retry-After — never a hang, never a wrong answer — the shed counter
// must equal the 503 count exactly, and the healthy model must be
// completely unaffected by its neighbor's saturation.
func TestServeShedSoak(t *testing.T) {
	const (
		nClients = 8
		reqPerCl = 12
		deadline = 10 * time.Millisecond
	)
	// No s.Close/newTestServer cleanup: the wedged batcher is already
	// closed, and the drain hook may not close it twice.
	s := New(Config{MaxBatch: 1, BatchWait: deadline, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	tr, tab := trainTree(t, 1, 1500, 0)
	if _, err := s.SetModel("healthy", tr); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetModel("stuck", tr); err != nil {
		t.Fatal(err)
	}
	e, ok := s.cache.Acquire("stuck")
	if !ok {
		t.Fatal("stuck model missing")
	}
	wedgeBatcher(t, e.Payload.(*served).b, tab.Row(0))
	e.Release()

	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: nClients}
	var got503, got200 atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < reqPerCl; q++ {
				row := tab.Row((c*reqPerCl + q) % tab.NumRows())
				body := jsonBody(t, [][]float64{row})
				if c%2 == 0 {
					code, retry, pr := postRaw(t, client, ts.URL, "healthy", body)
					if code != 200 {
						t.Errorf("healthy model returned %d under neighbor overload", code)
						return
					}
					_ = retry
					if want := tr.Predict(row); pr.Indices[0] != want {
						t.Errorf("healthy model served %d, oracle %d", pr.Indices[0], want)
						return
					}
					got200.Add(1)
					continue
				}
				start := time.Now()
				code, retry, _ := postRaw(t, client, ts.URL, "stuck", body)
				if code != http.StatusServiceUnavailable {
					t.Errorf("stuck model returned %d, want 503", code)
					return
				}
				if retry == "" {
					t.Error("503 without a Retry-After header")
					return
				}
				if wait := time.Since(start); wait > deadline+5*time.Second {
					t.Errorf("shed response took %v — not bounded by the flush deadline", wait)
					return
				}
				got503.Add(1)
			}
		}(c)
	}
	wg.Wait()

	if n := got503.Load(); n == 0 || s.stats.Sheds.Load() != n {
		t.Fatalf("sheds counter %d, 503 responses %d — must match and be non-zero", s.stats.Sheds.Load(), n)
	}
	if got200.Load() != nClients/2*reqPerCl {
		t.Fatalf("healthy model answered %d of %d requests", got200.Load(), nClients/2*reqPerCl)
	}

	// The counter also reaches /stats.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Sheds != got503.Load() {
		t.Fatalf("/stats sheds = %d, want %d", snap.Sheds, got503.Load())
	}
	if snap.Requests != nClients*reqPerCl {
		t.Fatalf("/stats requests = %d, want %d", snap.Requests, nClients*reqPerCl)
	}
}
