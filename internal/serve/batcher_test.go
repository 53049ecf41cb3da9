package serve

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/tree"
)

// TestBatcherProperties drives the micro-batcher directly (no HTTP) with
// randomized arrival patterns and checks the structural invariants the
// server relies on, for every pattern testing/quick generates:
//
//   - no flush ever exceeds maxBatch rows
//   - no flush is empty
//   - row conservation: every enqueued row is flushed exactly once
//   - per-request FIFO: out[i] always answers rows[i] (positional scatter),
//     checked against the walker oracle bit-for-bit
func TestBatcherProperties(t *testing.T) {
	tr, tab := trainedServeFixture(t, 2000)
	m, err := infer.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	oracle := make([]int, tab.NumRows())
	for r := range oracle {
		oracle[r] = tr.Predict(tab.Row(r))
	}

	property := func(seed int64, maxBatchRaw uint8, nCallsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		maxBatch := 1 + int(maxBatchRaw)%16 // small caps make full flushes reachable
		nCalls := 2 + int(nCallsRaw)%10
		stats := &Stats{}
		// An hour of admission wait: nothing here may be shed.
		b := newBatcher(m, 2, maxBatch, time.Hour, stats)

		total := 0
		var wg sync.WaitGroup
		okAll := true
		var mu sync.Mutex
		for c := 0; c < nCalls; c++ {
			n := 1 + rng.Intn(3*maxBatch)
			total += n
			idx := make([]int, n)
			rows := make([][]float64, n)
			for i := range rows {
				idx[i] = rng.Intn(tab.NumRows())
				rows[i] = tab.Row(idx[i])
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]int, len(rows))
				if err := predictRows(context.Background(), b, rows, out); err != nil {
					mu.Lock()
					okAll = false
					mu.Unlock()
					return
				}
				for i := range out {
					if out[i] != oracle[idx[i]] {
						mu.Lock()
						okAll = false
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
		b.close()

		if !okAll {
			t.Logf("seed %d: wrong or failed prediction", seed)
			return false
		}
		if got := stats.BatchRows.Load(); got != int64(total) {
			t.Logf("seed %d: %d rows enqueued, %d flushed", seed, total, got)
			return false
		}
		if mx := stats.MaxBatchRows.Load(); mx > int64(maxBatch) {
			t.Logf("seed %d: flush of %d rows exceeds cap %d", seed, mx, maxBatch)
			return false
		}
		if mn := stats.MinBatchRows.Load(); mn < 1 {
			t.Logf("seed %d: empty flush recorded (min %d)", seed, mn)
			return false
		}
		if stats.Batches.Load() < int64(nCalls)/int64(maxBatch) {
			t.Logf("seed %d: impossibly few batches", seed)
			return false
		}
		checkFlushSum(t, stats)
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBatcherDeadlineBound pins the latency contract on a quiet server: a
// lone row waits for nobody. BatchWait is an hour here, so any flush that
// still slept on it for company would hang the test; the bound is a loose
// 1 s, far above a flush and far below the hour.
func TestBatcherDeadlineBound(t *testing.T) {
	tr, tab := trainedServeFixture(t, 500)
	m, err := infer.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	b := newBatcher(m, 2, 512, time.Hour, stats)
	defer b.close()

	for trial := 0; trial < 5; trial++ {
		out := make([]int, 1)
		start := time.Now()
		if err := predictRows(context.Background(), b, rows2(tab.Row(trial)), out); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("trial %d: lone row took %v with nothing else queued", trial, el)
		}
		if want := tr.Predict(tab.Row(trial)); out[0] != want {
			t.Fatalf("trial %d: got %d, oracle %d", trial, out[0], want)
		}
	}
	if got := stats.IdleFlushes.Load(); got != 5 {
		t.Fatalf("%d idle flushes for 5 lone rows", got)
	}
	checkFlushSum(t, stats)
}

// TestBatcherContextCancel pins all-or-nothing admission on the cancel
// side: with the pool wedged inside the kernel and the queue full, a
// cancelled request returns at once (BatchWait is an hour), has queued
// nothing and written nothing, and once the pool moves again every queued
// request and a fresh one are answered correctly.
func TestBatcherContextCancel(t *testing.T) {
	tr, tab := trainedServeFixture(t, 500)
	m, err := infer.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	g := newGate(m)
	b := newBatcher(g, 1, 4, time.Hour, stats)
	defer b.close()

	// Wedge: the only flusher sits in the kernel holding row 0, then rows
	// 1..cap fill the queue behind it.
	queued := cap(b.q)
	outs := make([][]int, 1+queued)
	var wg sync.WaitGroup
	ask := func(i int) {
		outs[i] = make([]int, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := predictRows(context.Background(), b, rows2(tab.Row(i)), outs[i]); err != nil {
				t.Errorf("queued request %d: %v", i, err)
			}
		}()
	}
	ask(0)
	<-g.entered
	for i := 1; i <= queued; i++ {
		ask(i)
	}
	waitDepth(t, b, queued)

	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = tab.Row(i)
	}
	for name, mk := range map[string]func() (context.Context, context.CancelFunc){
		"cancelled before the call": func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		},
		"cancelled during the admission wait": func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 20*time.Millisecond)
		},
	} {
		ctx, cancel := mk()
		out := make([]int, len(rows))
		for i := range out {
			out[i] = -1
		}
		start := time.Now()
		err := predictRows(ctx, b, rows, out)
		cancel()
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: returned %v, want the context's error", name, err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("%s: returned after %v — it waited on the wedged pool", name, el)
		}
		if b.depth() != queued {
			t.Fatalf("%s: queue depth %d, want %d (debris or a lost request)", name, b.depth(), queued)
		}
		for i, v := range out {
			if v != -1 {
				t.Fatalf("%s: out[%d] = %d was written for a request never admitted", name, i, v)
			}
		}
	}

	close(g.release)
	wg.Wait()
	for i, out := range outs {
		if want := tr.Predict(tab.Row(i)); out[0] != want {
			t.Fatalf("queued request %d: got %d, oracle %d", i, out[0], want)
		}
	}
	out1 := make([]int, 1)
	if err := predictRows(context.Background(), b, rows2(tab.Row(9)), out1); err != nil {
		t.Fatal(err)
	}
	if want := tr.Predict(tab.Row(9)); out1[0] != want {
		t.Fatalf("post-cancel row: got %d, oracle %d", out1[0], want)
	}
	if got, want := stats.BatchRows.Load(), int64(1+queued+1); got != want {
		t.Fatalf("%d rows flushed, want %d: a cancelled request leaked rows into a batch", got, want)
	}
	checkFlushSum(t, stats)
}

// TestBatcherCoBatchesBacklog pins batching under load without a sleep:
// while the single flusher is held inside the kernel, requests pile up in
// the queue; once released, the backlog goes out in the fewest kernel
// calls whole requests allow, and no request is ever split across two.
func TestBatcherCoBatchesBacklog(t *testing.T) {
	tr, tab := trainedServeFixture(t, 500)
	m, err := infer.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                string
		maxBatch, k, perReq int
		wantSizes           []int // kernel calls after the gate opens
		wantFull, wantIdle  int64
	}{
		// 20 rows / 8 = 3 calls: two closed at the cap, the rest when the queue ran dry.
		{"single rows", 8, 20, 1, []int{8, 8, 4}, 2, 1},
		// Two 3-row requests fit a batch of 8, a third would overflow it:
		// it opens the next batch instead of being split.
		{"whole requests", 8, 5, 3, []int{6, 6, 3}, 2, 1},
		// A request of exactly MaxBatch rows is a batch by itself.
		{"request = MaxBatch", 4, 3, 4, []int{4, 4, 4}, 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats := &Stats{}
			g := newGate(m)
			b := newBatcher(g, 1, tc.maxBatch, time.Hour, stats)
			defer b.close()

			var wg sync.WaitGroup
			ask := func(lo, n int) {
				rows, want := make([][]float64, n), make([]int, n)
				for i := range rows {
					rows[i] = tab.Row(lo + i)
					want[i] = tr.Predict(rows[i])
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := make([]int, n)
					if err := predictRows(context.Background(), b, rows, out); err != nil {
						t.Errorf("request at row %d: %v", lo, err)
						return
					}
					for i := range out {
						if out[i] != want[i] {
							t.Errorf("request at row %d: out[%d] = %d, oracle %d", lo, i, out[i], want[i])
						}
					}
				}()
			}
			ask(0, 1) // holds the flusher in the kernel
			if n := <-g.entered; n != 1 {
				t.Fatalf("first kernel call carried %d rows, want 1", n)
			}
			for r := 0; r < tc.k; r++ {
				ask(1+r*tc.perReq, tc.perReq)
			}
			waitDepth(t, b, tc.k)
			close(g.release)
			wg.Wait()

			var sizes []int
			for len(g.entered) > 0 {
				sizes = append(sizes, <-g.entered)
			}
			if !slices.Equal(sizes, tc.wantSizes) {
				t.Fatalf("backlog of %d x %d rows, cap %d: kernel calls of %v rows, want %v",
					tc.k, tc.perReq, tc.maxBatch, sizes, tc.wantSizes)
			}
			// The held first call closed on an empty queue: one more idle flush.
			if full, idle := stats.FullFlushes.Load(), stats.IdleFlushes.Load(); full != tc.wantFull || idle != tc.wantIdle+1 {
				t.Fatalf("full/idle flushes = %d/%d, want %d/%d", full, idle, tc.wantFull, tc.wantIdle+1)
			}
			checkFlushSum(t, stats)
		})
	}
}

// TestBatcherCutsLargeRequest: a request of 3*MaxBatch+1 rows is answered
// by four flushes of in-order slices, labels in row order.
func TestBatcherCutsLargeRequest(t *testing.T) {
	tr, tab := trainedServeFixture(t, 500)
	m, err := infer.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	const maxBatch = 4
	stats := &Stats{}
	g := newGate(m)
	close(g.release) // count the calls, hold none
	b := newBatcher(g, 2, maxBatch, time.Hour, stats)
	defer b.close()

	rows := make([][]float64, 3*maxBatch+1)
	for i := range rows {
		rows[i] = tab.Row(i)
	}
	out := make([]int, len(rows))
	if err := predictRows(context.Background(), b, rows, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if want := tr.Predict(rows[i]); out[i] != want {
			t.Fatalf("row %d: got %d, oracle %d", i, out[i], want)
		}
	}
	var sizes []int
	for len(g.entered) > 0 {
		sizes = append(sizes, <-g.entered)
	}
	if want := []int{maxBatch, maxBatch, maxBatch, 1}; !slices.Equal(sizes, want) {
		t.Fatalf("kernel calls of %v rows, want %v", sizes, want)
	}
	if got := stats.Batches.Load(); got != 4 {
		t.Fatalf("%d flushes, want 4", got)
	}
	checkFlushSum(t, stats)
}

// TestPredictIntoAllocs: with the call reused (as the pooled request buffer
// reuses it), queueing, flushing and completing a request allocates nothing,
// whatever its size.
func TestPredictIntoAllocs(t *testing.T) {
	tr, tab := trainedServeFixture(t, 500)
	m, err := infer.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(m, 2, 512, time.Hour, &Stats{})
	defer b.close()
	for _, n := range []int{1, 256} {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = tab.Row(i)
		}
		c := newCall(rows, make([]int, n))
		allocs := testing.AllocsPerRun(200, func() {
			if err := b.predictInto(context.Background(), c); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%d rows: %v allocations per predictInto, want 0", n, allocs)
		}
	}
}

// predictRows runs one request through b as the handler does, on a call
// of its own.
func predictRows(ctx context.Context, b *batcher, rows [][]float64, out []int) error {
	return b.predictInto(ctx, newCall(rows, out))
}

// gate wraps a compiled model so a test can see and hold kernel calls:
// every PredictRowsInto reports its row count on entered, then waits for a
// token on release (close it to let everything through).
type gate struct {
	infer.Compiled
	entered chan int
	release chan struct{}
}

func newGate(m infer.Compiled) *gate {
	// entered is never the reason a kernel call blocks: no test makes
	// more than 64 of them.
	return &gate{Compiled: m, entered: make(chan int, 64), release: make(chan struct{})}
}

func (g *gate) PredictRowsInto(rows [][]float64, out []int) error {
	g.entered <- len(rows)
	<-g.release
	return g.Compiled.PredictRowsInto(rows, out)
}

// waitDepth waits for the event "n requests are queued".
func waitDepth(t *testing.T, b *batcher, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); b.depth() != n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, still not %d after 10 s", b.depth(), n)
		}
	}
}

// checkFlushSum: every flush is closed for exactly one reason, and never
// by a timer.
func checkFlushSum(t *testing.T, s *Stats) {
	t.Helper()
	full, idle, deadline, batches := s.FullFlushes.Load(), s.IdleFlushes.Load(), s.DeadlineFlushes.Load(), s.Batches.Load()
	if full+idle+deadline != batches {
		t.Fatalf("full %d + idle %d + deadline %d flushes != %d batches", full, idle, deadline, batches)
	}
	if deadline != 0 {
		t.Fatalf("%d deadline flushes: no flush is closed by a timer", deadline)
	}
}

func trainedServeFixture(t testing.TB, n int) (*tree.Tree, *dataset.Table) {
	t.Helper()
	return trainTree(t, 1, n, 0)
}
