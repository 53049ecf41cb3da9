package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/infer"
)

// ErrOverloaded reports that the micro-batcher's queue could not admit a
// request within BatchWait: the server is saturated and the request was
// shed instead of parked behind an unbounded backlog. The HTTP layer maps
// it to 503 with a Retry-After.
var ErrOverloaded = errors.New("serve: overloaded, prediction queue full past the admission deadline")

// batcher coalesces concurrent requests into the compiled engine's
// batches. The queue carries whole requests, and the flushers are
// work-conserving: each blocks for a first request, keeps taking requests
// that are already queued — never waiting for one — until maxBatch rows,
// and flushes the moment the queue is empty. Batches therefore form from
// the backlog that builds while every flusher is inside the kernel: batch
// size follows the load, and a lone request costs its own service time.
//
// One batcher belongs to one cache entry (one model version): a flush can
// never mix versions, and the version's refcount drain (every request
// holds a cache reference from decode to response) guarantees the queue is
// empty and all flushes complete before Close runs. The batcher therefore
// never drops rows on shutdown.
type batcher struct {
	model    infer.Compiled
	q        chan *call
	stop     chan struct{}
	wg       sync.WaitGroup
	maxBatch int
	maxWait  time.Duration // longest a request waits for queue admission
	stats    *Stats
}

// call is one request in flight: its decoded rows, the result slice the
// flushers fill positionally (out[i] answers rows[i] however the request
// is batched), and its completion. The flusher also stamps when the
// request's first flush started and when its last kernel call returned.
type call struct {
	rows [][]float64
	out  []int
	err  error      // first failed flush; flusher-owned until done is sent
	done chan error // capacity 1: a flusher's completion never blocks

	flushStart, kernelDone time.Time
}

func newCall(rows [][]float64, out []int) *call {
	return &call{rows: rows, out: out, done: make(chan error, 1)}
}

func newBatcher(m infer.Compiled, workers, maxBatch int, maxWait time.Duration, stats *Stats) *batcher {
	b := &batcher{
		model: m,
		// 4*maxBatch requests: backlog enough for every flusher to cut
		// full batches out of single-row traffic. A deeper queue only
		// turns fast 503s into slow 200s.
		q:        make(chan *call, 4*maxBatch),
		stop:     make(chan struct{}),
		maxBatch: maxBatch,
		maxWait:  maxWait,
		stats:    stats,
	}
	b.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go b.flusher()
	}
	return b
}

// close stops the flushers. Only called from the owning cache entry's
// drain hook, i.e. when no request holds the version: the queue is
// provably empty and every flush has completed.
func (b *batcher) close() {
	close(b.stop)
	b.wg.Wait()
}

// depth returns the number of requests queued but not yet picked up.
func (b *batcher) depth() int { return len(b.q) }

// predictInto queues the request and blocks until its rows are answered,
// one label per row in c.out. Admission is all-or-nothing and bounded: a
// request that finds the queue full waits at most maxWait for a slot, then
// is shed with ErrOverloaded; a context cancelled during that wait returns
// at once. Either way nothing of the request was queued, so c is free for
// reuse. Once admitted, the request is always answered — flushers never
// sleep — and the wait is not abandoned (they write into c.out).
func (b *batcher) predictInto(ctx context.Context, c *call) error {
	if len(c.out) != len(c.rows) {
		return fmt.Errorf("serve: out has %d slots for %d rows", len(c.out), len(c.rows))
	}
	if len(c.rows) == 0 {
		return nil
	}
	c.err = nil
	select {
	case b.q <- c:
	default:
		// Only a saturated queue pays for the admission timer.
		shed := time.NewTimer(b.maxWait)
		defer shed.Stop()
		select {
		case b.q <- c:
		case <-shed.C:
			return ErrOverloaded
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return <-c.done
}

// part is one request's share of a batch: the whole request, or — for a
// request of more than maxBatch rows — one in-order slice of it.
type part struct {
	c     *call
	lo, n int
}

// flusher is one worker of the pool. Its scratch (the batch's parts, the
// row-pointer view, and the output slice) is allocated once and reused for
// the worker's lifetime. cur is a request taken off the queue whose rows
// from lo on are not flushed yet: one that did not fit the batch just
// closed, or a large one between its slices.
func (b *batcher) flusher() {
	defer b.wg.Done()
	parts := make([]part, 0, b.maxBatch)
	rows := make([][]float64, 0, b.maxBatch)
	out := make([]int, b.maxBatch)
	var cur *call
	lo := 0
	for {
		parts, rows = parts[:0], rows[:0]
		idle := false
		for len(rows) < b.maxBatch && !idle {
			if cur == nil {
				lo = 0
				if len(rows) == 0 {
					select {
					case cur = <-b.q:
					case <-b.stop:
						return
					}
				} else {
					select {
					case cur = <-b.q:
					default:
						idle = true
						continue
					}
				}
			}
			n := len(cur.rows) - lo
			if n > b.maxBatch-len(rows) {
				if len(rows) > 0 {
					break // cur opens the next batch: it is never split to top this one up
				}
				n = b.maxBatch
			}
			parts = append(parts, part{cur, lo, n})
			rows = append(rows, cur.rows[lo:lo+n]...)
			if lo += n; lo == len(cur.rows) {
				cur = nil
			}
		}
		b.flush(parts, rows, out[:len(rows)], idle)
	}
}

// flush answers one gathered batch: a single engine call, then positional
// scatter of the labels into each request's result slice. A request
// completes with the flush that carries its last row.
func (b *batcher) flush(parts []part, rows [][]float64, out []int, idle bool) {
	start := time.Now()
	err := b.model.PredictRowsInto(rows, out)
	end := time.Now()
	b.stats.recordBatch(len(rows), idle)
	if err != nil {
		b.stats.PredictErrors.Add(1)
	}
	for _, p := range parts {
		c := p.c
		if p.lo == 0 {
			c.flushStart = start
		}
		if err != nil && c.err == nil {
			c.err = err
		}
		copy(c.out[p.lo:p.lo+p.n], out)
		out = out[p.n:]
		if p.lo+p.n == len(c.rows) {
			c.kernelDone = end
			c.done <- c.err
		}
	}
}
