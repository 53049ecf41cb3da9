package serve

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// batchHistBuckets is the batch-size histogram's bucket count: bucket 0
// holds single-row flushes, bucket i holds sizes in (2^(i-1), 2^i], so the
// last bucket is (256, 512] — full flushes at the default MaxBatch.
const batchHistBuckets = 10

// Stats accumulates the server's counters. Unlike comm.Stats (whose ranks
// own their counters single-threaded), every handler and flusher updates
// these concurrently, so the fields are atomics; Snapshot flattens them
// for /stats.
type Stats struct {
	Requests     atomic.Int64
	RowsIn       atomic.Int64
	DecodeErrors atomic.Int64
	NotFound     atomic.Int64
	// Sheds counts requests answered 503 because the prediction queue
	// could not admit them within BatchWait.
	Sheds atomic.Int64

	// Every flush is closed for exactly one reason, so FullFlushes +
	// IdleFlushes + DeadlineFlushes == Batches.
	Batches      atomic.Int64
	BatchRows    atomic.Int64
	MinBatchRows atomic.Int64 // smallest flush seen (never 0: no empty flushes)
	MaxBatchRows atomic.Int64 // largest flush seen (never above MaxBatch)
	// FullFlushes: closed because no further whole request fit — the batch
	// hit MaxBatch, or the next queued request would have overflowed it.
	FullFlushes atomic.Int64
	// IdleFlushes: closed below MaxBatch because the queue ran dry.
	IdleFlushes atomic.Int64
	// DeadlineFlushes: closed by a timer. No flush waits on a timer any
	// more, so it reads 0; it keeps its meaning rather than being renamed.
	DeadlineFlushes atomic.Int64
	PredictErrors   atomic.Int64

	BatchHist [batchHistBuckets]atomic.Int64

	// BufGets/BufPuts track the pooled request-buffer balance. They must
	// stay equal at rest: a gap means an error path leaked a buffer (the
	// decode-failure regression test pins this).
	BufGets atomic.Int64
	BufPuts atomic.Int64

	Swaps   atomic.Int64 // model versions stored (uploads + retrains)
	Deletes atomic.Int64

	// Stages is where the answered requests' time went, all models.
	Stages stageStats
}

// The stages of one answered /predict request, cut at six clock reads:
// handler entry, decode start, enqueue, first flush start, last kernel
// return, reply written. stageOther is the handler span minus the four
// named stages — the body read and the model lookup — so the stages of a
// request always sum to its span.
const (
	stageDecode = iota // body bytes -> rows
	stageQueue         // enqueue (admission wait included) -> a flusher starts on it
	stageKernel        // the flush(es) that carry the request
	stageEncode        // scatter, wake-up, reply encode and write
	stageOther
	numStages
)

var stageNames = [numStages]string{"decode", "queue_wait", "kernel", "scatter_encode", "other"}

// stageHistBuckets is the per-stage latency histogram's bucket count:
// bucket i counts durations of bit length i in nanoseconds — bucket 0 is
// 0 ns, bucket i is [2^(i-1), 2^i) ns — and the last bucket takes
// everything from 2^30 ns (about 1.07 s) up.
const stageHistBuckets = 32

// stageStats accumulates per-stage time of answered requests. Requests
// answered with an error status are not recorded here; their own counters
// (DecodeErrors, NotFound, Sheds) count them.
type stageStats struct {
	requests atomic.Int64
	spanNs   atomic.Int64
	sumNs    [numStages]atomic.Int64
	hist     [numStages][stageHistBuckets]atomic.Int64
}

// record adds one request: its handler span and its four measured stages
// (d[stageOther] is derived here, never passed in).
func (s *stageStats) record(span time.Duration, d [numStages]time.Duration) {
	d[stageOther] = span - d[stageDecode] - d[stageQueue] - d[stageKernel] - d[stageEncode]
	s.requests.Add(1)
	s.spanNs.Add(int64(span))
	for st, dur := range d {
		s.sumNs[st].Add(int64(dur))
		s.hist[st][min(bits.Len64(uint64(dur)), stageHistBuckets-1)].Add(1)
	}
}

// recordBatch tallies one flush of n rows; idle marks a flush closed
// because the queue ran dry (vs one closed because nothing more fit).
func (s *Stats) recordBatch(n int, idle bool) {
	s.Batches.Add(1)
	s.BatchRows.Add(int64(n))
	if idle {
		s.IdleFlushes.Add(1)
	} else {
		s.FullFlushes.Add(1)
	}
	for {
		cur := s.MinBatchRows.Load()
		if cur != 0 && int64(n) >= cur || s.MinBatchRows.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	for {
		cur := s.MaxBatchRows.Load()
		if int64(n) <= cur || s.MaxBatchRows.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	b := 0
	for 1<<b < n && b < batchHistBuckets-1 {
		b++
	}
	s.BatchHist[b].Add(1)
}

// StatsSnapshot is the JSON shape of /stats.
type StatsSnapshot struct {
	Requests     int64 `json:"requests"`
	RowsIn       int64 `json:"rows_in"`
	DecodeErrors int64 `json:"decode_errors"`
	NotFound     int64 `json:"not_found"`
	Sheds        int64 `json:"sheds"`

	Batches         int64   `json:"batches"`
	BatchRows       int64   `json:"batch_rows"`
	MeanBatchRows   float64 `json:"mean_batch_rows"`
	MinBatchRows    int64   `json:"min_batch_rows"`
	MaxBatchRows    int64   `json:"max_batch_rows"`
	FullFlushes     int64   `json:"full_flushes"`
	IdleFlushes     int64   `json:"idle_flushes"`
	DeadlineFlushes int64   `json:"deadline_flushes"`
	PredictErrors   int64   `json:"predict_errors"`

	// BatchSizeHist[i] counts flushes of size in (2^(i-1), 2^i]
	// (BatchSizeHist[0] counts single-row flushes).
	BatchSizeHist [batchHistBuckets]int64 `json:"batch_size_hist"`

	BufGets int64 `json:"buf_gets"`
	BufPuts int64 `json:"buf_puts"`

	Swaps   int64 `json:"swaps"`
	Deletes int64 `json:"deletes"`

	// QueueDepth is the number of requests queued, all models.
	QueueDepth int `json:"queue_depth"`

	Stages StagesSnapshot `json:"stages"`

	Models []ModelSnapshot `json:"models"`
}

// StagesSnapshot is where answered requests' time went. With no request
// in flight the Stages' SumNs add up to SpanNs exactly.
type StagesSnapshot struct {
	Requests int64           `json:"requests"`
	SpanNs   int64           `json:"span_ns"`
	Stages   []StageSnapshot `json:"stages"`
}

// StageSnapshot is one stage's total and its log2 histogram: Log2NsHist[i]
// counts requests that spent [2^(i-1), 2^i) ns in the stage (bucket 0:
// 0 ns; the last bucket is open-ended).
type StageSnapshot struct {
	Stage      string                  `json:"stage"`
	SumNs      int64                   `json:"sum_ns"`
	Log2NsHist [stageHistBuckets]int64 `json:"log2_ns_hist"`
}

func (s *stageStats) snapshot() StagesSnapshot {
	out := StagesSnapshot{Requests: s.requests.Load(), SpanNs: s.spanNs.Load()}
	for st, name := range stageNames {
		ss := StageSnapshot{Stage: name, SumNs: s.sumNs[st].Load()}
		for i := range ss.Log2NsHist {
			ss.Log2NsHist[i] = s.hist[st][i].Load()
		}
		out.Stages = append(out.Stages, ss)
	}
	return out
}

// ModelSnapshot is one live model's /stats entry.
type ModelSnapshot struct {
	Name       string `json:"name"`
	Version    int    `json:"version"`
	Hits       int64  `json:"hits"`
	Nodes      int    `json:"nodes"`
	Depth      int    `json:"depth"`
	Bytes      int    `json:"bytes"`
	QueueDepth int    `json:"queue_depth"`
	// Stages covers the requests this version answered.
	Stages StagesSnapshot `json:"stages"`
}

// snapshot flattens the counters (models and queue depth are filled by the
// server, which owns the cache).
func (s *Stats) snapshot() StatsSnapshot {
	out := StatsSnapshot{
		Requests:        s.Requests.Load(),
		RowsIn:          s.RowsIn.Load(),
		DecodeErrors:    s.DecodeErrors.Load(),
		NotFound:        s.NotFound.Load(),
		Sheds:           s.Sheds.Load(),
		Batches:         s.Batches.Load(),
		BatchRows:       s.BatchRows.Load(),
		MinBatchRows:    s.MinBatchRows.Load(),
		MaxBatchRows:    s.MaxBatchRows.Load(),
		FullFlushes:     s.FullFlushes.Load(),
		IdleFlushes:     s.IdleFlushes.Load(),
		DeadlineFlushes: s.DeadlineFlushes.Load(),
		PredictErrors:   s.PredictErrors.Load(),
		BufGets:         s.BufGets.Load(),
		BufPuts:         s.BufPuts.Load(),
		Swaps:           s.Swaps.Load(),
		Deletes:         s.Deletes.Load(),
		Stages:          s.Stages.snapshot(),
	}
	for i := range out.BatchSizeHist {
		out.BatchSizeHist[i] = s.BatchHist[i].Load()
	}
	if out.Batches > 0 {
		out.MeanBatchRows = float64(out.BatchRows) / float64(out.Batches)
	}
	return out
}
