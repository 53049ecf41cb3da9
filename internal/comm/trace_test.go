package comm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/timing"
	"repro/internal/trace"
)

// a2aOracleStats recomputes the AllToAll byte accounting the slow way the
// implementation used to: walking every rank's full send matrix. It is the
// regression oracle for the single-pass payload-carried accounting.
func a2aOracleStats(send [][][]int64, es int) (sent, recv []int64, maxSent int) {
	p := len(send)
	sent = make([]int64, p)
	recv = make([]int64, p)
	for me := 0; me < p; me++ {
		for d, buf := range send[me] {
			if d != me {
				sent[me] += int64(len(buf) * es)
			}
		}
		for r := 0; r < p; r++ {
			if r != me {
				recv[me] += int64(len(send[r][me]) * es)
			}
		}
	}
	for me := 0; me < p; me++ {
		if s := int(sent[me]); s > maxSent {
			maxSent = s
		}
	}
	return sent, recv, maxSent
}

func TestAllToAllStatsMatchOracle(t *testing.T) {
	for _, p := range testSizes() {
		// Deterministic, deliberately lopsided buffer lengths so the
		// max-sent rank and the max-recv rank differ.
		send := make([][][]int64, p)
		for me := 0; me < p; me++ {
			send[me] = make([][]int64, p)
			for d := 0; d < p; d++ {
				n := (me*3 + d*7) % 11
				buf := make([]int64, n)
				for i := range buf {
					buf[i] = int64(me*1000 + d*100 + i)
				}
				send[me][d] = buf
			}
		}
		wantSent, wantRecv, wantMax := a2aOracleStats(send, sizeOf[int64]())

		w := NewWorld(p, timing.T3D())
		w.Run(func(c *Comm) {
			AllToAllInto(c, send[c.Rank()], nil)
		})
		stats := w.Stats()
		for r := 0; r < p; r++ {
			if stats[r].BytesSent != wantSent[r] {
				t.Fatalf("p=%d rank %d: BytesSent=%d, oracle says %d", p, r, stats[r].BytesSent, wantSent[r])
			}
			if stats[r].BytesRecv != wantRecv[r] {
				t.Fatalf("p=%d rank %d: BytesRecv=%d, oracle says %d", p, r, stats[r].BytesRecv, wantRecv[r])
			}
		}
		// The modeled time must still be driven by the global max-sent
		// volume (the old accounting pass recomputed it on every rank).
		wantClock := picos(timing.T3D().AllToAll(p, wantMax))
		for r := 0; r < p; r++ {
			if got := w.Trace().FinalPicos[r]; got != wantClock {
				t.Fatalf("p=%d rank %d: clock %d picos, want %d (model on maxSent=%d)", p, r, got, wantClock, wantMax)
			}
		}
	}
}

// mixedWorkload exercises every collective plus point-to-point under
// rotating phase tags, so conservation tests see all the code paths.
func mixedWorkload(c *Comm) {
	p := c.Size()
	me := c.Rank()

	c.SetPhase(trace.Sort, 0)
	c.Compute(1e-6 * float64(me+1))
	bufs := make([][]int64, p)
	for d := 0; d < p; d++ {
		bufs[d] = make([]int64, (me+d)%3+1)
	}
	AllToAllInto(c, bufs, nil)

	c.SetPhase(trace.FindSplitI, 0)
	ExScanSumInto(c, []int64{int64(me), 2}, nil)
	ReverseExScanInto(c, []int64{int64(me)}, nil, func(a, b int64) int64 { return a + b }, 0)
	AllReduceSumInto(c, []int64{1, 2, 3}, nil)
	counts := make([]int, p)
	hist := make([]uint32, 0, 2*p)
	for r := 0; r < p; r++ {
		counts[r] = (r % 3) + 1
		for i := 0; i < counts[r]; i++ {
			hist = append(hist, uint32(me+r+i))
		}
	}
	ReduceScatterSum32Into(c, hist, nil, counts)

	c.SetPhase(trace.FindSplitII, 1)
	Allgather(c, make([]float64, me+1))
	CandidateGatherInto(c, []int32{int32(me), int32(me + 1), -1}, nil)
	Reduce(c, 0, []float64{float64(me)}, func(a, b float64) float64 { return a + b })

	c.SetPhase(trace.PerformSplitI, 1)
	if partner := me ^ 1; partner < p {
		if me < partner {
			send(c, partner, []int64{int64(me)})
			recv[byte](c, partner)
		} else {
			recv[int64](c, partner)
			send(c, partner, make([]byte, 5*(me+1)))
		}
	}

	c.SetPhase(trace.PerformSplitII, 2)
	c.Compute(3e-7)
	c.Barrier()
}

func TestTraceConservesClockAndBytes(t *testing.T) {
	for _, p := range testSizes() {
		w := NewWorld(p, timing.T3D())
		for round := 0; round < 3; round++ {
			w.Run(mixedWorkload)
		}
		tr := w.Trace()
		stats := w.Stats()
		for r := 0; r < p; r++ {
			// Exact conservation: the per-bucket attributed times sum to
			// the rank's final clock, integer picosecond for picosecond.
			if got, want := tr.Ranks[r].TotalPicos(), tr.FinalPicos[r]; got != want {
				t.Fatalf("p=%d rank %d: bucket times sum to %d picos, clock is %d", p, r, got, want)
			}
			var sent, recv int64
			for _, b := range tr.Ranks[r].Buckets() {
				sent += b.BytesSent
				recv += b.BytesRecv
			}
			if sent != stats[r].BytesSent {
				t.Fatalf("p=%d rank %d: per-phase sent %d, stats say %d", p, r, sent, stats[r].BytesSent)
			}
			if recv != stats[r].BytesRecv {
				t.Fatalf("p=%d rank %d: per-phase recv %d, stats say %d", p, r, recv, stats[r].BytesRecv)
			}
		}
		if got, want := tr.TotalPicos(), w.MaxClockPicos(); got != want {
			t.Fatalf("p=%d: trace total %d picos, world max clock %d", p, got, want)
		}
	}
}

// TestReduceScatterClockSync pins the synchronizing-max clock rule for the
// ReduceScatter collective at p ∈ {1, 2, 4}: ranks arrive with staggered
// clocks, every rank leaves at the slowest arrival plus the modeled
// reduce-scatter cost, and the per-phase trace stays exactly conservative.
func TestReduceScatterClockSync(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		model := timing.T3D()
		w := NewWorld(p, model)
		counts := make([]int, p)
		n := 0
		for r := range counts {
			counts[r] = r + 1
			n += counts[r]
		}
		stagger := func(r int) float64 { return 1e-3 * float64(r+1) }
		w.Run(func(c *Comm) {
			c.SetPhase(trace.FindSplitI, 3)
			c.Compute(stagger(c.Rank()))
			ReduceScatterSum32Into(c, make([]uint32, n), nil, counts)
		})
		// The slowest arrival is rank p-1; everyone must leave at that
		// clock plus the modeled collective cost — integer picoseconds,
		// compared with ==.
		want := picos(stagger(p-1)) + picos(model.ReduceScatter(p, n*sizeOf[uint32]()))
		tr := w.Trace()
		for r := 0; r < p; r++ {
			if got := tr.FinalPicos[r]; got != want {
				t.Fatalf("p=%d rank %d: clock %d picos, want %d", p, r, got, want)
			}
			if got := tr.Ranks[r].TotalPicos(); got != tr.FinalPicos[r] {
				t.Fatalf("p=%d rank %d: bucket times sum to %d, clock is %d", p, r, got, tr.FinalPicos[r])
			}
			// The whole operation lands in the tagged bucket.
			for _, b := range tr.Ranks[r].Buckets() {
				if b.Phase != trace.FindSplitI || b.Level != 3 {
					t.Fatalf("p=%d rank %d: unexpected bucket %+v", p, r, b)
				}
			}
		}
	}
}

func TestTraceSpansTileEachRankTimeline(t *testing.T) {
	w := NewWorld(4, timing.T3D())
	w.Run(mixedWorkload)
	tr := w.Trace()
	for r, rt := range tr.Ranks {
		spans := rt.Spans()
		if len(spans) == 0 {
			t.Fatalf("rank %d recorded no spans", r)
		}
		if spans[0].StartPicos != 0 {
			t.Fatalf("rank %d: first span starts at %d, want 0", r, spans[0].StartPicos)
		}
		for i := 1; i < len(spans); i++ {
			if spans[i].StartPicos != spans[i-1].EndPicos {
				t.Fatalf("rank %d: gap between spans %d and %d", r, i-1, i)
			}
		}
		if last := spans[len(spans)-1].EndPicos; last != tr.FinalPicos[r] {
			t.Fatalf("rank %d: last span ends at %d, clock is %d", r, last, tr.FinalPicos[r])
		}
	}
}

func TestResetClocksResetsTraceTimes(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	w.Run(mixedWorkload)
	w.Reset()
	tr := w.Trace()
	for r := 0; r < 2; r++ {
		if tr.Ranks[r].TotalPicos() != 0 || len(tr.Ranks[r].Spans()) != 0 || len(tr.Ranks[r].Events()) != 0 {
			t.Fatalf("rank %d: trace times, spans or events survived Reset", r)
		}
	}
}

// TestResetStatsResetsTraceComm: a reset world lists no bucket of the run
// before it, so a second run's trace equals a fresh world's.
func TestResetStatsResetsTraceComm(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	w.Run(mixedWorkload)
	w.Reset()
	for r, rt := range w.Trace().Ranks {
		if bs := rt.Buckets(); len(bs) != 0 {
			t.Fatalf("rank %d: buckets survived Reset: %+v", r, bs)
		}
	}
	w.Run(func(c *Comm) { AllReduceSumInto(c, []int64{1}, nil) })
	fresh := NewWorld(2, timing.T3D())
	fresh.Run(func(c *Comm) { AllReduceSumInto(c, []int64{1}, nil) })
	if !reflect.DeepEqual(w.Trace(), fresh.Trace()) {
		t.Fatal("a run on a reset world traced differently from one on a fresh world")
	}
}

func BenchmarkAllToAll(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			w := NewWorld(p, timing.T3D())
			send := make([][]int64, p)
			for d := range send {
				send[d] = make([]int64, 256)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Run(func(c *Comm) {
					AllToAllInto(c, send, nil)
				})
			}
		})
	}
}

func BenchmarkAllReduceSum(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			w := NewWorld(p, timing.T3D())
			x := make([]int64, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Run(func(c *Comm) {
					AllReduceSumInto(c, x, nil)
				})
			}
		})
	}
}
