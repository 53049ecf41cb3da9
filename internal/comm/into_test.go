package comm

import (
	"testing"

	"repro/internal/timing"
)

// TestIntoVariantsReuseBuffers drives every *Into collective through two
// rounds per rank with per-rank pooled output buffers, checking both the
// results and that the second round reuses the first round's backing (the
// steady-state no-allocation property the scratch arenas build on).
func TestIntoVariantsReuseBuffers(t *testing.T) {
	for _, p := range testSizes() {
		w := NewWorld(p, timing.T3D())
		type pools struct {
			allred, exscan []int64
			rscat          []uint32
			a2a            [][]int64
			cg             []int32
		}
		pool := make([]pools, p)
		for round := 0; round < 2; round++ {
			w.Run(func(c *Comm) {
				me := int64(c.Rank())
				pl := &pool[c.Rank()]

				x := []int64{me, 1}
				before := pl.allred
				pl.allred = AllReduceSumInto(c, x, pl.allred)
				if pl.allred[0] != int64(p*(p-1)/2) || pl.allred[1] != int64(p) {
					t.Errorf("p=%d AllReduceSumInto = %v", p, pl.allred)
				}
				if round == 1 && before != nil && &before[0] != &pl.allred[0] {
					t.Errorf("p=%d AllReduceSumInto reallocated on round 2", p)
				}

				pl.exscan = ExScanSumInto(c, []int64{1}, pl.exscan)
				if pl.exscan[0] != me {
					t.Errorf("p=%d rank %d ExScanSumInto = %v", p, c.Rank(), pl.exscan)
				}

				counts := make([]int, p)
				full := make([]uint32, 2*p)
				for r := 0; r < p; r++ {
					counts[r] = 2
					full[2*r] = uint32(c.Rank())
					full[2*r+1] = uint32(r)
				}
				pl.rscat = ReduceScatterSum32Into(c, full, pl.rscat, counts)
				if pl.rscat[0] != uint32(p*(p-1)/2) || pl.rscat[1] != uint32(p*c.Rank()) {
					t.Errorf("p=%d rank %d ReduceScatterSum32Into = %v", p, c.Rank(), pl.rscat)
				}

				send := make([][]int64, p)
				for d := range send {
					send[d] = []int64{me*100 + int64(d)}
				}
				pl.a2a = AllToAllInto(c, send, pl.a2a)
				for s, buf := range pl.a2a {
					if len(buf) != 1 || buf[0] != int64(s)*100+me {
						t.Errorf("p=%d rank %d AllToAllInto[%d] = %v", p, c.Rank(), s, buf)
					}
				}

				beforeCg := pl.cg
				pl.cg = CandidateGatherInto(c, []int32{int32(me), int32(me) + 100}, pl.cg)
				for s := 0; s < p; s++ {
					if pl.cg[2*s] != int32(s) || pl.cg[2*s+1] != int32(s)+100 {
						t.Errorf("p=%d rank %d CandidateGatherInto = %v", p, c.Rank(), pl.cg)
					}
				}
				if round == 1 && beforeCg != nil && &beforeCg[0] != &pl.cg[0] {
					t.Errorf("p=%d CandidateGatherInto reallocated on round 2", p)
				}
			})
		}
	}
}

// TestReverseExScanInto checks the pooled variant matches the allocating
// one.
func TestReverseExScanInto(t *testing.T) {
	for _, p := range testSizes() {
		w := NewWorld(p, timing.T3D())
		out := make([][]int64, p)
		pool := make([][]int64, p)
		w.Run(func(c *Comm) {
			x := []int64{int64(c.Rank() + 1)}
			pool[c.Rank()] = ReverseExScanInto(c, x, pool[c.Rank()], func(a, b int64) int64 { return a + b }, 0)
			out[c.Rank()] = pool[c.Rank()]
		})
		for r := 0; r < p; r++ {
			want := int64(0)
			for s := r + 1; s < p; s++ {
				want += int64(s + 1)
			}
			if out[r][0] != want {
				t.Errorf("p=%d rank %d ReverseExScanInto = %d, want %d", p, r, out[r][0], want)
			}
		}
	}
}
