package comm

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/timing"
	"repro/internal/trace"
)

func TestCandidateGather(t *testing.T) {
	for _, p := range testSizes() {
		w := NewWorld(p, timing.T3D())
		results := make([][]int32, p)
		w.Run(func(c *Comm) {
			me := int32(c.Rank())
			results[c.Rank()] = CandidateGatherInto(c, []int32{me, me + 100, -1}, nil)
		})
		for r := 0; r < p; r++ {
			got := results[r]
			if len(got) != 3*p {
				t.Fatalf("p=%d rank %d: %d elements, want %d", p, r, len(got), 3*p)
			}
			for s := 0; s < p; s++ {
				if got[3*s] != int32(s) || got[3*s+1] != int32(s)+100 || got[3*s+2] != -1 {
					t.Fatalf("p=%d rank %d: block %d = %v", p, r, s, got[3*s:3*s+3])
				}
			}
		}
		stats := w.Stats()
		for r := 0; r < p; r++ {
			if stats[r].CandidateGathers != 1 {
				t.Fatalf("p=%d rank %d: CandidateGathers=%d", p, r, stats[r].CandidateGathers)
			}
			want := int64((p - 1) * 3 * sizeOf[int32]())
			if stats[r].BytesSent != want || stats[r].BytesRecv != want {
				t.Fatalf("p=%d rank %d: sent/recv %d/%d bytes, want %d each",
					p, r, stats[r].BytesSent, stats[r].BytesRecv, want)
			}
		}
	}
}

// TestCandidateGatherClockSync pins the synchronizing-max clock rule for the
// ballot exchange, mirroring TestReduceScatterClockSync: ranks arrive with
// staggered clocks, every rank leaves at the slowest arrival plus the
// modeled allgather cost of one ballot, and the trace stays conservative.
func TestCandidateGatherClockSync(t *testing.T) {
	const n = 6
	for _, p := range []int{1, 2, 4} {
		model := timing.T3D()
		w := NewWorld(p, model)
		stagger := func(r int) float64 { return 1e-3 * float64(r+1) }
		w.Run(func(c *Comm) {
			c.SetPhase(trace.FindSplitI, 2)
			c.Compute(stagger(c.Rank()))
			CandidateGatherInto(c, make([]int32, n), nil)
		})
		want := picos(stagger(p-1)) + picos(model.Allgather(p, n*sizeOf[int32]()))
		tr := w.Trace()
		for r := 0; r < p; r++ {
			if got := tr.FinalPicos[r]; got != want {
				t.Fatalf("p=%d rank %d: clock %d picos, want %d", p, r, got, want)
			}
			if got := tr.Ranks[r].TotalPicos(); got != tr.FinalPicos[r] {
				t.Fatalf("p=%d rank %d: bucket times sum to %d, clock is %d", p, r, got, tr.FinalPicos[r])
			}
			for _, b := range tr.Ranks[r].Buckets() {
				if b.Phase != trace.FindSplitI || b.Level != 2 {
					t.Fatalf("p=%d rank %d: unexpected bucket %+v", p, r, b)
				}
			}
		}
	}
}

// Ballots are fixed-size by protocol: a rank showing up with a different
// length is a bug, not data, and must unwind as a ProtocolError.
func TestCandidateGatherLengthMismatchIsProtocolError(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	var mu sync.Mutex
	var got []error
	w.Run(func(c *Comm) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				got = append(got, r.(error))
				mu.Unlock()
			}
		}()
		CandidateGatherInto(c, make([]int32, 2+c.Rank()), nil)
	})
	if len(got) == 0 {
		t.Fatal("length-mismatched CandidateGather did not unwind")
	}
	var pe *ProtocolError
	if !errors.As(got[0], &pe) {
		t.Fatalf("unwound with %v (%T), want *ProtocolError", got[0], got[0])
	}
	if pe.Op != "CandidateGather" {
		t.Fatalf("ProtocolError.Op = %q, want CandidateGather", pe.Op)
	}
}

// TestCandidateGatherSteadyStateAllocs pins the pooled variant's
// steady-state allocation count at p=1 (collectives complete synchronously
// there, so AllocsPerRun can drive them directly) and checks it does not
// scale with the ballot size.
func TestCandidateGatherSteadyStateAllocs(t *testing.T) {
	measure := func(n int) float64 {
		w := NewWorld(1, timing.T3D())
		c := w.Rank(0)
		x := make([]int32, n)
		out := CandidateGatherInto(c, x, nil)
		return testing.AllocsPerRun(10, func() {
			out = CandidateGatherInto(c, x, out)
		})
	}
	small, large := measure(8), measure(4096)
	if small != large {
		t.Fatalf("allocs scale with ballot size: %v at n=8, %v at n=4096", small, large)
	}
	if small > 8 {
		t.Fatalf("steady-state CandidateGatherInto allocates %v per call", small)
	}
}
