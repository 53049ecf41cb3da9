package comm

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/timing"
)

func testSizes() []int { return []int{1, 2, 3, 4, 7, 8, 16} }

func TestNewWorldValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0, timing.T3D())
}

func TestBarrierOrdering(t *testing.T) {
	// No rank may observe the post-barrier phase before every rank has
	// finished the pre-barrier phase.
	for _, p := range testSizes() {
		w := NewWorld(p, timing.T3D())
		var entered int64
		fail := int64(0)
		for round := 0; round < 10; round++ {
			w.Run(func(c *Comm) {
				atomic.AddInt64(&entered, 1)
				c.Barrier()
				if atomic.LoadInt64(&entered) != int64(p*(round+1)) {
					atomic.StoreInt64(&fail, 1)
				}
				c.Barrier()
			})
		}
		if fail != 0 {
			t.Fatalf("p=%d: a rank passed the barrier before all ranks arrived", p)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	w := NewWorld(5, timing.T3D())
	w.Run(func(c *Comm) {
		for i := 0; i < 200; i++ {
			c.Barrier()
		}
	})
	if got := w.Stats()[0].Barriers; got != 200 {
		t.Fatalf("rank 0 counted %d barriers, want 200", got)
	}
}

func TestAllToAllIdentityPermutation(t *testing.T) {
	for _, p := range testSizes() {
		w := NewWorld(p, timing.T3D())
		got := make([][][]int32, p)
		w.Run(func(c *Comm) {
			send := make([][]int32, p)
			for d := 0; d < p; d++ {
				send[d] = []int32{int32(c.Rank()*1000 + d)}
			}
			got[c.Rank()] = AllToAllInto(c, send, nil)
		})
		for me := 0; me < p; me++ {
			for src := 0; src < p; src++ {
				want := int32(src*1000 + me)
				if len(got[me][src]) != 1 || got[me][src][0] != want {
					t.Fatalf("p=%d: rank %d recv[%d]=%v, want [%d]", p, me, src, got[me][src], want)
				}
			}
		}
	}
}

func TestAllToAllVariableLengths(t *testing.T) {
	// Rank r sends r+d elements to rank d (including zero-length buffers
	// when r+d == 0). Every element must arrive exactly once, in order.
	p := 5
	w := NewWorld(p, timing.T3D())
	got := make([][][]int, p)
	w.Run(func(c *Comm) {
		send := make([][]int, p)
		for d := 0; d < p; d++ {
			n := (c.Rank() + d) % 4 // some buffers empty
			for i := 0; i < n; i++ {
				send[d] = append(send[d], c.Rank()*100+d*10+i)
			}
		}
		got[c.Rank()] = AllToAllInto(c, send, nil)
	})
	for me := 0; me < p; me++ {
		for src := 0; src < p; src++ {
			n := (src + me) % 4
			if len(got[me][src]) != n {
				t.Fatalf("rank %d from %d: got %d elements, want %d", me, src, len(got[me][src]), n)
			}
			for i, v := range got[me][src] {
				if want := src*100 + me*10 + i; v != want {
					t.Fatalf("rank %d from %d elem %d: got %d want %d", me, src, i, v, want)
				}
			}
		}
	}
}

func TestAllToAllConservesElements(t *testing.T) {
	// Property: any randomly generated traffic matrix is delivered intact.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(8)
		w := NewWorld(p, timing.T3D())
		sent := make([][][]int64, p)
		for r := range sent {
			sent[r] = make([][]int64, p)
			for d := range sent[r] {
				n := rng.Intn(20)
				for i := 0; i < n; i++ {
					sent[r][d] = append(sent[r][d], rng.Int63())
				}
			}
		}
		recv := make([][][]int64, p)
		w.Run(func(c *Comm) {
			recv[c.Rank()] = AllToAllInto(c, sent[c.Rank()], nil)
		})
		for me := 0; me < p; me++ {
			for src := 0; src < p; src++ {
				if len(recv[me][src]) != len(sent[src][me]) {
					return false
				}
				for i := range recv[me][src] {
					if recv[me][src][i] != sent[src][me][i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum(t *testing.T) {
	for _, p := range testSizes() {
		w := NewWorld(p, timing.T3D())
		results := make([][]int64, p)
		w.Run(func(c *Comm) {
			local := []int64{int64(c.Rank()), 1, int64(c.Rank() * c.Rank())}
			results[c.Rank()] = AllReduceSumInto(c, local, nil)
		})
		var wantSq int64
		for r := 0; r < p; r++ {
			wantSq += int64(r * r)
		}
		want := []int64{int64(p * (p - 1) / 2), int64(p), wantSq}
		for r := 0; r < p; r++ {
			for i := range want {
				if results[r][i] != want[i] {
					t.Fatalf("p=%d rank=%d elem %d: got %d want %d", p, r, i, results[r][i], want[i])
				}
			}
		}
	}
}

func TestAllReduceNonCommutativeDeterministic(t *testing.T) {
	// op is string-ish concatenation encoded in ints: (a,b) -> a*10+b.
	// Rank order must be respected: result = ((0*10+1)*10+2)... for p ranks.
	p := 4
	w := NewWorld(p, timing.T3D())
	results := make([][]int, p)
	w.Run(func(c *Comm) {
		results[c.Rank()] = AllReduceInto(c, []int{c.Rank()}, nil, func(a, b int) int { return a*10 + b })
	})
	want := 123 // ((0*10+1)*10+2)*10+3
	for r := 0; r < p; r++ {
		if results[r][0] != want {
			t.Fatalf("rank %d: got %d want %d", r, results[r][0], want)
		}
	}
}

func TestAllReduceLengthMismatchPanics(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	panicked := make([]bool, 2)
	w.Run(func(c *Comm) {
		defer func() { panicked[c.Rank()] = recover() != nil }()
		AllReduceSumInto(c, make([]int64, 1+c.Rank()), nil)
	})
	for r, p := range panicked {
		if !p {
			t.Fatalf("rank %d did not panic on length mismatch", r)
		}
	}
}

func TestExScanSum(t *testing.T) {
	for _, p := range testSizes() {
		w := NewWorld(p, timing.T3D())
		results := make([][]int64, p)
		w.Run(func(c *Comm) {
			results[c.Rank()] = ExScanSumInto(c, []int64{int64(c.Rank() + 1), 10}, nil)
		})
		for r := 0; r < p; r++ {
			want0 := int64(r * (r + 1) / 2) // sum of 1..r
			want1 := int64(10 * r)
			if results[r][0] != want0 || results[r][1] != want1 {
				t.Fatalf("p=%d rank=%d: got %v want [%d %d]", p, r, results[r], want0, want1)
			}
		}
	}
}

func TestReverseExScan(t *testing.T) {
	// Fold "first defined value to my right": rank r must see rank r+1's
	// value when defined, else the next defined one, else zero.
	type bound struct {
		Has uint8
		Val float64
	}
	firstDefined := func(a, b bound) bound {
		if a.Has == 1 {
			return a
		}
		return b
	}
	p := 6
	w := NewWorld(p, timing.T3D())
	// Ranks 2 and 5 contribute defined values.
	results := make([][]bound, p)
	w.Run(func(c *Comm) {
		var mine bound
		if c.Rank() == 2 {
			mine = bound{1, 2.5}
		}
		if c.Rank() == 5 {
			mine = bound{1, 5.5}
		}
		results[c.Rank()] = ReverseExScanInto(c, []bound{mine}, nil, firstDefined, bound{})
	})
	want := []bound{{1, 2.5}, {1, 2.5}, {1, 5.5}, {1, 5.5}, {1, 5.5}, {0, 0}}
	for r := 0; r < p; r++ {
		if results[r][0] != want[r] {
			t.Fatalf("rank %d got %+v want %+v", r, results[r][0], want[r])
		}
	}
}

func TestReverseExScanSumMirrorsExScan(t *testing.T) {
	p := 5
	w := NewWorld(p, timing.T3D())
	results := make([][]int64, p)
	w.Run(func(c *Comm) {
		results[c.Rank()] = ReverseExScanInto(c, []int64{int64(c.Rank() + 1)}, nil,
			func(a, b int64) int64 { return a + b }, 0)
	})
	for r := 0; r < p; r++ {
		var want int64
		for j := r + 1; j < p; j++ {
			want += int64(j + 1)
		}
		if results[r][0] != want {
			t.Fatalf("rank %d: got %d want %d", r, results[r][0], want)
		}
	}
	if results[p-1][0] != 0 {
		t.Fatal("last rank must receive the zero value")
	}
}

func TestReverseExScanLengthMismatchPanics(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	panicked := make([]bool, 2)
	w.Run(func(c *Comm) {
		defer func() { panicked[c.Rank()] = recover() != nil }()
		ReverseExScanInto(c, make([]int64, 1+c.Rank()), nil, func(a, b int64) int64 { return a + b }, 0)
	})
	if !panicked[0] {
		// Rank 1 folds nothing (no ranks to its right), so only ranks
		// with a right-hand neighbour are guaranteed to detect it.
		t.Fatal("rank 0 did not panic on length mismatch")
	}
}

func TestExScanRankZeroGetsZeroValue(t *testing.T) {
	w := NewWorld(3, timing.T3D())
	results := make([][]float64, 3)
	w.Run(func(c *Comm) {
		results[c.Rank()] = ExScanInto(c, []float64{float64(c.Rank()) + 0.5}, nil,
			func(a, b float64) float64 { return a + b }, 0)
	})
	if results[0][0] != 0 {
		t.Fatalf("rank 0 exclusive scan = %v, want 0", results[0][0])
	}
	if results[2][0] != 0.5+1.5 {
		t.Fatalf("rank 2 exclusive scan = %v, want 2.0", results[2][0])
	}
}

func TestAllgather(t *testing.T) {
	p := 6
	w := NewWorld(p, timing.T3D())
	results := make([][][]int32, p)
	w.Run(func(c *Comm) {
		// variable lengths: rank r contributes r elements
		local := make([]int32, c.Rank())
		for i := range local {
			local[i] = int32(c.Rank()*10 + i)
		}
		results[c.Rank()] = Allgather(c, local)
	})
	for me := 0; me < p; me++ {
		for r := 0; r < p; r++ {
			if len(results[me][r]) != r {
				t.Fatalf("rank %d sees %d elements from rank %d, want %d", me, len(results[me][r]), r, r)
			}
			for i, v := range results[me][r] {
				if want := int32(r*10 + i); v != want {
					t.Fatalf("rank %d from %d elem %d: got %d want %d", me, r, i, v, want)
				}
			}
		}
	}
}

// TestAllgatherChargesTheLargestContribution: each rank sends its
// contribution to p-1 peers and receives theirs, and the modeled cost is
// an allgather of the largest contribution.
func TestAllgatherChargesTheLargestContribution(t *testing.T) {
	p := 5
	model := timing.T3D()
	w := NewWorld(p, model)
	w.Run(func(c *Comm) {
		Allgather(c, make([]int16, c.Rank()+1)) // rank r sends 2(r+1) bytes
	})
	total := int64(0)
	for r := 0; r < p; r++ {
		total += int64(2 * (r + 1))
	}
	want := picos(model.Allgather(p, 2*p))
	for r, st := range w.Stats() {
		mine := int64(2 * (r + 1))
		if st.Allgathers != 1 || st.BytesSent != int64(p-1)*mine || st.BytesRecv != total-mine {
			t.Fatalf("rank %d: %d allgathers, bytes sent/recv %d/%d, want 1, %d/%d",
				r, st.Allgathers, st.BytesSent, st.BytesRecv, int64(p-1)*mine, total-mine)
		}
		if got := w.clocks[r]; got != want {
			t.Fatalf("rank %d clock %dps, want %dps", r, got, want)
		}
	}
}

// TestAllgatherEmptyContributions: a rank with nothing to contribute
// still has its (empty) entry, and empty contributions cost no bytes.
func TestAllgatherEmptyContributions(t *testing.T) {
	p := 4
	w := NewWorld(p, timing.T3D())
	results := make([][][]uint64, p)
	w.Run(func(c *Comm) {
		var local []uint64
		if c.Rank() == 2 {
			local = []uint64{7, 8}
		}
		results[c.Rank()] = Allgather(c, local)
	})
	for me, got := range results {
		if len(got) != p {
			t.Fatalf("rank %d got %d entries, want %d", me, len(got), p)
		}
		for r, v := range got {
			if r == 2 && (len(v) != 2 || v[0] != 7 || v[1] != 8) || r != 2 && len(v) != 0 {
				t.Fatalf("rank %d sees %v from rank %d", me, v, r)
			}
		}
	}
	for r, st := range w.Stats() {
		if r != 2 && st.BytesSent != 0 || r == 2 && st.BytesSent != int64(p-1)*16 {
			t.Fatalf("rank %d sent %d bytes", r, st.BytesSent)
		}
	}
}

func TestReduceOnlyRootReceives(t *testing.T) {
	p, root := 5, 3
	w := NewWorld(p, timing.T3D())
	results := make([][]int64, p)
	w.Run(func(c *Comm) {
		results[c.Rank()] = ReduceSum(c, root, []int64{int64(c.Rank())})
	})
	for r := 0; r < p; r++ {
		if r == root {
			if results[r] == nil || results[r][0] != int64(p*(p-1)/2) {
				t.Fatalf("root got %v, want [%d]", results[r], p*(p-1)/2)
			}
		} else if results[r] != nil {
			t.Fatalf("non-root rank %d got %v, want nil", r, results[r])
		}
	}
}

func TestReduceScatter(t *testing.T) {
	for _, p := range testSizes() {
		// Uneven, deterministic chunk sizes (including empty chunks).
		counts := make([]int, p)
		n := 0
		for r := range counts {
			counts[r] = (r*5 + 2) % 4
			n += counts[r]
		}
		w := NewWorld(p, timing.T3D())
		results := make([][]int64, p)
		w.Run(func(c *Comm) {
			x := make([]int64, n)
			for i := range x {
				x[i] = int64(c.Rank()*1000 + i)
			}
			results[c.Rank()] = ReduceScatterInto(c, x, nil, counts, func(a, b int64) int64 { return a + b })
		})
		off := 0
		for r := 0; r < p; r++ {
			if len(results[r]) != counts[r] {
				t.Fatalf("p=%d rank %d: chunk length %d, want %d", p, r, len(results[r]), counts[r])
			}
			for i, got := range results[r] {
				want := int64(p*(off+i)) + int64(1000*p*(p-1)/2)
				if got != want {
					t.Fatalf("p=%d rank %d slot %d: %d, want %d", p, r, i, got, want)
				}
			}
			off += counts[r]
		}
		// Byte accounting: each rank sends what it does not keep and
		// receives the other ranks' contributions to its own chunk.
		stats := w.Stats()
		es := sizeOf[int64]()
		for r := 0; r < p; r++ {
			wantSent := int64((n - counts[r]) * es)
			wantRecv := int64((p - 1) * counts[r] * es)
			if stats[r].BytesSent != wantSent || stats[r].BytesRecv != wantRecv {
				t.Fatalf("p=%d rank %d: sent/recv %d/%d, want %d/%d",
					p, r, stats[r].BytesSent, stats[r].BytesRecv, wantSent, wantRecv)
			}
			if stats[r].ReduceScatters != 1 {
				t.Fatalf("p=%d rank %d: ReduceScatters=%d", p, r, stats[r].ReduceScatters)
			}
		}
	}
}

func TestReduceScatterValidatesCounts(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched counts did not panic")
		}
	}()
	c := w.Rank(0)
	ReduceScatterSum32Into(c, []uint32{1, 2, 3}, nil, []int{1, 1}) // sums to 2, not 3
}

func TestSendRecv(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	var got []float64
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			send(c, 1, []float64{3.14, 2.71})
		} else {
			got = recv[float64](c, 0)
		}
	})
	if len(got) != 2 || got[0] != 3.14 || got[1] != 2.71 {
		t.Fatalf("got %v", got)
	}
}

func TestSendCopiesTheBuffer(t *testing.T) {
	// Regression: a sender mutating its buffer immediately after send
	// must not corrupt the in-flight message (the distance-doubling scan
	// does exactly this).
	w := NewWorld(2, timing.T3D())
	var got []int
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []int{1, 2, 3}
			send(c, 1, buf)
			buf[0], buf[1], buf[2] = 9, 9, 9
			c.Barrier()
		} else {
			c.Barrier() // receive strictly after the sender's mutation
			got = recv[int](c, 0)
		}
	})
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("message corrupted by post-send mutation: %v", got)
	}
}

func TestSendRecvExchange(t *testing.T) {
	p := 6
	w := NewWorld(p, timing.T3D())
	results := make([][]int, p)
	w.Run(func(c *Comm) {
		// Lower rank sends first: the mailbox buffering makes the other
		// order safe too, but a fixed one keeps the clocks deterministic.
		partner := (c.Rank() + p/2) % p
		if c.Rank() < partner {
			send(c, partner, []int{c.Rank()})
			results[c.Rank()] = recv[int](c, partner)
		} else {
			results[c.Rank()] = recv[int](c, partner)
			send(c, partner, []int{c.Rank()})
		}
	})
	for r := 0; r < p; r++ {
		partner := (r + p/2) % p
		if results[r][0] != partner {
			t.Fatalf("rank %d exchanged with %d, got %v", r, partner, results[r])
		}
	}
}

// TestSendRecvSelf: a rank sending to or receiving from itself is a
// programmer error (a local copy does the job), refused with a plain panic
// before any op is entered.
func TestSendRecvSelf(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	msgs := make([]string, 2)
	w.Run(func(c *Comm) {
		defer func() { msgs[c.Rank()] = fmt.Sprint(recover()) }()
		if c.Rank() == 0 {
			send(c, 0, []int{42})
		} else {
			recv[int](c, 1)
		}
	})
	for r, msg := range msgs {
		if !strings.Contains(msg, "self") {
			t.Errorf("rank %d: self message panicked with %q, want a refusal naming self", r, msg)
		}
	}
	if st := w.Stats(); st[0].MsgsSent != 0 || st[1].MsgsRecv != 0 {
		t.Fatalf("refused self messages were counted: %+v", st)
	}
}

// TestSendRecvCountsOps: one message is one op and its bytes on each
// side; the sender pays the startup latency, and the receiver finishes at
// the sender's stamp plus the transfer time.
func TestSendRecvCountsOps(t *testing.T) {
	model := timing.T3D()
	w := NewWorld(2, model)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			send(c, 1, []int64{1, 2, 3})
		} else {
			recv[int64](c, 0)
		}
	})
	const bytes = 3 * 8
	st := w.Stats()
	if st[0].MsgsSent != 1 || st[1].MsgsRecv != 1 || st[0].MsgsRecv != 0 || st[1].MsgsSent != 0 {
		t.Fatalf("Msgs sent/recv = %d/%d and %d/%d, want 1/0 and 0/1",
			st[0].MsgsSent, st[0].MsgsRecv, st[1].MsgsSent, st[1].MsgsRecv)
	}
	if st[0].BytesSent != bytes || st[1].BytesRecv != bytes || st[0].BytesRecv != 0 || st[1].BytesSent != 0 {
		t.Fatalf("bytes sent/recv = %d/%d and %d/%d, want %d/0 and 0/%d",
			st[0].BytesSent, st[0].BytesRecv, st[1].BytesSent, st[1].BytesRecv, bytes, bytes)
	}
	sent := picos(model.P2PLatency)
	if got := w.clocks[0]; got != sent {
		t.Fatalf("sender clock %dps, want the latency %dps", got, sent)
	}
	if got, want := w.clocks[1], sent+picos(bytes/model.P2PBandwidth); got != want {
		t.Fatalf("receiver clock %dps, want %dps", got, want)
	}
}

// TestSendIsAFaultSite: a crash injected where a rank enters send kills
// it there, and the peer blocked for its message unwinds with a
// *RankFailure naming it.
func TestSendIsAFaultSite(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	w.SetFaultInjector(&oneShot{rank: 1, act: FaultAction{Crash: true}})
	var survivorErr error
	w.Run(func(c *Comm) {
		defer func() {
			if r := recover(); r != nil {
				if cr, ok := r.(Crashed); ok {
					panic(cr)
				}
				survivorErr = r.(error)
			}
		}()
		if c.Rank() == 1 {
			send(c, 0, []int{42}) // the crash strikes here
		} else {
			recv[int](c, 1)
		}
	})
	var rf *RankFailure
	if !errors.As(survivorErr, &rf) {
		t.Fatalf("survivor unwound with %v (%T), want *RankFailure", survivorErr, survivorErr)
	}
	if len(rf.Lost) != 1 || rf.Lost[0] != 1 {
		t.Fatalf("Lost = %v, want [1]", rf.Lost)
	}
	if st := w.Stats(); st[1].Crashes != 1 || st[1].MsgsSent != 0 || st[0].MsgsRecv != 0 {
		t.Fatalf("Crashes = %d, Msgs sent/recv = %d/%d; want 1 crash and no message",
			st[1].Crashes, st[1].MsgsSent, st[0].MsgsRecv)
	}
}

// TestStraggleStrikesRecv: a skew injected where a rank enters recv
// delays it, and the transfer completes after the skew, not the send.
func TestStraggleStrikesRecv(t *testing.T) {
	model := timing.T3D()
	skew := 3 * picos(model.P2PLatency) // lands after the message was sent
	w := NewWorld(2, model)
	w.SetFaultInjector(&oneShot{rank: 1, act: FaultAction{SkewPicos: skew}})
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			send(c, 1, []int32{7})
		} else {
			recv[int32](c, 0)
		}
	})
	if got, want := w.clocks[1], skew+picos(4/model.P2PBandwidth); got != want {
		t.Fatalf("receiver clock %dps, want skew plus transfer %dps", got, want)
	}
	if st := w.Stats(); st[1].Straggles != 1 || st[0].Straggles != 0 {
		t.Fatalf("Straggles = %d/%d, want 0/1", st[0].Straggles, st[1].Straggles)
	}
}

// wireStub is a Transport that carries nothing: enough for a World to
// run its one local rank and reach an operation's backend primitive.
type wireStub struct{ rank, size int }

func (s wireStub) Rank() int                                  { return s.rank }
func (s wireStub) Size() int                                  { return s.size }
func (s wireStub) ExchangeEach(Tag, []Frame) ([]Frame, error) { panic("wireStub: no exchange") }
func (s wireStub) OnFailure(func(phys int))                   {}
func (s wireStub) Dead() []int                                { return nil }
func (s wireStub) Shrink(int64) ([]int, int64, error)         { panic("wireStub: no shrink") }
func (s wireStub) Kill()                                      {}
func (s wireStub) Close() error                               { return nil }

// wirePanic runs f on rank 0 of a two-rank wire world and returns what it
// panicked with.
func wirePanic(f func(c *Comm)) string {
	var msg string
	NewTransportWorld(wireStub{rank: 0, size: 2}, timing.T3D()).Run(func(c *Comm) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f(c)
	})
	return msg
}

// TestSendOnWirePanics: a wire carries collectives only, so point-to-point
// is refused there with a message naming the simulated machine.
func TestSendOnWirePanics(t *testing.T) {
	if msg := wirePanic(func(c *Comm) { send(c, 1, []int64{1}) }); !strings.Contains(msg, "simulated machine") {
		t.Errorf("send on a wire world panicked with %q, want a message naming the simulated machine", msg)
	}
}

func TestRecvOnWirePanics(t *testing.T) {
	if msg := wirePanic(func(c *Comm) { recv[int64](c, 1) }); !strings.Contains(msg, "simulated machine") {
		t.Errorf("recv on a wire world panicked with %q, want a message naming the simulated machine", msg)
	}
}

func TestSingleRankDegenerate(t *testing.T) {
	// Every collective must work (trivially) with p=1.
	w := NewWorld(1, timing.T3D())
	w.Run(func(c *Comm) {
		c.Barrier()
		r := AllToAllInto(c, [][]int{{1, 2, 3}}, nil)
		if len(r) != 1 || len(r[0]) != 3 {
			panic("p=1 alltoall")
		}
		if s := AllReduceSumInto(c, []int64{7}, nil)[0]; s != 7 {
			panic("p=1 allreduce")
		}
		if s := ExScanSumInto(c, []int64{7}, nil)[0]; s != 0 {
			panic("p=1 exscan")
		}
		if g := Allgather(c, []int{5}); len(g) != 1 || g[0][0] != 5 {
			panic("p=1 allgather")
		}
	})
}

func TestClocksSynchronizeAtCollectives(t *testing.T) {
	// One slow rank delays everybody: after a barrier all clocks must be
	// at least the slow rank's pre-barrier clock.
	p := 4
	w := NewWorld(p, timing.T3D())
	clocks := make([]float64, p)
	w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			c.Compute(1.0) // one second of local work
		}
		c.Barrier()
		clocks[c.Rank()] = c.Clock()
	})
	for r := 0; r < p; r++ {
		if clocks[r] < 1.0 {
			t.Fatalf("rank %d clock %.6f < 1.0 after barrier behind slow rank", r, clocks[r])
		}
	}
	// All ranks leave a barrier with the same clock.
	for r := 1; r < p; r++ {
		if clocks[r] != clocks[0] {
			t.Fatalf("clocks diverge after barrier: %v", clocks)
		}
	}
}

func TestClockMonotonic(t *testing.T) {
	w := NewWorld(3, timing.T3D())
	w.Run(func(c *Comm) {
		prev := c.Clock()
		for i := 0; i < 5; i++ {
			AllReduceSumInto(c, []int64{1}, nil)
			if c.Clock() < prev {
				panic("clock went backwards")
			}
			prev = c.Clock()
		}
	})
	if w.MaxClock() <= 0 {
		t.Fatal("MaxClock not advanced by collectives")
	}
}

func TestComputeNegativeIgnored(t *testing.T) {
	w := NewWorld(1, timing.T3D())
	w.Run(func(c *Comm) {
		c.Compute(-5)
		if c.Clock() != 0 {
			panic("negative compute changed clock")
		}
	})
}

func TestResetClocks(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	w.Run(func(c *Comm) { c.Compute(1); c.Barrier() })
	if w.MaxClock() <= 0 {
		t.Fatal("clock should be positive")
	}
	w.Reset()
	if w.MaxClock() != 0 {
		t.Fatal("Reset did not zero clocks")
	}
}

func TestStatsCountBytes(t *testing.T) {
	p := 4
	w := NewWorld(p, timing.T3D())
	w.Run(func(c *Comm) {
		send := make([][]int64, p) // 8 bytes per element
		for d := 0; d < p; d++ {
			send[d] = []int64{1, 2} // 16 bytes per destination
		}
		AllToAllInto(c, send, nil)
	})
	st := w.Stats()
	for r := 0; r < p; r++ {
		wantSent := int64((p - 1) * 16) // self-copy free
		if st[r].BytesSent != wantSent {
			t.Fatalf("rank %d sent %d bytes, want %d", r, st[r].BytesSent, wantSent)
		}
		if st[r].BytesRecv != wantSent {
			t.Fatalf("rank %d recv %d bytes, want %d", r, st[r].BytesRecv, wantSent)
		}
		if st[r].AllToAlls != 1 {
			t.Fatalf("rank %d counted %d alltoalls", r, st[r].AllToAlls)
		}
	}
}

func TestStatsConservation(t *testing.T) {
	// Global bytes sent == global bytes received for random traffic.
	rng := rand.New(rand.NewSource(42))
	p := 5
	w := NewWorld(p, timing.T3D())
	sent := make([][][]byte, p)
	for r := range sent {
		sent[r] = make([][]byte, p)
		for d := range sent[r] {
			sent[r][d] = make([]byte, rng.Intn(100))
		}
	}
	w.Run(func(c *Comm) {
		AllToAllInto(c, sent[c.Rank()], nil)
	})
	var totSent, totRecv int64
	for _, s := range w.Stats() {
		totSent += s.BytesSent
		totRecv += s.BytesRecv
	}
	if totSent != totRecv {
		t.Fatalf("sent %d != recv %d", totSent, totRecv)
	}
}

func TestStatsReset(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	w.Run(func(c *Comm) { AllReduceSumInto(c, []int64{1}, nil) })
	w.Reset()
	for r, s := range w.Stats() {
		if s != (Stats{}) {
			t.Fatalf("rank %d stats not reset: %+v", r, s)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{BytesSent: 1, BytesRecv: 2, AllToAlls: 3}
	a.Add(Stats{BytesSent: 10, BytesRecv: 20, AllToAlls: 30, Barriers: 1})
	if a.BytesSent != 11 || a.BytesRecv != 22 || a.AllToAlls != 33 || a.Barriers != 1 {
		t.Fatalf("Add result: %+v", a)
	}
}

func TestMemMeter(t *testing.T) {
	var m MemMeter
	m.Alloc(100)
	m.Alloc(50)
	if m.Current() != 150 || m.Peak() != 150 {
		t.Fatalf("cur=%d peak=%d", m.Current(), m.Peak())
	}
	m.Free(120)
	if m.Current() != 30 || m.Peak() != 150 {
		t.Fatalf("after free: cur=%d peak=%d", m.Current(), m.Peak())
	}
	m.Adjust(70)
	m.Adjust(-100)
	if m.Current() != 0 || m.Peak() != 150 {
		t.Fatalf("after adjust: cur=%d peak=%d", m.Current(), m.Peak())
	}
}

func TestMemMeterOverfreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-free did not panic")
		}
	}()
	var m MemMeter
	m.Alloc(10)
	m.Free(11)
}

func TestWorldMemoryAccessors(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	w.Run(func(c *Comm) {
		c.Mem().Alloc(int64(100 * (c.Rank() + 1)))
	})
	peaks := w.PeakMemory()
	if peaks[0] != 100 || peaks[1] != 200 {
		t.Fatalf("peaks=%v", peaks)
	}
	w.Reset()
	for _, pk := range w.PeakMemory() {
		if pk != 0 {
			t.Fatal("Reset did not zero peaks")
		}
	}
}

func TestRankAccessorsAndBounds(t *testing.T) {
	w := NewWorld(3, timing.T3D())
	if w.Size() != 3 {
		t.Fatalf("Size=%d", w.Size())
	}
	c := w.Rank(2)
	if c.Rank() != 2 || c.Size() != 3 {
		t.Fatalf("rank accessors wrong: %d %d", c.Rank(), c.Size())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Rank did not panic")
		}
	}()
	w.Rank(3)
}

func TestConsecutiveCollectivesNoCrosstalk(t *testing.T) {
	// Back-to-back collectives of different types must not read each
	// other's deposits (the double-barrier protocol under test).
	p := 4
	w := NewWorld(p, timing.T3D())
	ok := make([]bool, p)
	w.Run(func(c *Comm) {
		for i := 0; i < 50; i++ {
			s := AllReduceSumInto(c, []int64{int64(i)}, nil)[0]
			if s != int64(i*p) {
				return
			}
			g := Allgather(c, []int32{int32(c.Rank() + i)})
			for r := 0; r < p; r++ {
				if g[r][0] != int32(r+i) {
					return
				}
			}
		}
		ok[c.Rank()] = true
	})
	for r, o := range ok {
		if !o {
			t.Fatalf("rank %d observed crosstalk between consecutive collectives", r)
		}
	}
}
