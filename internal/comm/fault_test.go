package comm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/timing"
	"repro/internal/trace"
)

// oneShot is a minimal test injector: fire one action the first time the
// given physical rank enters an op, identity elsewhere.
type oneShot struct {
	rank  int
	act   FaultAction
	fired atomic.Bool
}

func (o *oneShot) Act(at Site) FaultAction {
	if at.Rank == o.rank && o.fired.CompareAndSwap(false, true) {
		return o.act
	}
	return FaultAction{}
}

func TestCrashUnwindsPeersWithRankFailure(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		w := NewWorld(p, timing.T3D())
		w.SetFaultInjector(&oneShot{rank: 1, act: FaultAction{Crash: true}})
		var mu sync.Mutex
		got := make(map[int]error)
		w.Run(func(c *Comm) {
			defer func() {
				if r := recover(); r != nil {
					if cr, ok := r.(Crashed); ok {
						panic(cr) // the runner absorbs the crashed rank
					}
					mu.Lock()
					got[c.Phys()] = r.(error)
					mu.Unlock()
				}
			}()
			c.Barrier()
			c.Barrier() // no survivor may get this far
			t.Errorf("rank %d passed the barrier despite a crashed peer", c.Phys())
		})
		if len(got) != p-1 {
			t.Fatalf("p=%d: %d survivors unwound, want %d", p, len(got), p-1)
		}
		for phys, err := range got {
			var rf *RankFailure
			if !errors.As(err, &rf) {
				t.Fatalf("p=%d rank %d: unwound with %v (%T), want *RankFailure", p, phys, err, err)
			}
			if len(rf.Lost) != 1 || rf.Lost[0] != 1 {
				t.Fatalf("p=%d rank %d: Lost = %v, want [1]", p, phys, rf.Lost)
			}
			if !rf.Recoverable() {
				t.Fatalf("p=%d rank %d: crash failure not recoverable: %v", p, phys, rf)
			}
		}
		// The dense size only changes at the Shrink rendezvous; the lost
		// set is visible immediately.
		if lost := w.Lost(); len(lost) != 1 || lost[0] != 1 {
			t.Fatalf("p=%d: Lost = %v, want [1]", p, lost)
		}
	}
}

func TestShrinkRenumbersDense(t *testing.T) {
	p := 4
	w := NewWorld(p, timing.T3D())
	w.SetFaultInjector(&oneShot{rank: 1, act: FaultAction{Crash: true}})
	var mu sync.Mutex
	denseByPhys := make(map[int]int)
	w.Run(func(c *Comm) {
		recovered := false
		defer func() {
			r := recover()
			if _, ok := r.(Crashed); ok {
				panic(r)
			}
			if r != nil && !recovered {
				t.Errorf("rank %d: unexpected second unwind %v", c.Phys(), r)
			}
		}()
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(Crashed); ok {
						panic(r)
					}
					recovered = true
				}
			}()
			c.Barrier()
			c.Barrier()
		}()
		if !recovered {
			return
		}
		lost := c.Shrink()
		if len(lost) != 1 || lost[0] != 1 {
			t.Errorf("rank %d: Shrink lost %v, want [1]", c.Phys(), lost)
		}
		mu.Lock()
		denseByPhys[c.Phys()] = c.Rank()
		mu.Unlock()
		// The shrunken world must be fully operational: collectives over
		// the dense ids, p2p both ways.
		sum := AllReduceSumInto(c, []int64{int64(c.Rank())}, nil)
		if want := int64(0 + 1 + 2); sum[0] != want {
			t.Errorf("rank %d: post-shrink AllReduce = %d, want %d", c.Phys(), sum[0], want)
		}
		if c.Size() != 3 {
			t.Errorf("rank %d: post-shrink Size = %d, want 3", c.Phys(), c.Size())
		}
		if c.Rank() == 0 {
			send(c, 1, []int32{42})
		} else if c.Rank() == 1 {
			if got := recv[int32](c, 0); got[0] != 42 {
				t.Errorf("post-shrink recv got %v", got)
			}
		}
		c.Barrier()
	})
	want := map[int]int{0: 0, 2: 1, 3: 2}
	for phys, dense := range want {
		if denseByPhys[phys] != dense {
			t.Fatalf("dense ids after shrink = %v, want %v", denseByPhys, want)
		}
	}
	if got := w.Lost(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("world Lost = %v, want [1]", got)
	}
}

func TestCrashRefusedOnLastRank(t *testing.T) {
	w := NewWorld(1, timing.T3D())
	w.SetFaultInjector(&oneShot{rank: 0, act: FaultAction{Crash: true}})
	ran := false
	w.Run(func(c *Comm) {
		c.Barrier() // the injected crash must be refused: last live rank
		ran = true
	})
	if !ran || w.LiveRanks() != 1 {
		t.Fatalf("sole rank crashed: ran=%v live=%d", ran, w.LiveRanks())
	}
}

func TestDropAndCorruptCharged(t *testing.T) {
	p := 2
	w := NewWorld(p, timing.T3D())
	var nth atomic.Int64
	w.SetFaultInjector(injectorFunc(func(at Site) FaultAction {
		if at.Rank != 0 {
			return FaultAction{}
		}
		switch nth.Add(1) {
		case 1:
			return FaultAction{Drop: true}
		case 2:
			return FaultAction{Corrupt: true}
		}
		return FaultAction{}
	}))
	w.Run(func(c *Comm) {
		c.Barrier()
		c.Barrier()
		c.Barrier()
	})
	st := w.Stats()[0]
	if st.Drops != 1 || st.Corruptions != 1 || st.Retries != 2 {
		t.Fatalf("Drops=%d Corruptions=%d Retries=%d, want 1/1/2", st.Drops, st.Corruptions, st.Retries)
	}
	// The retransmission penalty lands in the victim's clock and trace.
	tr := w.Trace()
	if tr.Ranks[0].TotalPicos() != tr.FinalPicos[0] {
		t.Fatalf("rank 0 bucket sum %d != clock %d after retry", tr.Ranks[0].TotalPicos(), tr.FinalPicos[0])
	}
	byName := make(map[string]int)
	for _, e := range tr.Ranks[0].Events() {
		byName[e.Name]++
	}
	if byName["fault:drop"] != 1 || byName["fault:corrupt"] != 1 || byName["fault:retry"] != 2 {
		t.Fatalf("rank 0 events = %v, want one drop, one corrupt, two retries", byName)
	}
}

func TestCollectiveCorruptAborts(t *testing.T) {
	p := 3
	w := NewWorld(p, timing.T3D())
	inj := &oneShot{rank: 2, act: FaultAction{Corrupt: true}}
	// Restrict to collective ops: let barriers pass untouched.
	w.SetFaultInjector(injectorFunc(func(at Site) FaultAction {
		if at.Op != OpCollective {
			return FaultAction{}
		}
		return inj.Act(at)
	}))
	var mu sync.Mutex
	errs := make(map[int]error)
	w.Run(func(c *Comm) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				errs[c.Phys()] = r.(error)
				mu.Unlock()
			}
		}()
		AllReduceSumInto(c, []int64{1}, nil)
	})
	var pe *ProtocolError
	if !errors.As(errs[2], &pe) {
		t.Fatalf("corrupting rank unwound with %v, want *ProtocolError", errs[2])
	}
	var rf *RankFailure
	if !errors.As(errs[0], &rf) {
		t.Fatalf("peer unwound with %v, want *RankFailure", errs[0])
	}
	if rf.Recoverable() {
		t.Fatalf("corruption-caused failure %v reported recoverable", rf)
	}
}

type injectorFunc func(Site) FaultAction

func (f injectorFunc) Act(at Site) FaultAction { return f(at) }

func TestStraggleAdvancesClock(t *testing.T) {
	p := 2
	const skew = int64(123_456_789)
	w := NewWorld(p, timing.T3D())
	w.SetFaultInjector(&oneShot{rank: 1, act: FaultAction{SkewPicos: skew}})
	w.Run(func(c *Comm) {
		c.Barrier()
	})
	if got := w.Stats()[1].Straggles; got != 1 {
		t.Fatalf("Straggles = %d, want 1", got)
	}
	// The barrier synchronises clocks, so both ranks end at >= skew.
	tr := w.Trace()
	for r, fin := range tr.FinalPicos {
		if fin < skew {
			t.Fatalf("rank %d clock %d did not absorb straggler skew %d", r, fin, skew)
		}
		if tr.Ranks[r].TotalPicos() != fin {
			t.Fatalf("rank %d bucket sum %d != clock %d under skew", r, tr.Ranks[r].TotalPicos(), fin)
		}
	}
}

func TestRecvTypeMismatchIsProtocolError(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	var got error
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			send(c, 1, []int64{1})
			return
		}
		defer func() {
			if r := recover(); r != nil {
				got = r.(error)
			}
		}()
		recv[float64](c, 0)
	})
	var pe *ProtocolError
	if !errors.As(got, &pe) {
		t.Fatalf("type-mismatched recv unwound with %v (%T), want *ProtocolError", got, got)
	}
	if pe.Op != "Recv" {
		t.Fatalf("ProtocolError.Op = %q, want Recv", pe.Op)
	}
}

func TestCollectiveLengthMismatchIsProtocolError(t *testing.T) {
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
		AllReduceSumInto(c, make([]int64, 1+c.Rank()), nil)
	})
	if len(got) == 0 {
		t.Fatal("length-mismatched AllReduce did not unwind")
	}
	var pe *ProtocolError
	if !errors.As(got[0], &pe) {
		t.Fatalf("unwound with %v (%T), want *ProtocolError", got[0], got[0])
	}
}

func TestRankOutOfRangeStillPanicsPlain(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	var got any
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		defer func() { got = recover() }()
		send(c, 7, []int64{1})
	})
	if got == nil {
		t.Fatal("out-of-range send did not panic")
	}
	if _, ok := got.(error); ok {
		t.Fatalf("out-of-range send panicked with typed error %v; programmer errors stay plain panics", got)
	}
}

func TestRecvRankOutOfRangePanicsPlain(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	var got any
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		defer func() { got = recover() }()
		recv[int64](c, -1)
	})
	if got == nil {
		t.Fatal("out-of-range recv did not panic")
	}
	if _, ok := got.(error); ok {
		t.Fatalf("out-of-range recv panicked with typed error %v; programmer errors stay plain panics", got)
	}
	if st := w.Stats()[0]; st.MsgsRecv != 0 {
		t.Fatalf("refused recv was counted: MsgsRecv = %d", st.MsgsRecv)
	}
}

func TestDetectionChargesTimeout(t *testing.T) {
	p := 3
	w := NewWorld(p, timing.T3D())
	w.SetDetectTimeout(250e-6)
	w.SetFaultInjector(&oneShot{rank: 0, act: FaultAction{Crash: true}})
	w.Run(func(c *Comm) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(Crashed); ok {
					panic(r)
				}
			}
		}()
		c.Barrier()
	})
	const wantPicos = int64(250e-6 * 1e12)
	tr := w.Trace()
	for _, phys := range []int{1, 2} {
		if tr.FinalPicos[phys] < wantPicos {
			t.Fatalf("rank %d clock %d below detection timeout %d", phys, tr.FinalPicos[phys], wantPicos)
		}
		found := false
		for _, e := range tr.Ranks[phys].Events() {
			if e.Name == "fault:detected" {
				found = true
			}
		}
		if !found {
			t.Fatalf("rank %d missing fault:detected event", phys)
		}
		if got := w.Stats()[phys].FailuresSeen; got != 1 {
			t.Fatalf("rank %d FailuresSeen = %d, want 1", phys, got)
		}
	}
}

func TestFaultSiteReportsPhaseAndOp(t *testing.T) {
	w := NewWorld(2, timing.T3D())
	var mu sync.Mutex
	var sites []Site
	w.SetFaultInjector(injectorFunc(func(at Site) FaultAction {
		mu.Lock()
		sites = append(sites, at)
		mu.Unlock()
		return FaultAction{}
	}))
	w.Run(func(c *Comm) {
		c.SetPhase(trace.FindSplitII, 3)
		c.Barrier()
		if c.Rank() == 0 {
			send(c, 1, []int64{1})
		} else {
			recv[int64](c, 0)
		}
	})
	seen := map[Op]bool{}
	for _, s := range sites {
		if s.Phase != trace.FindSplitII || s.Level != 3 {
			t.Fatalf("site %+v not tagged (FindSplitII, 3)", s)
		}
		seen[s.Op] = true
	}
	for _, op := range []Op{OpBarrier, OpSend, OpRecv} {
		if !seen[op] {
			t.Fatalf("ops seen %v missing %v", seen, op)
		}
	}
}
