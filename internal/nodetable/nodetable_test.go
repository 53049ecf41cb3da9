package nodetable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/timing"
)

func TestOwnedRangesTile(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{1, 2, p, p + 1, 3*p - 1, 100} {
			w := comm.NewWorld(p, timing.T3D())
			los := make([]int, p)
			his := make([]int, p)
			w.Run(func(c *comm.Comm) {
				nt := New(c, n)
				los[c.Rank()], his[c.Rank()] = nt.OwnedRange()
				nt.Free()
			})
			pos := 0
			for r := 0; r < p; r++ {
				if los[r] != pos && his[r] != los[r] {
					t.Fatalf("p=%d n=%d rank %d: range [%d,%d) does not continue at %d", p, n, r, los[r], his[r], pos)
				}
				if his[r] > los[r] {
					pos = his[r]
				}
			}
			if pos != n {
				t.Fatalf("p=%d n=%d: ranges cover [0,%d), want [0,%d)", p, n, pos, n)
			}
		}
	}
}

func TestNewPanicsOnEmpty(t *testing.T) {
	w := comm.NewWorld(1, timing.T3D())
	w.Run(func(c *comm.Comm) {
		defer func() {
			if recover() == nil {
				panic("New(0) did not panic")
			}
		}()
		New(c, 0)
	})
}

// roundTrip updates the table from distributed assignments and reads every
// record back from a different distribution of enquiries.
func roundTrip(t *testing.T, p, n int, childOf []uint8) {
	t.Helper()
	w := comm.NewWorld(p, timing.T3D())
	results := make([][]uint8, p)
	queries := make([][]int32, p)
	w.Run(func(c *comm.Comm) {
		nt := New(c, n)
		defer nt.Free()
		// Each rank updates the rids congruent to its rank mod p
		// (deliberately different from the table's block ownership).
		var as []Assignment
		for rid := c.Rank(); rid < n; rid += p {
			as = append(as, Assignment{Rid: int32(rid), Child: childOf[rid]})
		}
		nt.Update(as)
		// Each rank then asks for a strided, shuffled set of rids.
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		var q []int32
		for rid := 0; rid < n; rid++ {
			if rng.Intn(2) == 0 {
				q = append(q, int32(rid))
			}
		}
		rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
		queries[c.Rank()] = q
		results[c.Rank()] = nt.Lookup(q)
	})
	for r := 0; r < p; r++ {
		for i, rid := range queries[r] {
			if results[r][i] != childOf[rid] {
				t.Fatalf("p=%d n=%d rank %d: rid %d -> %d, want %d", p, n, r, rid, results[r][i], childOf[rid])
			}
		}
	}
}

func TestUpdateLookupRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{1, p, 17, 100} {
			childOf := make([]uint8, n)
			for i := range childOf {
				childOf[i] = uint8(rng.Intn(5))
			}
			roundTrip(t, p, n, childOf)
		}
	}
}

func TestUpdateOverwrites(t *testing.T) {
	// A second level's updates must replace the first's.
	p, n := 3, 30
	w := comm.NewWorld(p, timing.T3D())
	ok := make([]bool, p)
	w.Run(func(c *comm.Comm) {
		nt := New(c, n)
		defer nt.Free()
		var first, second []Assignment
		for rid := c.Rank(); rid < n; rid += p {
			first = append(first, Assignment{Rid: int32(rid), Child: 1})
			second = append(second, Assignment{Rid: int32(rid), Child: 2})
		}
		nt.Update(first)
		nt.Update(second)
		var all []int32
		for rid := 0; rid < n; rid++ {
			all = append(all, int32(rid))
		}
		got := nt.Lookup(all)
		for _, g := range got {
			if g != 2 {
				return
			}
		}
		ok[c.Rank()] = true
	})
	for r, o := range ok {
		if !o {
			t.Fatalf("rank %d saw stale values", r)
		}
	}
}

func TestSkewedUpdatesAllFromOneRank(t *testing.T) {
	// The pathological case of section 3.3.2: one processor sources every
	// update (far more than N/p). Blocked rounds must deliver all of them.
	p, n := 4, 200
	childOf := make([]uint8, n)
	for i := range childOf {
		childOf[i] = uint8(i % 3)
	}
	w := comm.NewWorld(p, timing.T3D())
	results := make([][]uint8, p)
	w.Run(func(c *comm.Comm) {
		nt := New(c, n)
		defer nt.Free()
		var as []Assignment
		if c.Rank() == 0 {
			for rid := 0; rid < n; rid++ {
				as = append(as, Assignment{Rid: int32(rid), Child: childOf[rid]})
			}
		}
		nt.Update(as)
		var all []int32
		for rid := 0; rid < n; rid++ {
			all = append(all, int32(rid))
		}
		results[c.Rank()] = nt.Lookup(all)
	})
	for r := 0; r < p; r++ {
		for rid := 0; rid < n; rid++ {
			if results[r][rid] != childOf[rid] {
				t.Fatalf("rank %d: rid %d -> %d want %d", r, rid, results[r][rid], childOf[rid])
			}
		}
	}
}

func TestSkewedUpdateUsesMultipleRounds(t *testing.T) {
	// With n=200, p=4, chunk=50, rank 0 sending 200 updates needs 4
	// send rounds; each round is one AllToAll plus one AllReduce.
	p, n := 4, 200
	w := comm.NewWorld(p, timing.T3D())
	w.Run(func(c *comm.Comm) {
		nt := New(c, n)
		defer nt.Free()
		var as []Assignment
		if c.Rank() == 0 {
			for rid := 0; rid < n; rid++ {
				as = append(as, Assignment{Rid: int32(rid), Child: 1})
			}
		}
		nt.Update(as)
	})
	st := w.Stats()
	if st[0].AllToAlls < 4 {
		t.Fatalf("skewed update used %d all-to-alls, want >= 4 blocked rounds", st[0].AllToAlls)
	}
	// No receiver can get more than its slab per level regardless of skew.
	for r := 1; r < p; r++ {
		if st[r].BytesRecv > int64(n/p)*wireUpdateSize+64 {
			t.Fatalf("rank %d received %d bytes, exceeding the O(N/p) bound", r, st[r].BytesRecv)
		}
	}
}

func TestLookupEmptyOnSomeRanks(t *testing.T) {
	p, n := 3, 12
	w := comm.NewWorld(p, timing.T3D())
	w.Run(func(c *comm.Comm) {
		nt := New(c, n)
		defer nt.Free()
		var as []Assignment
		if c.Rank() == 1 {
			for rid := 0; rid < n; rid++ {
				as = append(as, Assignment{Rid: int32(rid), Child: 9})
			}
		}
		nt.Update(as)
		var q []int32
		if c.Rank() == 2 {
			q = []int32{0, 11, 5}
		}
		got := nt.Lookup(q)
		if c.Rank() == 2 {
			for i, g := range got {
				if g != 9 {
					panic(i)
				}
			}
		} else if len(got) != 0 {
			panic("non-querying rank got results")
		}
	})
}

func TestLookupDuplicateRids(t *testing.T) {
	p, n := 2, 10
	w := comm.NewWorld(p, timing.T3D())
	w.Run(func(c *comm.Comm) {
		nt := New(c, n)
		defer nt.Free()
		var as []Assignment
		if c.Rank() == 0 {
			for rid := 0; rid < n; rid++ {
				as = append(as, Assignment{Rid: int32(rid), Child: uint8(rid)})
			}
		}
		nt.Update(as)
		got := nt.Lookup([]int32{3, 3, 7, 3})
		want := []uint8{3, 3, 7, 3}
		for i := range want {
			if got[i] != want[i] {
				panic("duplicate rid lookup wrong")
			}
		}
	})
}

func TestMemoryScalesWithSlab(t *testing.T) {
	// Peak tracked memory per rank must be close to the slab size plus
	// transient buffers — never O(N) for p > 1.
	n := 1000
	for _, p := range []int{2, 4, 8} {
		w := comm.NewWorld(p, timing.T3D())
		w.Run(func(c *comm.Comm) {
			nt := New(c, n)
			defer nt.Free()
			var as []Assignment
			lo, hi := c.Rank()*n/p, (c.Rank()+1)*n/p
			for rid := lo; rid < hi; rid++ {
				as = append(as, Assignment{Rid: int32(rid), Child: 1})
			}
			nt.Update(as)
		})
		chunk := (n + p - 1) / p
		for r, peak := range w.PeakMemory() {
			// slab + in-flight send and receive buffers, all O(N/p)
			bound := int64(chunk) * (1 + 2*wireUpdateSize)
			if peak > bound+64 {
				t.Fatalf("p=%d rank %d: peak %d exceeds O(N/p) bound %d", p, r, peak, bound)
			}
		}
	}
}

func TestBlockingBoundsSkewedSenderMemory(t *testing.T) {
	// Ablation for section 3.3.2: with one rank sourcing all N updates,
	// blocked rounds keep its in-flight buffers at O(N/p); disabling
	// blocking makes them O(N).
	p, n := 4, 400
	peak := func(block int) int64 {
		w := comm.NewWorld(p, timing.T3D())
		w.Run(func(c *comm.Comm) {
			nt := NewWithBlock(c, n, block)
			defer nt.Free()
			var as []Assignment
			if c.Rank() == 0 {
				for rid := 0; rid < n; rid++ {
					as = append(as, Assignment{Rid: int32(rid), Child: 1})
				}
			}
			nt.Update(as)
		})
		return w.PeakMemory()[0]
	}
	blocked := peak(n / p)
	unblocked := peak(0)
	if blocked >= unblocked {
		t.Fatalf("blocking should reduce peak sender memory: blocked %d, unblocked %d", blocked, unblocked)
	}
	// The send buffer shrinks p-fold; slab and receive buffer are fixed,
	// so the overall peak improves by a smaller (but still large) factor.
	if float64(unblocked) < 2*float64(blocked) {
		t.Fatalf("expected a large reduction: blocked %d, unblocked %d", blocked, unblocked)
	}
}

func TestUnblockedSingleRound(t *testing.T) {
	p, n := 4, 100
	w := comm.NewWorld(p, timing.T3D())
	w.Run(func(c *comm.Comm) {
		nt := NewWithBlock(c, n, 0)
		defer nt.Free()
		var as []Assignment
		if c.Rank() == 0 {
			for rid := 0; rid < n; rid++ {
				as = append(as, Assignment{Rid: int32(rid), Child: 3})
			}
		}
		nt.Update(as)
		got := nt.Lookup([]int32{0, int32(n - 1)})
		if got[0] != 3 || got[1] != 3 {
			panic("unblocked update lost data")
		}
	})
	if a := w.Stats()[0].AllToAlls; a != 3 { // 1 update round + 2 lookup steps
		t.Fatalf("unblocked update should use one round; saw %d all-to-alls total", a)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(6)
		n := 1 + rng.Intn(80)
		childOf := make([]uint8, n)
		for i := range childOf {
			childOf[i] = uint8(rng.Intn(7))
		}
		w := comm.NewWorld(p, timing.T3D())
		ok := true
		w.Run(func(c *comm.Comm) {
			nt := New(c, n)
			defer nt.Free()
			var as []Assignment
			for rid := 0; rid < n; rid++ {
				if rid%p == c.Rank() {
					as = append(as, Assignment{Rid: int32(rid), Child: childOf[rid]})
				}
			}
			nt.Update(as)
			var q []int32
			for rid := n - 1; rid >= 0; rid-- {
				q = append(q, int32(rid))
			}
			got := nt.Lookup(q)
			for i, rid := range q {
				if got[i] != childOf[rid] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// mustProtocolError runs f on a 1-rank world and asserts it panics with a
// typed *comm.ProtocolError whose Op matches. A single rank keeps the
// corrupt-index panic from stranding peers mid-collective.
func mustProtocolError(t *testing.T, wantOp string, f func(nt *Table)) {
	t.Helper()
	w := comm.NewWorld(1, timing.T3D())
	w.Run(func(c *comm.Comm) {
		nt := New(c, 5)
		defer func() {
			pe, ok := recover().(*comm.ProtocolError)
			if !ok {
				t.Errorf("%s: want *comm.ProtocolError panic, got %v", wantOp, pe)
				return
			}
			if pe.Op != wantOp {
				t.Errorf("Op = %q, want %q", pe.Op, wantOp)
			}
		}()
		f(nt)
	})
}

// A corrupted record id that still hashes to a valid owner but names a slot
// outside the slab must surface as a typed data fault, not a slice panic.
func TestUpdateCorruptIndexIsProtocolError(t *testing.T) {
	mustProtocolError(t, "NodeTable.Update", func(nt *Table) {
		nt.Update([]Assignment{{Rid: -1, Child: 1}})
	})
}

func TestLookupCorruptIndexIsProtocolError(t *testing.T) {
	mustProtocolError(t, "NodeTable.Lookup", func(nt *Table) {
		nt.Lookup([]int32{-1})
	})
}

// BenchmarkNodeTable is MICRO: the distributed node table's update +
// enquiry round trip (the parallel hashing paradigm), 100k records on 8
// ranks.
func BenchmarkNodeTable(b *testing.B) {
	const n, p = 100_000, 8
	w := comm.NewWorld(p, timing.T3D())
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *comm.Comm) {
			nt := New(c, n)
			defer nt.Free()
			lo, hi := dataset.BlockRange(n, p, c.Rank())
			as := make([]Assignment, 0, hi-lo)
			rids := make([]int32, 0, hi-lo)
			for rid := lo; rid < hi; rid++ {
				as = append(as, Assignment{Rid: int32(rid), Child: uint8(rid % 2)})
				rids = append(rids, int32(n-1-rid))
			}
			nt.Update(as)
			nt.Lookup(rids)
		})
	}
}
