package psort

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/timing"
)

// runSort distributes entries in blocks, sorts in parallel, and returns the
// per-rank results plus the world for stats inspection.
func runSort(p int, entries []dataset.ContEntry) ([][]dataset.ContEntry, *comm.World) {
	w := comm.NewWorld(p, timing.T3D())
	out := make([][]dataset.ContEntry, p)
	w.Run(func(c *comm.Comm) {
		lo, hi := dataset.BlockRange(len(entries), p, c.Rank())
		local := make([]dataset.ContEntry, hi-lo)
		copy(local, entries[lo:hi])
		out[c.Rank()] = Sort(c, local)
	})
	return out, w
}

func checkGloballySorted(t *testing.T, parts [][]dataset.ContEntry, want []dataset.ContEntry) {
	t.Helper()
	var flat []dataset.ContEntry
	for _, p := range parts {
		flat = append(flat, p...)
	}
	if len(flat) != len(want) {
		t.Fatalf("sorted output has %d entries, want %d", len(flat), len(want))
	}
	ref := make([]dataset.ContEntry, len(want))
	copy(ref, want)
	sort.Slice(ref, func(i, j int) bool { return less(ref[i], ref[j]) })
	for i := range flat {
		if flat[i] != ref[i] {
			t.Fatalf("position %d: got %+v want %+v", i, flat[i], ref[i])
		}
	}
}

func checkBalanced(t *testing.T, parts [][]dataset.ContEntry, n, p int) {
	t.Helper()
	for r, part := range parts {
		lo, hi := dataset.BlockRange(n, p, r)
		if len(part) != hi-lo {
			t.Fatalf("rank %d holds %d entries, want %d", r, len(part), hi-lo)
		}
	}
}

func randomEntries(rng *rand.Rand, n, distinct int) []dataset.ContEntry {
	out := make([]dataset.ContEntry, n)
	for i := range out {
		out[i] = dataset.ContEntry{
			Val: float64(rng.Intn(distinct)),
			Rid: int32(i),
			Cid: uint8(rng.Intn(2)),
		}
	}
	return out
}

func TestSortVariousSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		for _, n := range []int{0, 1, 5, p, p * p, 100, 257} {
			entries := randomEntries(rng, n, 50)
			parts, _ := runSort(p, entries)
			checkGloballySorted(t, parts, entries)
			checkBalanced(t, parts, n, p)
		}
	}
}

func TestSortAllDuplicates(t *testing.T) {
	// Every value identical: ordering falls back to rid; the result must
	// be the identity permutation by rid.
	n, p := 100, 4
	entries := make([]dataset.ContEntry, n)
	for i := range entries {
		entries[i] = dataset.ContEntry{Val: 7, Rid: int32(i)}
	}
	parts, _ := runSort(p, entries)
	pos := 0
	for _, part := range parts {
		for _, e := range part {
			if e.Rid != int32(pos) {
				t.Fatalf("position %d has rid %d", pos, e.Rid)
			}
			pos++
		}
	}
	checkBalanced(t, parts, n, p)
}

func TestSortAlreadySortedAndReversed(t *testing.T) {
	n, p := 64, 8
	asc := make([]dataset.ContEntry, n)
	desc := make([]dataset.ContEntry, n)
	for i := range asc {
		asc[i] = dataset.ContEntry{Val: float64(i), Rid: int32(i)}
		desc[i] = dataset.ContEntry{Val: float64(n - i), Rid: int32(i)}
	}
	for _, entries := range [][]dataset.ContEntry{asc, desc} {
		parts, _ := runSort(p, entries)
		checkGloballySorted(t, parts, entries)
		checkBalanced(t, parts, n, p)
	}
}

func TestSortSkewedDistribution(t *testing.T) {
	// 90% of values identical — sample sort must still terminate and
	// produce a balanced result (the shift fixes any sample skew).
	rng := rand.New(rand.NewSource(3))
	n, p := 500, 8
	entries := make([]dataset.ContEntry, n)
	for i := range entries {
		v := 1.0
		if rng.Float64() < 0.1 {
			v = rng.Float64() * 100
		}
		entries[i] = dataset.ContEntry{Val: v, Rid: int32(i)}
	}
	parts, _ := runSort(p, entries)
	checkGloballySorted(t, parts, entries)
	checkBalanced(t, parts, n, p)
}

func TestSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(8)
		n := rng.Intn(300)
		entries := randomEntries(rng, n, 1+rng.Intn(30))
		parts, _ := runSort(p, entries)
		var flat []dataset.ContEntry
		for _, part := range parts {
			flat = append(flat, part...)
		}
		if len(flat) != n {
			return false
		}
		for i := 1; i < len(flat); i++ {
			if less(flat[i], flat[i-1]) {
				return false
			}
		}
		// permutation check via rid multiset
		seen := make([]bool, n)
		for _, e := range flat {
			if seen[e.Rid] {
				return false
			}
			seen[e.Rid] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceFromSkewedOwnership(t *testing.T) {
	// All entries start on rank 0; rebalance must spread them evenly
	// while preserving order.
	p, n := 5, 103
	w := comm.NewWorld(p, timing.T3D())
	out := make([][]dataset.ContEntry, p)
	w.Run(func(c *comm.Comm) {
		var local []dataset.ContEntry
		if c.Rank() == 0 {
			local = make([]dataset.ContEntry, n)
			for i := range local {
				local[i] = dataset.ContEntry{Val: float64(i), Rid: int32(i)}
			}
		}
		out[c.Rank()] = Rebalance(c, local)
	})
	checkBalanced(t, out, n, p)
	pos := 0
	for _, part := range out {
		for _, e := range part {
			if e.Rid != int32(pos) {
				t.Fatalf("order not preserved at %d", pos)
			}
			pos++
		}
	}
}

func TestRebalanceEmpty(t *testing.T) {
	w := comm.NewWorld(3, timing.T3D())
	w.Run(func(c *comm.Comm) {
		if got := Rebalance(c, nil); len(got) != 0 {
			panic("empty rebalance should stay empty")
		}
	})
}

func TestSortAdvancesClockAndCommunicates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	entries := randomEntries(rng, 1000, 500)
	_, w := runSort(4, entries)
	if w.MaxClock() <= 0 {
		t.Fatal("sort should cost modeled time")
	}
	for r, s := range w.Stats() {
		if s.BytesSent == 0 {
			t.Fatalf("rank %d sent no bytes during parallel sort", r)
		}
	}
}

// tagged is a shift test entry naming its node and its position in that
// node's global order.
type tagged struct{ node, pos int32 }

// TestShiftSegmentedProperty: after Shift, rank r holds positions
// BlockRange(total_i, p, r) of every node i's global order, order
// preserved, and the returned lengths say so — over random per-rank,
// per-node lengths with empty segments, empty ranks, one node and many.
func TestShiftSegmentedProperty(t *testing.T) {
	ps := []int{1, 2, 3, 5, 8}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := ps[rng.Intn(len(ps))]
		nodes := 1
		if rng.Intn(3) > 0 {
			nodes += rng.Intn(12)
		}
		lens := make([][]int64, p)
		totals := make([]int64, nodes)
		in := make([][]tagged, p)
		for r := range lens {
			lens[r] = make([]int64, nodes)
			emptyRank := rng.Intn(4) == 0
			for i := range lens[r] {
				if !emptyRank && rng.Intn(3) > 0 {
					lens[r][i] = int64(rng.Intn(20))
				}
				for j := int64(0); j < lens[r][i]; j++ {
					in[r] = append(in[r], tagged{int32(i), int32(totals[i] + j)})
				}
				totals[i] += lens[r][i]
			}
		}
		w := comm.NewWorld(p, timing.T3D())
		out := make([][]tagged, p)
		outLens := make([][]int64, p)
		w.Run(func(c *comm.Comm) {
			out[c.Rank()], outLens[c.Rank()] = Shift(c, in[c.Rank()], lens[c.Rank()])
		})
		for r := 0; r < p; r++ {
			var want []tagged
			for i, total := range totals {
				lo, hi := dataset.BlockRange(int(total), p, r)
				if outLens[r][i] != int64(hi-lo) {
					t.Logf("p=%d rank %d node %d: length %d, want %d", p, r, i, outLens[r][i], hi-lo)
					return false
				}
				for pos := lo; pos < hi; pos++ {
					want = append(want, tagged{int32(i), int32(pos)})
				}
			}
			if len(out[r]) != len(want) {
				t.Logf("p=%d rank %d: %d entries, want %d", p, r, len(out[r]), len(want))
				return false
			}
			for k := range want {
				if out[r][k] != want[k] {
					t.Logf("p=%d rank %d entry %d: %+v, want %+v", p, r, k, out[r][k], want[k])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestShiftSendsSingleChunksUncopied: a destination receiving one chunk is
// sent a subslice of the input, so a one-node shift allocates about one
// copy of the list (the output), not two.
func TestShiftSendsSingleChunksUncopied(t *testing.T) {
	const p, n = 4, 1 << 16
	local := make([]dataset.ContEntry, n)
	for i := range local {
		local[i] = dataset.ContEntry{Val: float64(i), Rid: int32(i)}
	}
	w := comm.NewWorld(p, timing.T3D())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.Run(func(c *comm.Comm) {
		var mine []dataset.ContEntry
		if c.Rank() == 0 {
			mine = local // all entries start on rank 0
		}
		Rebalance(c, mine)
	})
	runtime.ReadMemStats(&after)
	listBytes := uint64(n * dataset.ContEntrySize)
	if got := after.TotalAlloc - before.TotalAlloc; got > listBytes*3/2 {
		t.Fatalf("shifting a %d-byte list allocated %d bytes: single-chunk sends are being copied", listBytes, got)
	}
}
