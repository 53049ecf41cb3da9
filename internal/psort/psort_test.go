package psort

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/timing"
)

// runSort distributes entries in blocks, sorts in parallel, and returns the
// per-rank results plus the world for stats inspection.
func runSort(p int, entries []dataset.ContEntry) ([][]dataset.ContEntry, *comm.World) {
	out, w := runSortLists(p, [][]dataset.ContEntry{entries})
	return out[0], w
}

// runSortLists is runSort over several lists, every rank sorting them one
// after another through one Sorter, the way the engine's presort does.
func runSortLists(p int, lists [][]dataset.ContEntry) ([][][]dataset.ContEntry, *comm.World) {
	w := comm.NewWorld(p, timing.T3D())
	out := make([][][]dataset.ContEntry, len(lists))
	for i := range out {
		out[i] = make([][]dataset.ContEntry, p)
	}
	w.Run(func(c *comm.Comm) {
		var s Sorter
		for i, entries := range lists {
			lo, hi := dataset.BlockRange(len(entries), p, c.Rank())
			out[i][c.Rank()] = s.Sort(c, slices.Clone(entries[lo:hi]))
		}
	})
	return out, w
}

// comparatorSort is the reference order: a comparator sort, stable so that
// even entries comparing equal (only possible with repeated record ids)
// have one expected order. With distinct record ids, as in every list, it
// is slices.SortFunc's order.
func comparatorSort(entries []dataset.ContEntry) []dataset.ContEntry {
	ref := slices.Clone(entries)
	slices.SortStableFunc(ref, dataset.CompareContEntries)
	return ref
}

func checkGloballySorted(t *testing.T, parts [][]dataset.ContEntry, want []dataset.ContEntry) {
	t.Helper()
	flat := slices.Concat(parts...)
	if len(flat) != len(want) {
		t.Fatalf("sorted output has %d entries, want %d", len(flat), len(want))
	}
	ref := comparatorSort(want)
	for i := range flat {
		if !sameEntry(flat[i], ref[i]) {
			t.Fatalf("position %d: got %+v want %+v", i, flat[i], ref[i])
		}
	}
}

// sameEntry is entry equality that tells -0 from +0.
func sameEntry(a, b dataset.ContEntry) bool {
	return math.Float64bits(a.Val) == math.Float64bits(b.Val) && a.Rid == b.Rid && a.Cid == b.Cid
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
	n, p := 500, 8
	entries := skewedEntries(rand.New(rand.NewSource(3)), n)
	parts, _ := runSort(p, entries)
	checkGloballySorted(t, parts, entries)
	checkBalanced(t, parts, n, p)
}

// TestSortProperty: Sort's output, concatenated over the ranks, is the
// comparator sort of its input and every rank holds its block share — at
// p in {1, 2, 3, 5, 8}, on random, all-duplicate and skewed lists, in
// record-id order or shuffled, several lists through one Sorter per rank.
func TestSortProperty(t *testing.T) {
	ps := []int{1, 2, 3, 5, 8}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := ps[rng.Intn(len(ps))]
		lists := make([][]dataset.ContEntry, 1+rng.Intn(3))
		for i := range lists {
			n := rng.Intn(300)
			switch rng.Intn(3) {
			case 0:
				lists[i] = randomEntries(rng, n, 1+rng.Intn(30))
			case 1:
				lists[i] = randomEntries(rng, n, 1) // all duplicates
			default:
				lists[i] = skewedEntries(rng, n)
			}
			if rng.Intn(2) == 0 {
				rng.Shuffle(n, func(a, b int) { lists[i][a], lists[i][b] = lists[i][b], lists[i][a] })
			}
		}
		out, _ := runSortLists(p, lists)
		for i, parts := range out {
			flat := slices.Concat(parts...)
			if !slices.EqualFunc(flat, comparatorSort(lists[i]), sameEntry) {
				t.Logf("p=%d list %d (n=%d): output differs from the comparator sort", p, i, len(lists[i]))
				return false
			}
			for r, part := range parts {
				if lo, hi := dataset.BlockRange(len(flat), p, r); len(part) != hi-lo {
					t.Logf("p=%d list %d: rank %d holds %d entries, want %d", p, i, r, len(part), hi-lo)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// skewedEntries is a list in record order with about 90% of its values
// identical.
func skewedEntries(rng *rand.Rand, n int) []dataset.ContEntry {
	out := make([]dataset.ContEntry, n)
	for i := range out {
		v := 1.0
		if rng.Float64() < 0.1 {
			v = rng.Float64() * 100
		}
		out[i] = dataset.ContEntry{Val: v, Rid: int32(i), Cid: uint8(rng.Intn(2))}
	}
	return out
}

// TestSorterReusesScratch: a Sorter keeps its radix and merge buffers
// across lists, so each further list costs one list of allocation (the
// shifted output), not three (output, radix buffer, merge buffer).
func TestSorterReusesScratch(t *testing.T) {
	const p, n = 2, 1 << 15
	rng := rand.New(rand.NewSource(9))
	allocated := func(k int) uint64 {
		locals := make([][][]dataset.ContEntry, p)
		for range k {
			l := randomEntries(rng, n, n)
			for r := range locals {
				lo, hi := dataset.BlockRange(n, p, r)
				locals[r] = append(locals[r], l[lo:hi])
			}
		}
		w := comm.NewWorld(p, timing.T3D())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w.Run(func(c *comm.Comm) {
			var s Sorter
			for _, l := range locals[c.Rank()] {
				s.Sort(c, l)
			}
		})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const few, many = 2, 10
	perList := float64(allocated(many)-allocated(few)) / (many - few) / float64(n*dataset.ContEntrySize)
	if perList > 1.25 {
		t.Fatalf("each further list allocated %.2f lists: the scratch is not reused", perList)
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
		out[c.Rank()], _ = Shift(c, local, []int64{int64(len(local))})
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
		if got, _ := Shift[dataset.ContEntry](c, nil, []int64{0}); len(got) != 0 {
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
		Shift(c, mine, []int64{int64(len(mine))})
	})
	runtime.ReadMemStats(&after)
	listBytes := uint64(n * dataset.ContEntrySize)
	if got := after.TotalAlloc - before.TotalAlloc; got > listBytes*3/2 {
		t.Fatalf("shifting a %d-byte list allocated %d bytes: single-chunk sends are being copied", listBytes, got)
	}
}

// TestRadixSortCases: the local sort equals the comparator sort on the
// values and record ids that stress a key transform.
func TestRadixSortCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ordered := func(vals ...float64) []dataset.ContEntry {
		out := make([]dataset.ContEntry, len(vals))
		for i, v := range vals {
			out[i] = dataset.ContEntry{Val: v, Rid: int32(i), Cid: uint8(i % 3)}
		}
		return out
	}
	withRids := func(es []dataset.ContEntry, rids ...int32) []dataset.ContEntry {
		for i := range es {
			es[i].Rid = rids[i]
		}
		return es
	}
	var dupVals []float64
	for range 40 {
		dupVals = append(dupVals, 3, -1, 3, 3, 0.5, 3, -1, 3)
	}
	dups := ordered(dupVals...)
	for name, in := range map[string][]dataset.ContEntry{
		"empty":          nil,
		"one":            ordered(-2),
		"two in order":   ordered(1, 2),
		"two reversed":   ordered(2, 1),
		"two tied":       ordered(5, 5),
		"±0 tied rids":   ordered(0, negZero, 0, negZero, -1, 1),
		"±0 untied rids": withRids(ordered(negZero, 0, negZero, 0), 7, 2, 5, 1),
		"specials": ordered(math.Inf(1), math.MaxFloat64, 5e-324, -5e-324, 2.2250738585072014e-308,
			-math.MaxFloat64, math.Inf(-1), negZero, 0, -2.2250738585072009e-308, math.SmallestNonzeroFloat64),
		"heavy duplicates":    dups,
		"rid unordered":       withRids(ordered(4, 4, 1, 4, 1, 9), 30, 10, 20, 0, 50, 40),
		"negative rids":       withRids(ordered(2, 2, 2, -3, -3, 2), 5, -1, -7, 3, -2, 0),
		"extreme rids":        withRids(ordered(1, 1, 1, 1), math.MaxInt32, math.MinInt32, 0, -1),
		"duplicate rids tied": withRids(ordered(1, 1, negZero, 0, 1), 4, 4, 3, 3, 4),
	} {
		t.Run(name, func(t *testing.T) {
			want := comparatorSort(in)
			a := slices.Clone(in)
			got, spare := radixSort(a, make([]dataset.ContEntry, len(a)))
			if !slices.EqualFunc(got, want, sameEntry) {
				t.Fatalf("radix sort\n got %v\nwant %v", got, want)
			}
			if len(got) > 0 && &got[0] == &spare[0] {
				t.Fatal("the spare buffer is the sorted one")
			}
		})
	}
}

// FuzzSort: the local sort equals the comparator sort, and merging sorted
// chunks of the input equals it too. Each entry takes six bytes: two for
// the value's top 16 bits, two repeated through its other 48 (so ±0, ±Inf,
// ±MaxFloat64 and subnormals are all reachable and most digits vary), and
// a signed 16-bit record id (negative, repeated and unordered ids
// included). NaN cannot reach a list, so a NaN pattern becomes 1.
func FuzzSort(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x7f, 0xf0, 0, 0, 0, 2}, uint8(2))
	f.Add([]byte{0x7f, 0xef, 0xff, 0xff, 0, 3, 0xff, 0xef, 0xff, 0xff, 0xff, 0xfd, 0, 0, 0, 1, 0, 4}, uint8(3))
	f.Add(bytes.Repeat([]byte{0x40, 0x59, 0, 0, 0, 9}, 30), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, runs uint8) {
		in := make([]dataset.ContEntry, len(data)/6)
		for i := range in {
			b := data[6*i:]
			hi, lo := uint64(b[0])<<8|uint64(b[1]), uint64(b[2])<<8|uint64(b[3])
			v := math.Float64frombits(hi<<48 | lo<<32 | lo<<16 | lo)
			if math.IsNaN(v) {
				v = 1
			}
			in[i] = dataset.ContEntry{Val: v, Rid: int32(int16(uint16(b[4])<<8 | uint16(b[5]))), Cid: b[3] & 1}
		}
		want := comparatorSort(in)
		got, _ := radixSort(slices.Clone(in), make([]dataset.ContEntry, len(in)))
		if !slices.EqualFunc(got, want, sameEntry) {
			t.Fatalf("radix sort of %v\n got %v\nwant %v", in, got, want)
		}
		// Chunks sorted with distinct rids, so the merge's ties between
		// runs are the comparator's ties too.
		chunks := make([][]dataset.ContEntry, 1+int(runs)%8)
		for i := range in {
			in[i].Rid = int32(i)
			chunks[i%len(chunks)] = append(chunks[i%len(chunks)], in[i])
		}
		for j := range chunks {
			chunks[j] = comparatorSort(chunks[j])
		}
		merged := mergeRuns(make([]dataset.ContEntry, len(in)), chunks)
		if want := comparatorSort(in); !slices.EqualFunc(merged, want, sameEntry) {
			t.Fatalf("merge of %v\n got %v\nwant %v", chunks, merged, want)
		}
	})
}

// TestMergeRuns: the p-way merge equals concatenate-then-sort, empty runs
// and ties between runs included, at p up to 128.
func TestMergeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range []int{1, 2, 3, 5, 8, 128} {
		for trial := 0; trial < 20; trial++ {
			runs := make([][]dataset.ContEntry, p)
			rid := int32(0)
			for r := range runs {
				if rng.Intn(4) == 0 {
					continue // an empty run
				}
				for range rng.Intn(40) {
					runs[r] = append(runs[r], dataset.ContEntry{Val: float64(rng.Intn(10)), Rid: rid})
					rid++
				}
				runs[r] = comparatorSort(runs[r])
			}
			cat := slices.Concat(runs...)
			got := mergeRuns(make([]dataset.ContEntry, len(cat)), runs)
			if want := comparatorSort(cat); !slices.Equal(got, want) {
				t.Fatalf("p=%d trial %d: merge\n got %v\nwant %v", p, trial, got, want)
			}
		}
	}
}

// BenchmarkLocalSort is the local sort against the comparator sort it
// replaced, on 50 000 entries in record order with Quest-salary-like
// values (uniform in [20 000, 150 000)): the size of one rank's column
// at p=2 on a 100 000-record table.
func BenchmarkLocalSort(b *testing.B) {
	const n = 50_000
	rng := rand.New(rand.NewSource(1))
	in := make([]dataset.ContEntry, n)
	for i := range in {
		in[i] = dataset.ContEntry{Val: 20_000 + rng.Float64()*130_000, Rid: int32(i), Cid: uint8(rng.Intn(2))}
	}
	work, buf := make([]dataset.ContEntry, n), make([]dataset.ContEntry, n)
	b.Run("radix", func(b *testing.B) {
		b.SetBytes(n * dataset.ContEntrySize)
		for range b.N {
			copy(work, in)
			radixSort(work, buf)
		}
	})
	b.Run("comparator", func(b *testing.B) {
		b.SetBytes(n * dataset.ContEntrySize)
		for range b.N {
			copy(work, in)
			slices.SortFunc(work, dataset.CompareContEntries)
		}
	})
}

// BenchmarkParallelSort is MICRO: the presort (local sort, p-way merge and
// block shift) of 200k entries on 8 ranks.
func BenchmarkParallelSort(b *testing.B) {
	const n, p = 200_000, 8
	rng := rand.New(rand.NewSource(1))
	entries := make([]dataset.ContEntry, n)
	for i := range entries {
		entries[i] = dataset.ContEntry{Val: rng.Float64(), Rid: int32(i)}
	}
	w := comm.NewWorld(p, timing.T3D())
	b.SetBytes(n * dataset.ContEntrySize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		locals := make([][]dataset.ContEntry, p)
		for r := 0; r < p; r++ {
			lo, hi := dataset.BlockRange(n, p, r)
			locals[r] = append([]dataset.ContEntry(nil), entries[lo:hi]...)
		}
		b.StartTimer()
		w.Run(func(c *comm.Comm) {
			Sort(c, locals[c.Rank()])
		})
	}
}
