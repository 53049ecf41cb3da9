package scalparc

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/timing"
	"repro/internal/tree"
)

// countRef is the per-symbol loop countClasses and countChildren replace
// for two-symbol alphabets: one counter slot bumped per entry.
func countRef(counts []int64, syms []uint8) {
	for _, s := range syms {
		counts[s]++
	}
}

// checkCounts compares both counters with countRef on the symbols of one
// segment over an alphabet of k symbols, starting from non-zero counts so
// that accumulation is covered too.
func checkCounts(t *testing.T, k int, syms []uint8) {
	t.Helper()
	want := make([]int64, k)
	for j := range want {
		want[j] = int64(3 * j)
	}
	start := slices.Clone(want)
	countRef(want, syms)

	list := make([]dataset.ContEntry, len(syms))
	for j, s := range syms {
		list[j] = dataset.ContEntry{Val: float64(j), Rid: int32(j), Cid: s}
	}
	classes := slices.Clone(start)
	countClasses(classes, list)
	if !slices.Equal(classes, want) {
		t.Errorf("countClasses(k=%d, %v) = %v, want %v", k, syms, classes, want)
	}

	children := make([]int, k)
	for j, v := range start {
		children[j] = int(v)
	}
	countChildren(children, syms)
	for j := range want {
		if int64(children[j]) != want[j] {
			t.Errorf("countChildren(d=%d, %v) = %v, want %v", k, syms, children, want)
			break
		}
	}
}

// TestTwoSymbolCounts pins the register sums (two classes, two children)
// and the general loop (nc 3..5, multiway elevel splits) against countRef.
func TestTwoSymbolCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func(n, k int) []uint8 {
		s := make([]uint8, n)
		for j := range s {
			s[j] = uint8(rng.Intn(k))
		}
		return s
	}
	fill := func(n int, v uint8) []uint8 {
		s := make([]uint8, n)
		for j := range s {
			s[j] = v
		}
		return s
	}
	for _, k := range []int{2, 3, 4, 5} {
		for name, syms := range map[string][]uint8{
			"empty":  nil,
			"one 0":  {0},
			"one 1":  {1},
			"all 0":  fill(37, 0),
			"all 1":  fill(37, 1),
			"last":   fill(9, uint8(k-1)),
			"random": random(1000, k),
		} {
			t.Run(fmt.Sprintf("k=%d/%s", k, name), func(t *testing.T) { checkCounts(t, k, syms) })
		}
	}
}

// FuzzTwoSymbolCounts checks both counters against countRef on arbitrary
// segments: the first byte picks the alphabet (2..5 symbols), the rest are
// the entries' symbols.
func FuzzTwoSymbolCounts(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 1, 1, 1})
	f.Add([]byte{0, 1, 0, 1, 1, 0})
	f.Add([]byte{3, 4, 2, 0, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		k := int(data[0])%4 + 2
		syms := make([]uint8, len(data)-1)
		for j, b := range data[1:] {
			syms[j] = b % uint8(k)
		}
		checkCounts(t, k, syms)
	})
}

// partitionFixture is one rank's single-node, single-attribute list and a
// worker just complete enough for partition.
func partitionFixture(n int) (*worker, *lists, []dataset.ContEntry) {
	wk := &worker{c: comm.NewWorld(1, timing.T3D()).Rank(0), ar: &scratch{}, active: []*tree.Node{{}}}
	l := newLists(nil, 1)
	l.segs[0] = []seg{{off: 0, n: n}}
	live := make([]dataset.ContEntry, n)
	for j := range live {
		live[j] = dataset.ContEntry{Val: float64(j), Rid: int32(j)}
	}
	return wk, l, live
}

// runPartition splits the fixture's one node by cs into the children that
// childIndex names and returns the new list, or the panic value.
func runPartition(n int, cs []uint8, childIndex []int, nodeCount int) (out []dataset.ContEntry, segs []seg, panicked any) {
	wk, l, live := partitionFixture(n)
	var spare []dataset.ContEntry
	defer func() { panicked = recover() }()
	partition(wk, l, 0, &live, &spare, []bool{true}, func(int) []uint8 { return cs }, nodeCount, [][]int{childIndex})
	return live, l.segs[0], nil
}

// TestPartitionCounts checks partition's output layout on binary and
// multiway splits: each child's segment holds exactly its entries, in list
// order.
func TestPartitionCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{2, 5} {
		cs := make([]uint8, 200)
		for j := range cs {
			cs[j] = uint8(rng.Intn(d))
		}
		index := make([]int, d)
		for k := range index {
			index[k] = d - 1 - k // children land in reverse order
		}
		out, segs, p := runPartition(len(cs), cs, index, d)
		if p != nil {
			t.Fatalf("d=%d: panic %v", d, p)
		}
		for k := 0; k < d; k++ {
			var want []int32
			for j, ch := range cs {
				if int(ch) == k {
					want = append(want, int32(j))
				}
			}
			sg := segs[index[k]]
			var got []int32
			for _, e := range out[sg.off : sg.off+sg.n] {
				got = append(got, e.Rid)
			}
			if !slices.Equal(got, want) {
				t.Errorf("d=%d child %d: rids %v, want %v", d, k, got, want)
			}
		}
	}
}

// TestPartitionBinaryEmptyChildPanics: a binary child that is globally
// empty (no next-level node) must not receive a local entry, whichever
// counter counted it.
func TestPartitionBinaryEmptyChildPanics(t *testing.T) {
	for _, tc := range []struct {
		cs    []uint8
		index []int
	}{
		{[]uint8{1, 0, 1}, []int{-1, 0}},
		{[]uint8{1, 0, 1}, []int{0, -1}},
		{[]uint8{0, 0, 3, 4}, []int{0, 1, 2, -1, 3}},
	} {
		_, _, p := runPartition(len(tc.cs), tc.cs, tc.index, 4)
		if s, ok := p.(string); !ok || !strings.Contains(s, "local entries in globally empty child") {
			t.Errorf("cs %v into %v: panic %v, want the globally-empty-child panic", tc.cs, tc.index, p)
		}
	}
}

// TestPartitionChildOutOfRangeFails: a child byte >= d is never silently
// miscounted into a binary split's two children; the scatter fails on it.
func TestPartitionChildOutOfRangeFails(t *testing.T) {
	for _, cs := range [][]uint8{{2}, {0, 1, 2}, {2, 0, 1}, {1, 1, 3, 0}, {0, 255}} {
		if _, _, p := runPartition(len(cs), cs, []int{0, 1}, 2); p == nil {
			t.Errorf("cs %v: partition returned, want a failure on the out-of-range child", cs)
		}
	}
}
