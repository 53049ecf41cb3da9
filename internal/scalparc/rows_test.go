package scalparc

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/tree"
)

// TestBinCodeRule pins the rule PerformSplit relies on: a row goes left
// under "A <= cuts[b]" exactly when its code is <= b, at every boundary b.
func TestBinCodeRule(t *testing.T) {
	x := &dataset.Schema{Classes: []string{"a", "b"}, Attrs: []dataset.Attribute{{Name: "x", Kind: dataset.Continuous}}}
	for _, tc := range []struct {
		name string
		cuts []float64
		v    float64
	}{
		{"equal to a cut", []float64{1, 3, 7}, 3},
		{"equal to the first cut", []float64{1, 3, 7}, 1},
		{"equal to the last cut", []float64{1, 3, 7}, 7},
		{"between cuts", []float64{1, 3, 7}, 5},
		{"below the first cut", []float64{1, 3, 7}, -2},
		{"above the last cut", []float64{1, 3, 7}, 9},
		{"constant column", []float64{5}, 5},
		{"negative zero on a zero cut", []float64{0}, math.Copysign(0, -1)},
	} {
		tab := handTable(x, 1, func(int) ([]float64, int) { return []float64{tc.v}, 0 })
		code := int(binCodes(tab, 0, 1, [][]float64{tc.cuts})[0])
		for b, cut := range tc.cuts {
			if (code <= b) != (tc.v <= cut) {
				t.Errorf("%s: v=%v has code %d, but code <= %d is %v while v <= cuts[%d]=%v is %v",
					tc.name, tc.v, code, b, code <= b, b, cut, tc.v <= cut)
			}
		}
	}

	// A constant column's cuts, sampled the way the presort samples them,
	// are the constant alone: every row codes 0, and "A <= constant" sends
	// every row left.
	tab := handTable(x, 9, func(int) ([]float64, int) { return []float64{4}, 0 })
	cuts := serialCuts(tab, 0, 4)
	if !slices.Equal(cuts, []float64{4}) {
		t.Fatalf("constant column cuts %v, want [4]", cuts)
	}
	for r, code := range binCodes(tab, 0, 9, [][]float64{cuts}) {
		if code != 0 {
			t.Fatalf("constant column row %d codes %d", r, code)
		}
	}

	// A categorical value codes as itself.
	cat := &dataset.Schema{Classes: []string{"a", "b"}, Attrs: []dataset.Attribute{{Name: "c", Kind: dataset.Categorical, Values: []string{"p", "q", "r"}}}}
	tab = handTable(cat, 3, func(i int) ([]float64, int) { return []float64{float64(2 - i)}, 0 })
	if got := binCodes(tab, 0, 3, [][]float64{nil}); !slices.Equal(got, []uint16{2, 1, 0}) {
		t.Fatalf("categorical codes %v, want [2 1 0]", got)
	}
}

// cutValue decodes one byte into a finite value from a small domain, so
// fuzzed values and cuts collide often: the top six codes are the edge
// values (±0, ±MaxFloat64, the smallest subnormal, 1), the rest are
// int8(c)/4, quarters between -32 and 31.75.
func cutValue(c byte) float64 {
	edges := [...]float64{math.Copysign(0, -1), 0, -math.MaxFloat64, math.MaxFloat64, math.SmallestNonzeroFloat64, 1}
	if c >= 0xfa {
		return edges[c-0xfa]
	}
	return float64(int8(c)) / 4
}

// FuzzSearchCuts: histogram.BinOf's branchless search, which binCodes
// runs, equals the library binary search sort.SearchFloat64s on every
// finite value. Cuts come from
// histogram.Cuts over fuzzed, sorted samples (zero or more cuts), and every
// fuzzed value is searched, so values on a cut, between cuts, past either
// end, at ±MaxFloat64, and -0 against +0 all occur.
func FuzzSearchCuts(f *testing.F) {
	f.Add([]byte{}, []byte{4})                       // no cuts
	f.Add([]byte{4}, []byte{0, 4, 8})                // below, at, past one cut
	f.Add([]byte{0xfa, 0xfb}, []byte{0xfa, 0xfb})    // -0 and +0 on one cut
	f.Add([]byte{0xfa}, []byte{0xfb, 0xfe, 0xfc})    // a -0 cut: +0, the smallest subnormal, -MaxFloat64
	f.Add([]byte{0xfc, 0xfd}, []byte{0xfc, 0xfd, 7}) // cuts at ±MaxFloat64
	f.Add([]byte{1, 2, 2, 3, 9, 40}, []byte{0x80, 1, 2, 3, 7, 40, 41, 0x7f})
	f.Fuzz(func(t *testing.T, samples, vals []byte) {
		sv := make([]float64, len(samples))
		for i, c := range samples {
			sv[i] = cutValue(c)
		}
		slices.SortStableFunc(sv, cmp.Compare[float64])
		cuts := histogram.Cuts(sv)
		for _, c := range vals {
			v := cutValue(c)
			if got, want := histogram.BinOf(cuts, v), sort.SearchFloat64s(cuts, v); got != want {
				t.Fatalf("BinOf(%v, %v) = %d, want %d", cuts, v, got, want)
			}
		}
	})
}

// serialCuts samples attribute a's cuts from its whole column, sorted on one
// machine in (value, rid) order, at the presort's quantile positions.
func serialCuts(tab *dataset.Table, a, bins int) []float64 {
	col := slices.Clone(tab.ContColumn(a))
	slices.SortStableFunc(col, cmp.Compare[float64])
	var vals []float64
	for _, pos := range histogram.CutPositions(len(col), bins) {
		vals = append(vals, col[pos])
	}
	return histogram.Cuts(vals)
}

// TestRowHistogramsMatchSerialCount is the row pass's differential: at
// every level, the local histograms FindSplitI counts on p ranks sum to a
// one-machine (node, attribute, bin, class) count of the same table, whose
// rows are routed to the level's nodes through the tree built so far and
// binned by cuts sampled from the sorted columns.
func TestRowHistogramsMatchSerialCount(t *testing.T) {
	tab := quest9(3, 11, 700, splitter.Config{}).tab(t)
	cfg := splitter.Config{MaxDepth: 5}.Normalize()
	opts := Options{Split: SplitBinned, Bins: 16}
	na, nc := tab.Schema.NumAttrs(), tab.Schema.NumClasses()
	cuts := make([][]float64, na)
	for _, a := range tab.Schema.ContIndices() {
		cuts[a] = serialCuts(tab, a, opts.Bins)
	}
	for _, p := range []int{1, 2, 3} {
		var mu sync.Mutex
		sums := map[int][]uint32{}       // level -> Σ over ranks of the local histograms
		fronts := map[int][]*tree.Node{} // level -> rank 0's active nodes
		var root *tree.Node
		w := comm.NewWorld(p, timing.T3D())
		w.Run(func(c *comm.Comm) {
			wk := newWorker(c, tab, cfg, DistributedNodeTable, opts)
			wk.presort(tab)
			f := wk.recs.(*rowStore)
			if c.Rank() == 0 && !slices.EqualFunc(f.cuts, cuts, slices.Equal[[]float64]) {
				t.Errorf("p=%d: the engine's cuts %v differ from the serial ones %v", p, f.cuts, cuts)
			}
			for level := 0; len(wk.active) > 0; level++ {
				all := make([]int, len(wk.active))
				for i := range all {
					all[i] = i
				}
				layout := histogram.NewLayout(len(all), f.binCounts(wk), nc)
				hist := make([]uint32, layout.Total)
				f.accumulateHist(wk, layout, all, hist)
				mu.Lock()
				if sums[level] == nil {
					sums[level] = make([]uint32, layout.Total)
				}
				for j, v := range hist {
					sums[level][j] += v
				}
				if c.Rank() == 0 {
					fronts[level] = slices.Clone(wk.active)
				}
				mu.Unlock()
				wk.runLevel()
			}
			if c.Rank() == 0 {
				root = wk.root
			}
			wk.free()
		})
		if len(fronts) < 3 {
			t.Fatalf("p=%d: only %d levels; the differential needs a deeper tree", p, len(fronts))
		}
		for level, front := range fronts {
			index := map[*tree.Node]int{}
			for i, n := range front {
				index[n] = i
			}
			bins := make([]int, na)
			for a, attr := range tab.Schema.Attrs {
				bins[a] = len(cuts[a]) + 1
				if attr.Kind == dataset.Categorical {
					bins[a] = attr.Cardinality()
				}
			}
			layout := histogram.NewLayout(len(front), bins, nc)
			want := make([]uint32, layout.Total)
			for r := range tab.NumRows() {
				n := routeRow(root, tab, r, level)
				i, ok := index[n]
				if !ok {
					continue // retired into a leaf above this level
				}
				for a, attr := range tab.Schema.Attrs {
					code := int(tab.Value(a, r))
					if attr.Kind == dataset.Continuous {
						code = histogram.BinOf(cuts[a], tab.ContValue(a, r))
					}
					want[layout.Groups[i*na+a].Off+code*nc+int(tab.Class[r])]++
				}
			}
			if !slices.Equal(sums[level], want) {
				t.Errorf("p=%d level %d: the ranks' row-pass histograms do not sum to the serial count", p, level)
			}
		}
	}
}

// routeRow walks row r of tab from root down depth levels of decided
// splits and returns the node it reaches, or the leaf it stops at first.
func routeRow(root *tree.Node, tab *dataset.Table, r, depth int) *tree.Node {
	n := root
	for d := 0; d < depth && !n.Leaf; d++ {
		v := tab.Value(n.Attr, r)
		switch {
		case n.Kind == dataset.Continuous && v <= n.Threshold, n.Subset != nil && n.Subset[int(v)]:
			n = n.Children[0]
		case n.Kind == dataset.Continuous, n.Subset != nil:
			n = n.Children[1]
		default:
			n = n.Children[int(v)]
		}
	}
	return n
}

// TestBinnedPeakMetersTheKeys: the histogram modes' presort holds every
// continuous column's sorted keys of the rank's block at once while it
// selects the cuts, and the meter says so: each rank's tracked peak is at
// least its block's rows × continuous attributes × 8 bytes.
func TestBinnedPeakMetersTheKeys(t *testing.T) {
	tab := quest9(3, 11, 3000, splitter.Config{}).tab(t)
	cont := len(tab.Schema.ContIndices())
	for _, opts := range []Options{{Split: SplitBinned, Bins: 32}, {Split: SplitVote, Bins: 32, VoteK: 2}} {
		for _, p := range []int{1, 2, 3} {
			res, err := TrainOpts(comm.NewWorld(p, timing.T3D()), tab, splitter.Config{MaxDepth: 3}, opts)
			if err != nil {
				t.Fatal(err)
			}
			for r, peak := range res.PeakMemoryPerRank {
				lo, hi := dataset.BlockRange(tab.NumRows(), p, r)
				if want := int64(hi-lo) * int64(cont) * 8; peak < want {
					t.Errorf("%v p=%d rank %d: tracked peak %d B, below the %d B of its sorted keys", opts.Split, p, r, peak, want)
				}
			}
		}
	}
}

// TestWideCategoricalRefused: the row store codes a categorical value in 16
// bits, and a domain wider than dataset.MaxCategories (far below that) fails
// up front in every split mode, naming the attribute and the bound.
func TestWideCategoricalRefused(t *testing.T) {
	const limit = dataset.MaxCategories
	values := make([]string, limit+1)
	for i := range values {
		values[i] = fmt.Sprint(i)
	}
	schema := &dataset.Schema{Classes: []string{"a", "b"}, Attrs: []dataset.Attribute{
		{Name: "x", Kind: dataset.Continuous}, {Name: "zip", Kind: dataset.Categorical, Values: values}}}
	tab := handTable(schema, 4, func(i int) ([]float64, int) { return []float64{float64(i), float64(limit - i)}, i % 2 })
	for _, opts := range []Options{{Split: SplitExact}, {Split: SplitBinned}, {Split: SplitVote}} {
		_, err := TrainOpts(comm.NewWorld(2, timing.T3D()), tab, splitter.Config{}, opts)
		if err == nil || !strings.Contains(err.Error(), `"zip"`) || !strings.Contains(err.Error(), fmt.Sprint(limit)) {
			t.Errorf("%v: error %v, want one naming attribute \"zip\" and the %d-value bound", opts.Split, err, limit)
		}
	}
}
