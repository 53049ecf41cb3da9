// Package histogram supports the binned split-finding mode: instead of the
// exact split-determining scan over every distinct attribute value, each
// continuous attribute is quantized once — at presort time — into at most B
// quantile bins, and per-level split finding reduces to exchanging dense
// (node, bin, class) count histograms and evaluating only the bin
// boundaries as candidate thresholds.
//
// The cut values are the attribute's values at fixed quantile positions
// (CutPositions) of its global (value, record id) order, selected without
// sorting the attribute globally (psort.Select), so they are real data
// values (a candidate "A <= cut" partitions records exactly, with no
// interpolation) and are independent of the processor count — the binned
// tree is identical for every p. When an
// attribute has at most B distinct values every distinct value becomes a
// cut, the binned candidate set equals the exact one, and the binned tree
// degenerates to the exact tree bit for bit.
package histogram

import (
	"fmt"
	"math"

	"repro/internal/dataset"
)

// CutPositions returns the global sorted-order positions (ascending, unique)
// whose values delimit b quantile bins of n records: position ⌊(k+1)·n/b⌋-1
// for each interior boundary k, skipping repeats and any position at or past
// n-1. There are at most b-1 positions; fewer when n < b.
func CutPositions(n, b int) []int {
	if n <= 0 || b < 2 {
		return nil
	}
	out := make([]int, 0, b-1)
	prev := -1
	for k := 0; k < b-1; k++ {
		pos := (k+1)*n/b - 1
		if pos <= prev {
			continue
		}
		if pos >= n-1 {
			// The last bin must keep at least the maximum value.
			break
		}
		out = append(out, pos)
		prev = pos
	}
	return out
}

// Cuts dedupes position-sampled values into a strictly increasing cut
// vector. The input must be sorted ascending (values at ascending positions
// of a sorted order are).
func Cuts(vals []float64) []float64 {
	out := make([]float64, 0, len(vals))
	for i, v := range vals {
		if i > 0 && v <= out[len(out)-1] {
			if v < out[len(out)-1] {
				panic(fmt.Sprintf("histogram: cut samples not sorted: %g after %g", v, out[len(out)-1]))
			}
			continue
		}
		out = append(out, v)
	}
	return out
}

// BinOf returns the bin index of value v under a strictly increasing,
// finite cut vector: the first bin b with v <= cuts[b], or len(cuts) (the
// overflow bin) when v exceeds every cut. A cut vector of length m defines
// m+1 bins. v must not be NaN; every caller passes a table value or a cut.
//
// It is a binary search without a data-dependent branch. Each step halves
// the range by the sign bit of cuts[i] - v, which is set exactly when
// cuts[i] < v once adding +0 has folded a -0 difference into +0. A library
// search mispredicts about every other step on values in table order; this
// one costs the same on any input, and the searches of a column overlap.
func BinOf(cuts []float64, v float64) int {
	base, n := 0, len(cuts)
	for n > 1 {
		half := n >> 1
		below := math.Float64bits(cuts[base+half-1]-v+0) >> 63
		base += half & -int(below)
		n -= half
	}
	if n == 1 {
		base += int(math.Float64bits(cuts[base]-v+0) >> 63)
	}
	return base
}

// Group is one (need-split node, attribute) slot range of the level's
// concatenated histogram vector.
type Group struct {
	Node int // need-split node index
	Attr int // attribute index
	Off  int // slot offset into the concatenated vector
	Bins int // bin count (continuous: cuts+1; categorical: cardinality)
	Len  int // slot count = Bins * classes
}

// Layout is the slot layout of one level's histogram vector: for each
// need-split node, one group per attribute, node-major in attribute order.
// Group slot ranges are contiguous and tile the vector, so distributing
// whole groups to ranks in contiguous runs yields the contiguous per-rank
// chunks a reduce-scatter delivers.
type Layout struct {
	Classes int
	Groups  []Group
	Total   int // total slots
}

// NewLayout builds the layout for nNeed need-split nodes where attribute a
// contributes bins[a] bins per node (0 skips the attribute entirely). Its
// groups are one allocation, however many nodes there are.
func NewLayout(nNeed int, bins []int, classes int) *Layout {
	if classes <= 0 {
		panic(fmt.Sprintf("histogram: NewLayout with %d classes", classes))
	}
	l := &Layout{Classes: classes, Groups: make([]Group, 0, nNeed*len(bins))}
	for i := 0; i < nNeed; i++ {
		for a, b := range bins {
			if b <= 0 {
				continue
			}
			g := Group{Node: i, Attr: a, Off: l.Total, Bins: b, Len: b * classes}
			l.Groups = append(l.Groups, g)
			l.Total += g.Len
		}
	}
	return l
}

// NewLayoutSubset builds the layout restricted to per-node candidate
// attribute sets: need-split node i contributes one group per attribute in
// cands[i] (which must be ascending and duplicate-free, with bins[a] > 0
// for every member). Groups stay node-major in attribute order — exactly
// NewLayout's order restricted to the sets — so candidate sets naming every
// attribute reproduce the full layout group for group, and the vote mode's
// degenerate case (k >= attrs) exchanges and evaluates bit-identically to
// the binned mode.
func NewLayoutSubset(cands [][]int32, bins []int, classes int) *Layout {
	if classes <= 0 {
		panic(fmt.Sprintf("histogram: NewLayoutSubset with %d classes", classes))
	}
	l := &Layout{Classes: classes, Groups: make([]Group, 0, len(cands)*len(bins))}
	for i, set := range cands {
		prev := int32(-1)
		for _, a := range set {
			if a <= prev {
				panic(fmt.Sprintf("histogram: NewLayoutSubset node %d candidates not ascending: %d after %d", i, a, prev))
			}
			prev = a
			b := bins[a]
			if b <= 0 {
				panic(fmt.Sprintf("histogram: NewLayoutSubset candidate attribute %d has %d bins", a, b))
			}
			g := Group{Node: i, Attr: int(a), Off: l.Total, Bins: b, Len: b * classes}
			l.Groups = append(l.Groups, g)
			l.Total += g.Len
		}
	}
	return l
}

// GroupRange returns the half-open group-index range owned by rank r when
// the groups are dealt to p ranks in contiguous blocks (BlockRange over
// groups, so evaluation work is balanced to within one group).
func (l *Layout) GroupRange(p, r int) (lo, hi int) {
	return dataset.BlockRange(len(l.Groups), p, r)
}

// OwnerCounts returns the per-rank slot counts induced by GroupRange — the
// counts vector a reduce-scatter of the concatenated histogram needs. The
// counts sum to Total.
func (l *Layout) OwnerCounts(p int) []int {
	counts := make([]int, p)
	for r := 0; r < p; r++ {
		lo, hi := l.GroupRange(p, r)
		for g := lo; g < hi; g++ {
			counts[r] += l.Groups[g].Len
		}
	}
	return counts
}
