package scalparc

import (
	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/gini"
	"repro/internal/histogram"
	"repro/internal/psort"
	"repro/internal/splitter"
	"repro/internal/trace"
)

// exchangeBufs is the arena of one exchange round. Rounds that overlap in
// one FindSplit (vote's elected and fallback rounds: the first round's
// winners are still live while the second runs) each get their own.
type exchangeBufs struct {
	mine      []uint32
	best, out []splitter.Candidate
}

// selectCuts selects every continuous attribute's quantile cuts: the
// values at histogram.CutPositions of its (value, rid) order, found by
// psort.Select from the rank's own block of the table. No list is built and
// no entry leaves its rank; the cuts are identical on every rank and
// independent of p.
func (rs *rowStore) selectCuts(wk *worker, tab *dataset.Table) {
	lo, hi := dataset.BlockRange(wk.n, wk.c.Size(), wk.c.Rank())
	cont := wk.schema.ContIndices()
	cols := make([][]float64, len(cont))
	for k, a := range cont {
		cols[k] = tab.ContColumn(a)[lo:hi]
	}
	vals := psort.Select(wk.c, cols, wk.n, histogram.CutPositions(wk.n, rs.bins))
	rs.cuts = make([][]float64, wk.schema.NumAttrs())
	for k, a := range cont {
		rs.cuts[a] = histogram.Cuts(vals[k])
	}
}

// find is histogram-binned FindSplit: FindSplitI builds one dense uint32
// count vector covering every (need-split node, attribute) group —
// continuous attributes bucketed by the presort-time quantile cuts,
// categorical ones by domain value — from one pass over the rows, and hands
// it to exchange.
func (rs *rowStore) find(wk *worker, splitIdx []int, nNeed int) []splitter.Candidate {
	layout, nodeOf, hist, scanned := rs.localHist(wk, rs.binCounts(wk), splitIdx, nNeed)
	wk.c.Compute(wk.c.Model().ScanTime(scanned))
	return rs.exchange(wk, &rs.round, layout, hist, nodeOf, int64(layout.Total)*4)
}

// localHist opens FindSplitI: it lays out one group per (need-split node,
// attribute) with bins[a] bins each, charges the meter for the local
// histogram vector (the caller releases it), and counts this rank's rows
// into it. It returns the layout, the need-split to active index map, the
// vector, and the number of (row, attribute) entries counted.
func (rs *rowStore) localHist(wk *worker, bins, splitIdx []int, nNeed int) (*histogram.Layout, []int, []uint32, int) {
	wk.c.SetPhase(trace.FindSplitI, wk.level)
	layout := histogram.NewLayout(nNeed, bins, wk.schema.NumClasses())
	nodeOf := grabRaw(wk.ar, &rs.nodeOf, nNeed)
	for i, i2 := range splitIdx {
		if i2 >= 0 {
			nodeOf[i2] = i
		}
	}
	wk.c.Mem().Alloc(int64(layout.Total) * 4)
	hist := grab(wk.ar, &rs.hist, layout.Total)
	return layout, nodeOf, hist, rs.accumulateHist(wk, layout, splitIdx, hist)
}

// exchange is the one histogram exchange of binned and vote split finding:
// a single reduce-scatter delivers each rank the fully reduced histograms of
// a contiguous block of layout's groups, FindSplitII evaluates only the
// owned groups (bin boundaries for continuous, splitter.BestCategorical for
// categorical), and the per-node winners are merged with the same
// deterministic candidate reduction the exact path uses. activeOf maps a
// layout node to its active-node index. release is the meter charge of the
// histogram buffers that die with the evaluation, freed before the closing
// all-reduce.
func (rs *rowStore) exchange(wk *worker, x *exchangeBufs, layout *histogram.Layout, hist []uint32, activeOf []int, release int64) []splitter.Candidate {
	c := wk.c
	mine := stash(wk.ar, &x.mine, comm.ReduceScatterSum32Into(c, hist, x.mine, layout.OwnerCounts(c.Size())))
	c.SetPhase(trace.FindSplitII, wk.level)
	best := grab(wk.ar, &x.best, len(activeOf)) // zero value is Invalid
	evaluated := rs.evalOwnedGroups(wk, layout, mine, best, activeOf)
	c.Compute(c.Model().ScanTime(evaluated))
	c.Mem().Free(release)
	return stash(wk.ar, &x.out, comm.AllReduceInto(c, best, x.out, splitter.Best))
}

// binCounts returns the per-attribute bin counts of the histogram layout:
// quantile cuts + 1 for continuous attributes, the domain cardinality for
// categorical ones. Every attribute has at least one bin.
func (rs *rowStore) binCounts(wk *worker) []int {
	bins := grabRaw(wk.ar, &rs.attrBins, wk.schema.NumAttrs())
	for a, attr := range wk.schema.Attrs {
		if attr.Kind == dataset.Continuous {
			bins[a] = len(rs.cuts[a]) + 1
		} else {
			bins[a] = attr.Cardinality()
		}
	}
	return bins
}

// accumulateHist is FindSplitI's one pass over the rows this rank owns:
// each row of a need-split node adds one count per attribute, at its code's
// bin of the node's group for that attribute. It returns the number of
// (row, attribute) entries counted. binCounts gives every attribute at
// least one bin, so the layout holds one group per attribute per node, in
// attribute order: node i2's group of attribute a is Groups[i2·attrs + a].
// uint32 counts are safe: record ids are int32, so no count can reach 2³¹.
func (rs *rowStore) accumulateHist(wk *worker, layout *histogram.Layout, splitIdx []int, hist []uint32) int {
	na, nc := wk.schema.NumAttrs(), layout.Classes
	off := grabRaw(wk.ar, &rs.groupOff, len(layout.Groups))
	for g, grp := range layout.Groups {
		off[g] = grp.Off
	}
	counted := 0
	for r, i := range rs.node {
		if i < 0 || splitIdx[i] < 0 {
			continue
		}
		base := off[splitIdx[i]*na : (splitIdx[i]+1)*na]
		codes := rs.codes[r*na : (r+1)*na]
		cl := int(rs.class[r])
		for a, o := range base {
			hist[o+int(codes[a])*nc+cl]++
		}
		counted++
	}
	return counted * na
}

// evalHistGroup evaluates one (node, attribute) group from a reduced — or,
// for vote-mode local scoring, local — histogram chunk: bin boundaries for
// continuous attributes, splitter.BestCategorical for categorical ones.
func (rs *rowStore) evalHistGroup(wk *worker, grp histogram.Group, chunk []uint32, below, above []int64, nc int) splitter.Candidate {
	if wk.schema.Attrs[grp.Attr].Kind == dataset.Continuous {
		return bestBinnedCont(chunk, below, above, rs.cuts[grp.Attr], nc, grp.Attr)
	}
	// Arena-backed count matrix, consumed before the next group reuses
	// catFlat.
	flat := grabRaw(wk.ar, &rs.catFlat, len(chunk))
	for j, v := range chunk {
		flat[j] = int64(v)
	}
	m := splitter.CountMatrix{Counts: flat, Classes: nc}
	return splitter.BestCategorical(&m, grp.Attr, wk.cfg.CategoricalBinary)
}

// evalOwnedGroups evaluates this rank's contiguous block of the layout's
// groups from the reduce-scattered histogram slice, merging per-node winners
// into best with the deterministic candidate order. activeOf maps a layout
// node index back to its active-node index so the per-node feature mask
// (forest mode) can veto groups; masked groups ride the exchange but never
// produce a candidate. Returns the number of histogram slots evaluated.
func (rs *rowStore) evalOwnedGroups(wk *worker, layout *histogram.Layout, mine []uint32, best []splitter.Candidate, activeOf []int) int {
	nc := layout.Classes
	glo, ghi := layout.GroupRange(wk.c.Size(), wk.c.Rank())
	below := grabRaw(wk.ar, &rs.below, nc)
	above := grabRaw(wk.ar, &rs.above, nc)
	off, evaluated := 0, 0
	for g := glo; g < ghi; g++ {
		grp := layout.Groups[g]
		chunk := mine[off : off+grp.Len]
		off += grp.Len
		if !wk.attrAllowed(activeOf[grp.Node], grp.Attr) {
			continue
		}
		evaluated += grp.Len
		cand := rs.evalHistGroup(wk, grp, chunk, below, above, nc)
		best[grp.Node] = splitter.Best(best[grp.Node], cand)
	}
	return evaluated
}

// bestBinnedCont evaluates a continuous attribute's bin boundaries from the
// group's reduced (bin, class) histogram. A boundary after bin b is the
// candidate "A <= cuts[b]"; like the exact scan, a candidate with an empty
// side is never emitted. The evaluation maintains the same running integer
// sums of squares as the exact scan's gini.Matrix and funnels through the
// same gini.BinarySplit kernel, so a boundary's gini is bit-identical to
// the exact path's gini of the same counts and ties break identically.
func bestBinnedCont(chunk []uint32, below, above []int64, cuts []float64, nc int, attr int) splitter.Candidate {
	below, above = below[:nc], above[:nc]
	var nBelow, nAbove, sqBelow, sqAbove int64
	for j := range below {
		below[j] = 0
		above[j] = 0
	}
	for b := 0; b < len(cuts)+1; b++ {
		for j := 0; j < nc; j++ {
			above[j] += int64(chunk[b*nc+j])
		}
	}
	for _, h := range above {
		nAbove += h
		sqAbove += h * h
	}
	var best contBest
	for b := range cuts {
		for j := 0; j < nc; j++ {
			v := int64(chunk[b*nc+j])
			if v == 0 {
				continue
			}
			// Moving v records of class j across the boundary changes each
			// side's Σh² by (h±v)² - h² = ±2hv + v².
			h := below[j]
			sqBelow += 2*h*v + v*v
			below[j] = h + v
			nBelow += v
			a := above[j]
			sqAbove -= 2*a*v - v*v
			above[j] = a - v
			nAbove -= v
		}
		if nBelow == 0 || nAbove == 0 {
			continue
		}
		best = best.fold(gini.BinarySplit(nBelow, sqBelow, nAbove, sqAbove), cuts[b])
	}
	return best.candidate(attr)
}
