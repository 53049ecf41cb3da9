package scalparc

import (
	"repro/internal/dataset"
	"repro/internal/psort"
)

// rebalance redistributes every active node's list segments so each
// rank again holds an equal contiguous share of every node's list,
// preserving global order (so continuous lists stay sorted).
//
// The paper deliberately does NOT do this: "we assume that the initial
// assignment of data to the processors remains unchanged throughout the
// process of classification", accepting per-node imbalance because
// per-level batching sums the imbalances out unless the attributes are
// pathologically correlated. This optional pass is the other side of that
// trade: perfect balance every level, paid for with one parallel shift
// (psort.Shift) per attribute per level. The induced tree is unchanged.
func (l *lists) rebalance(wk *worker) {
	if wk.c.Size() == 1 || len(wk.active) == 0 {
		return
	}
	for a, attr := range wk.schema.Attrs {
		if attr.Kind == dataset.Continuous {
			shiftList(wk, l, a, &l.cont[a])
		} else {
			shiftList(wk, l, a, &l.cat[a])
		}
	}
}

// shiftList shifts attribute a's list, whose segments lie back to back in
// node order, and meters the change in its length.
func shiftList[V float64 | int32](wk *worker, l *lists, a int, list *[]dataset.Entry[V]) {
	lens := make([]int64, len(l.segs[a]))
	for i, sg := range l.segs[a] {
		lens[i] = int64(sg.n)
	}
	out, outLens := psort.Shift(wk.c, *list, lens)
	delta := int64(len(out)-len(*list)) * dataset.EntrySize[V]()
	*list, l.segs[a] = out, segsOf(outLens)
	wk.c.Mem().Adjust(delta)
}

// segsOf lays per-node segment lengths out back to back in node order.
func segsOf(lens []int64) []seg {
	segs := make([]seg, len(lens))
	off := 0
	for i, n := range lens {
		segs[i] = seg{off: off, n: int(n)}
		off += int(n)
	}
	return segs
}
