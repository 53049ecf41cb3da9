package scalparc

import (
	"repro/internal/comm"
	"repro/internal/dataset"
)

// rebalanceLists redistributes every active node's list segments so each
// rank again holds an equal contiguous share of every node's list,
// preserving global order (so continuous lists stay sorted).
//
// The paper deliberately does NOT do this: "we assume that the initial
// assignment of data to the processors remains unchanged throughout the
// process of classification", accepting per-node imbalance because
// per-level batching sums the imbalances out unless the attributes are
// pathologically correlated. This optional pass is the other side of that
// trade: perfect balance every level, paid for with one all-to-all per
// attribute per level. The induced tree is unchanged.
func (wk *worker) rebalanceLists() {
	p := wk.c.Size()
	if p == 1 || len(wk.active) == 0 {
		return
	}
	model := wk.c.Model()
	for a, attr := range wk.schema.Attrs {
		// Everyone learns every rank's per-node segment lengths.
		lens := make([]int64, len(wk.active))
		for i, sg := range wk.segs[a] {
			lens[i] = int64(sg.n)
		}
		byRank := comm.Allgather(wk.c, lens)

		var delta int64
		var moved int
		if attr.Kind == dataset.Continuous {
			old := len(wk.cont[a])
			wk.cont[a], wk.segs[a], moved = rebalanceAttr(wk.c, wk.cont[a], wk.segs[a], byRank)
			delta = int64(len(wk.cont[a])-old) * dataset.ContEntrySize
		} else {
			old := len(wk.cat[a])
			wk.cat[a], wk.segs[a], moved = rebalanceAttr(wk.c, wk.cat[a], wk.segs[a], byRank)
			delta = int64(len(wk.cat[a])-old) * dataset.CatEntrySize
		}
		wk.c.Mem().Adjust(delta)
		wk.listBytes += delta
		wk.c.Compute(model.SplitTime(moved))
	}
}

// rebalanceAttr redistributes one attribute's segments. byRank[r][i] is
// rank r's current segment length for node i. It returns the new backing,
// the new segments (one per active node, same order), and how many
// entries moved through this rank (for cost accounting).
func rebalanceAttr[E any](c *comm.Comm, list []E, segs []seg, byRank [][]int64) ([]E, []seg, int) {
	p := c.Size()
	me := c.Rank()
	nNodes := len(segs)

	// Global prefix and total of every node's list.
	prefix := make([]int64, nNodes) // entries of node i on ranks < me
	totals := make([]int64, nNodes)
	for r := 0; r < p; r++ {
		for i := 0; i < nNodes; i++ {
			if r < me {
				prefix[i] += byRank[r][i]
			}
			totals[i] += byRank[r][i]
		}
	}

	// Route each of my segments to the block owners of its global
	// positions (contiguous chunks, exactly like the presort's shift).
	send := make([][]E, p)
	for i, sg := range segs {
		local := list[sg.off : sg.off+sg.n]
		j := 0
		for j < len(local) {
			pos := int(prefix[i]) + j
			owner := dataset.BlockOwner(int(totals[i]), p, pos)
			_, hi := dataset.BlockRange(int(totals[i]), p, owner)
			end := j + (hi - pos)
			if end > len(local) {
				end = len(local)
			}
			send[owner] = append(send[owner], local[j:end]...)
			j = end
		}
	}
	recv := comm.AllToAll(c, send)

	// Reassemble: each source's buffer holds only my entries, ordered by
	// (node, position), so per-source cursors suffice and the in-chunk
	// offset reassembleBlocked reports is ignored.
	cursors := make([]int, p)
	return reassembleBlocked(me, p, byRank, func(r, _, _, n int) []E {
		out := recv[r][cursors[r] : cursors[r]+n]
		cursors[r] += n
		return out
	})
}

// reassembleBlocked builds this rank's block share of every node's global
// list from per-source fragments: my share of node i is
// BlockRange(totals[i], p, me), and within it sources contribute their
// overlaps in source order (which is global order, sources holding
// contiguous chunks). byRank[r][i] is source r's entry count for node i;
// take(r, node, srcOff, n) returns n consecutive entries of node's chunk on
// source r starting at offset srcOff within that chunk. The source count
// (len(byRank)) need not equal the consumer count p — checkpoint recovery
// reassembles a p'-survivor distribution from the fragments of the p ranks
// that wrote them. Returns the new backing, one segment per node, and the
// number of entries taken (for cost accounting).
func reassembleBlocked[E any](me, p int, byRank [][]int64, take func(r, node, srcOff, n int) []E) ([]E, []seg, int) {
	nNodes := 0
	if len(byRank) > 0 {
		nNodes = len(byRank[0])
	}
	totals := make([]int64, nNodes)
	for _, row := range byRank {
		for i, v := range row {
			totals[i] += v
		}
	}
	var newList []E
	newSegs := make([]seg, nNodes)
	moved := 0
	for i := 0; i < nNodes; i++ {
		lo, hi := dataset.BlockRange(int(totals[i]), p, me)
		start := len(newList)
		srcPrefix := int64(0)
		for r := range byRank {
			srcLo, srcHi := srcPrefix, srcPrefix+byRank[r][i]
			srcPrefix = srcHi
			ovLo, ovHi := max(srcLo, int64(lo)), min(srcHi, int64(hi))
			if ovHi <= ovLo {
				continue
			}
			n := int(ovHi - ovLo)
			newList = append(newList, take(r, i, int(ovLo-srcLo), n)...)
			moved += n
		}
		newSegs[i] = seg{off: start, n: len(newList) - start}
	}
	return newList, newSegs, moved
}
