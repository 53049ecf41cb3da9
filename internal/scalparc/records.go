package scalparc

import (
	"repro/internal/dataset"
	"repro/internal/psort"
	"repro/internal/splitter"
)

// records is the one seam between the level loop and the layout the
// training records live in, chosen once in newWorker from Options.Split:
//
//   - exact mode's attribute lists (lists): its sorted scans need every
//     attribute's values in global order, so PerformSplit splits the lists
//     through the record map, as the paper does;
//   - the histogram modes' row store (rowStore, rows.go): a binned or vote
//     decision depends only on the reduced (node, attribute, bin, class)
//     counts and on the cuts the finder selected at presort, so each rank
//     keeps the rows it owns as bin codes, builds no lists, and
//     PerformSplit is a local relabel.
//
// The level loop, the checkpoint frames and the recovery protocol are the
// same for both: a fragment is the rids a rank holds per frontier node, and
// a restore loads the layout as a fresh start does and relabels it from
// the fragments (checkpoint.go). The split finders read the layout they
// were built for (exactFinder the lists, binnedFinder the row store).
type records interface {
	// load fills the layout from this rank's block of the table, the root
	// holding every record, inside the presort phase. The finder's cuts
	// are set: prepare has run on a fresh start, and a restore has decoded
	// them from the shared frame.
	load(wk *worker, tab *dataset.Table)
	// assign is PerformSplitI's local pass: every record of a split node
	// (doSplit) gets its child under the node's candidate, counted into vec
	// at offsets[i] + child·classes + class. The layout keeps the children
	// for split, charges the pass's modeled time, and (lists) delivers them
	// to the record map. Under Options.PerNodeComms it runs once per node,
	// with doSplit naming that node only.
	assign(wk *worker, doSplit []bool, splitIdx []int, cands []splitter.Candidate, offsets []int, vec []int64)
	// split is PerformSplitII: every record of a split node moves to its
	// child's index among the nextCount nodes of the next level
	// (childIndex), and every other record is retired.
	split(wk *worker, doSplit []bool, splitIdx []int, cands []splitter.Candidate, nextCount int, childIndex [][]int)
	// rebalance is Options.RebalanceLevels' pass after a level.
	rebalance(wk *worker)
	// frontierRids returns the rids this rank holds under each frontier
	// node, back to back in node order, with segs[i] locating node i's:
	// its checkpoint fragment.
	frontierRids(wk *worker) (rids []int32, segs []seg)
	// relabel files the records of a freshly loaded layout under the
	// frontier restored from a checkpoint: node[rid] is a record's frontier
	// node, -1 once it is retired. It returns the entries this rank now
	// holds (for the modeled reload cost).
	relabel(wk *worker, node []int32) int
	// bytes is the layout's metered size at its current lengths; every pass
	// that resizes it meters the change.
	bytes() int64
	// free releases what the layout holds beyond bytes (the record map).
	free()
}

// lists is exact mode's layout: cont[a] / cat[a] hold the local fragments
// of every active node's list for attribute a, concatenated in node order;
// segs[a][i] locates node i's segment. The record map carries each level's
// child numbers from the splitting attributes' lists to the others.
type lists struct {
	rm   RecordMap
	cont [][]dataset.ContEntry
	cat  [][]dataset.CatEntry
	segs [][]seg

	// splitChild[i] is PerformSplitI's child number per entry of split
	// node i's segment of its splitting attribute, read by split. Kept
	// across the per-node passes of one level (Options.PerNodeComms), so
	// it is not arena scratch.
	splitChild [][]uint8
}

// load builds this rank's block of every attribute list and sorts the
// continuous ones globally (psort.Sort: sample sort + shift), after which
// rank r holds positions BlockRange(N, p, r) of each; the categorical lists
// stay in record order.
func (l *lists) load(wk *worker, tab *dataset.Table) {
	lo, hi := dataset.BlockRange(wk.n, wk.c.Size(), wk.c.Rank())
	local := dataset.BuildLists(tab.Slice(lo, hi), lo)
	var sorter psort.Sorter
	for _, a := range wk.schema.ContIndices() {
		local.Cont[a] = sorter.Sort(wk.c, local.Cont[a])
	}
	l.cont, l.cat = local.Cont, local.Cat
	// One segment per attribute (cont[a] or cat[a], whichever the
	// attribute has): the root owns everything.
	for a := range l.segs {
		l.segs[a] = []seg{{0, len(l.cont[a]) + len(l.cat[a])}}
	}
}

// frontierRids reads the rids off attribute 0's list (cont[0] or cat[0],
// the other is empty): every attribute's segment of a node holds the same
// records, and the segments lie back to back in node order.
func (l *lists) frontierRids(*worker) ([]int32, []seg) {
	rids := make([]int32, 0, len(l.cont[0])+len(l.cat[0]))
	return appendRids(appendRids(rids, l.cont[0]), l.cat[0]), l.segs[0]
}

// relabel partitions every attribute's root list stably by frontier node
// and drops the retired records. Each rank keeps the entries of its own
// presorted block, in order, as every level's partition does, so the
// lists are those a fault-free run on this world holds at the level.
func (l *lists) relabel(wk *worker, node []int32) int {
	entries := 0
	for a := range l.segs {
		if wk.schema.Attrs[a].Kind == dataset.Continuous {
			l.cont[a], l.segs[a] = fileByNode(l.cont[a], len(wk.active), func(e dataset.ContEntry) int32 { return node[e.Rid] })
		} else {
			l.cat[a], l.segs[a] = fileByNode(l.cat[a], len(wk.active), func(e dataset.CatEntry) int32 { return node[e.Rid] })
		}
		entries += len(l.cont[a]) + len(l.cat[a])
	}
	return entries
}

func (l *lists) bytes() int64 {
	var b int64
	for a := range l.segs {
		b += int64(len(l.cont[a]))*dataset.ContEntrySize + int64(len(l.cat[a]))*dataset.CatEntrySize
	}
	return b
}

func (l *lists) free() { l.rm.Free() }
