package scalparc

import (
	"repro/internal/comm"
	"repro/internal/splitter"
	"repro/internal/trace"
	"repro/internal/tree"
)

// findSplits returns the globally agreed winning candidate for every
// need-split node (splitIdx maps active-node index to need-split index,
// -1 if terminated). In the default per-level mode all nodes share one
// batch of the mode's collectives; in the per-node ablation mode (§3.1)
// each node runs its own.
func (wk *worker) findSplits(splitIdx []int, nNeed int) []splitter.Candidate {
	if nNeed == 0 {
		return nil
	}
	if !wk.opts.PerNodeComms {
		return wk.recs.find(wk, splitIdx, nNeed)
	}
	cands := make([]splitter.Candidate, nNeed)
	for i := range wk.active {
		if splitIdx[i] < 0 {
			continue
		}
		one := make([]int, len(wk.active))
		for j := range one {
			one[j] = -1
		}
		one[i] = 0
		cands[splitIdx[i]] = wk.recs.find(wk, one, 1)[0]
	}
	return cands
}

// performSplitI assigns every record of a split node its child number (the
// record layout's local pass, records.assign) and reduces the global
// per-child class histograms, which it returns: per active node that
// splits, its children's histograms back to back (splitter.Grow's layout).
// The per-node ablation mode runs one local pass and one reduction per node
// instead of one per level.
func (wk *worker) performSplitI(doSplit []bool, splitIdx []int, cands []splitter.Candidate) [][]int64 {
	if !wk.opts.PerNodeComms {
		return wk.performSplitIBatch(doSplit, splitIdx, cands)
	}
	childHists := make([][]int64, len(wk.active))
	mask := make([]bool, len(wk.active))
	for i := range wk.active {
		if !doSplit[i] {
			continue
		}
		mask[i] = true
		childHists[i] = wk.performSplitIBatch(mask, splitIdx, cands)[i]
		mask[i] = false
	}
	return childHists
}

func (wk *worker) performSplitIBatch(doSplit []bool, splitIdx []int, cands []splitter.Candidate) [][]int64 {
	wk.c.SetPhase(trace.PerformSplitI, wk.level)
	nc := wk.schema.NumClasses()
	offsets := grabRaw(wk.ar, &wk.ar.offsets, len(wk.active))
	total := 0
	for i := range wk.active {
		offsets[i] = -1
		if doSplit[i] {
			offsets[i] = total
			total += len(wk.active[i].Children) * nc
		}
	}

	vec := grab(wk.ar, &wk.ar.vec, total)
	wk.recs.assign(wk, doSplit, splitIdx, cands, offsets, vec)

	// The reduced histograms are subsliced into the tree's nodes, which
	// outlive the level — global must be a fresh allocation, never arena
	// scratch.
	var global []int64
	if total > 0 {
		wk.c.Mem().Alloc(int64(total) * 8)
		global = comm.AllReduceSumInto(wk.c, vec, nil)
		wk.c.Mem().Free(int64(total) * 8)
	}

	childHists := grab(wk.ar, &wk.ar.childHists, len(wk.active))
	for i, n := range wk.active {
		if doSplit[i] {
			childHists[i] = global[offsets[i] : offsets[i]+len(n.Children)*nc]
		}
	}
	return childHists
}

// buildChildren grows the next level's tree nodes (splitter.Grow) and
// active set, identically on every rank. It returns the new active set and,
// per old node and child number, the index into the new active set (-1 for
// empty children, which Grow makes leaves).
func (wk *worker) buildChildren(doSplit []bool, childHists [][]int64) ([]*tree.Node, [][]int) {
	var next []*tree.Node
	dTotal := 0
	for i, n := range wk.active {
		if doSplit[i] {
			dTotal += len(n.Children)
		}
	}
	childIdxBuf := grabRaw(wk.ar, &wk.ar.childIdxBuf, dTotal)
	childIndex := grab(wk.ar, &wk.ar.childIndex, len(wk.active))
	used := 0
	for i, n := range wk.active {
		if !doSplit[i] {
			continue
		}
		splitter.Grow(n, childHists[i])
		childIndex[i] = childIdxBuf[used : used+len(n.Children)]
		used += len(n.Children)
		for k, child := range n.Children {
			childIndex[i][k] = -1
			if !child.Leaf {
				childIndex[i][k] = len(next)
				next = append(next, child)
			}
		}
	}
	return next, childIndex
}
