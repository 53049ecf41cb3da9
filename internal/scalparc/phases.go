package scalparc

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/nodetable"
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

// assign walks every splitting attribute's local segments: each entry's
// child goes into splitChild and the node's histogram, and the assignments
// into the record map (blocked all-to-all rounds inside).
func (l *lists) assign(wk *worker, doSplit []bool, splitIdx []int, cands []splitter.Candidate, offsets []int, vec []int64) {
	nc := wk.schema.NumClasses()
	entTotal := 0
	for i := range wk.active {
		if doSplit[i] {
			entTotal += l.segs[int(cands[splitIdx[i]].Attr)][i].n
		}
	}
	childsBuf := grabRaw(wk.ar, &l.childsBuf, entTotal)
	if cap(l.splitChild) < len(wk.active) {
		l.splitChild = make([][]uint8, len(wk.active))
	}
	l.splitChild = l.splitChild[:len(wk.active)]
	assigns := grabRaw(wk.ar, &l.assigns, 0)
	work := 0
	for i := range wk.active {
		if !doSplit[i] {
			continue
		}
		cand := cands[splitIdx[i]]
		a := int(cand.Attr)
		sg := l.segs[a][i]
		childs := childsBuf[work : work+sg.n]
		if wk.schema.Attrs[a].Kind == dataset.Continuous {
			assigns = assignSeg(l.cont[a][sg.off:sg.off+sg.n], cand, splitter.Candidate.ContChild, childs, vec[offsets[i]:], nc, assigns)
		} else {
			assigns = assignSeg(l.cat[a][sg.off:sg.off+sg.n], cand, splitter.Candidate.CatChild, childs, vec[offsets[i]:], nc, assigns)
		}
		l.splitChild[i] = childs
		work += sg.n
	}
	wk.c.Compute(wk.c.Model().SplitTime(work))
	stash(wk.ar, &l.assigns, assigns)

	// Assignment buffer (8 bytes each) plus the per-entry child arrays
	// (1 byte each, alive until split consumes them).
	wk.c.Mem().Alloc(int64(work) * 9)
	l.rm.Update(assigns)
	wk.c.Mem().Free(int64(work) * 8) // assignments delivered
}

// assignSeg is PerformSplitI's pass over one splitting segment: each entry's
// child under cand's rule goes into childs, its (child, class) count into
// the node's histogram hist, and its record-map assignment onto assigns.
func assignSeg[V float64 | int32](list []dataset.Entry[V], cand splitter.Candidate, child func(splitter.Candidate, V) uint8,
	childs []uint8, hist []int64, nc int, assigns []nodetable.Assignment) []nodetable.Assignment {
	for j, e := range list {
		ch := child(cand, e.Val)
		childs[j] = ch
		hist[int(ch)*nc+int(e.Cid)]++
		assigns = append(assigns, nodetable.Assignment{Rid: e.Rid, Child: ch})
	}
	return assigns
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

// split splits every attribute list consistently with the level's
// decisions: splitting attributes reuse the child assignments from phase I;
// all other attributes enquire the record map, one attribute at a time.
func (l *lists) split(wk *worker, doSplit []bool, splitIdx []int, cands []splitter.Candidate, nextCount int, childIndex [][]int) {
	// The tech-report optimization: gather every attribute's enquiry rids
	// up front and resolve them in one round, trading n_a-times larger
	// buffers for 2·(n_a - 2) fewer all-to-all steps per level.
	var batchedAnswers []uint8
	var batchedOffsets []int
	if wk.opts.BatchedEnquiry {
		all := grabRaw(wk.ar, &l.enqRids, 0)
		batchedOffsets = grabRaw(wk.ar, &l.offCache, wk.schema.NumAttrs()+1)
		for a := range wk.schema.Attrs {
			batchedOffsets[a] = len(all)
			all = l.collectEnquiryRids(wk, a, doSplit, splitIdx, cands, all)
		}
		batchedOffsets[wk.schema.NumAttrs()] = len(all)
		stash(wk.ar, &l.enqRids, all)
		batchedAnswers = l.rm.Lookup(all)
	}

	for a := range wk.schema.Attrs {
		// Enquiry pass: rids of every segment that needs child numbers
		// from the record map, in node order. Per-level mode batches the
		// whole attribute into one enquiry, reusing one rid buffer across
		// attributes; the per-node ablation runs a separate enquiry per
		// node. Lookup's result is only valid until the next Lookup, which
		// is fine: each attribute's answers are consumed by its own
		// partition pass below.
		var answers []uint8
		switch {
		case wk.opts.BatchedEnquiry:
			answers = batchedAnswers[batchedOffsets[a]:batchedOffsets[a+1]]
		case wk.opts.PerNodeComms:
			for i := range wk.active {
				if !doSplit[i] || int(cands[splitIdx[i]].Attr) == a {
					continue
				}
				rids := l.segRids(wk, a, i, make([]int32, 0, l.segs[a][i].n))
				answers = append(answers, l.rm.Lookup(rids)...)
			}
		default:
			rids := l.collectEnquiryRids(wk, a, doSplit, splitIdx, cands, grabRaw(wk.ar, &l.enqRids, 0))
			stash(wk.ar, &l.enqRids, rids)
			answers = l.rm.Lookup(rids)
		}

		// A split node's entries take phase I's child numbers on its
		// splitting attribute and the next answers, in node order, on
		// every other.
		cursor := 0
		childs := func(i int) []uint8 {
			if int(cands[splitIdx[i]].Attr) == a {
				return l.splitChild[i]
			}
			cursor += l.segs[a][i].n
			return answers[cursor-l.segs[a][i].n : cursor]
		}
		if wk.schema.Attrs[a].Kind == dataset.Continuous {
			partition(wk, l, a, &l.cont[a], &l.spareCont[a], doSplit, childs, nextCount, childIndex)
		} else {
			partition(wk, l, a, &l.cat[a], &l.spareCat[a], doSplit, childs, nextCount, childIndex)
		}
	}

	// The phase-I child arrays (1 byte per entry) are no longer needed.
	var childBytes int64
	for i, split := range doSplit {
		if split {
			childBytes += int64(len(l.splitChild[i]))
		}
	}
	wk.c.Mem().Free(childBytes)
}

// collectEnquiryRids appends the rids of attribute a's segments that need
// record-map answers (segments of split nodes not splitting on a), in node
// order — the same order the partition pass consumes answers in.
func (l *lists) collectEnquiryRids(wk *worker, a int, doSplit []bool, splitIdx []int, cands []splitter.Candidate, out []int32) []int32 {
	for i := range wk.active {
		if doSplit[i] && int(cands[splitIdx[i]].Attr) != a {
			out = l.segRids(wk, a, i, out)
		}
	}
	return out
}

// segRids appends the rids of active node i's segment of attribute a.
func (l *lists) segRids(wk *worker, a, i int, out []int32) []int32 {
	sg := l.segs[a][i]
	if wk.schema.Attrs[a].Kind == dataset.Continuous {
		return appendRids(out, l.cont[a][sg.off:sg.off+sg.n])
	}
	return appendRids(out, l.cat[a][sg.off:sg.off+sg.n])
}

// appendRids appends the record ids of list's entries to out.
func appendRids[V float64 | int32](out []int32, list []dataset.Entry[V]) []int32 {
	for _, e := range list {
		out = append(out, e.Rid)
	}
	return out
}

// countChildren adds the number of entries bound for each child to bn, one
// slot per child. A binary split's children are counted as a register sum
// of the child bytes, like countClasses' two classes; multiway splits take
// the per-child loop. A byte >= len(bn) is not caught here: partition's
// scatter indexes bn with it and fails.
func countChildren(bn []int, cs []uint8) {
	if len(bn) == 2 {
		var ones int
		for _, ch := range cs {
			ones += int(ch)
		}
		bn[0] += len(cs) - ones
		bn[1] += ones
		return
	}
	for _, ch := range cs {
		bn[ch]++
	}
}

// partition rebuilds attribute a's list with the next level's nodeCount
// segments, dropping records retired into leaves. Each split node's
// segment is partitioned stably into its child segments (childs(i) gives
// its entries' child numbers) by one counting pass (countChildren: a
// register sum for a binary split) plus one scatter pass into the spare
// backing, which then becomes the live list while the retired one becomes
// the next level's spare: a per-attribute double buffer reused level after
// level.
func partition[V float64 | int32](wk *worker, l *lists, a int, live, spare *[]dataset.Entry[V], doSplit []bool,
	childs func(i int) []uint8, nodeCount int, childIndex [][]int) {
	newSegs := grabRaw(wk.ar, &l.spareSegs[a], nodeCount)
	dst := grabRaw(wk.ar, spare, len(*live))
	out, work := 0, 0
	for i := range wk.active {
		if !doSplit[i] {
			continue
		}
		d := len(childIndex[i])
		sg := l.segs[a][i]
		cs := childs(i)
		work += sg.n
		bn := grab(wk.ar, &l.bucketNs, d)
		countChildren(bn, cs)
		for k := 0; k < d; k++ {
			ni := childIndex[i][k]
			cnt := bn[k]
			if ni < 0 {
				if cnt != 0 {
					panic(fmt.Sprintf("scalparc: %d local entries in globally empty child", cnt))
				}
				continue
			}
			newSegs[ni] = seg{off: out, n: cnt}
			bn[k] = out // repurposed as the child's running write offset
			out += cnt
		}
		for j, e := range (*live)[sg.off : sg.off+sg.n] {
			k := cs[j]
			dst[bn[k]] = e
			bn[k]++
		}
	}
	wk.c.Compute(wk.c.Model().SplitTime(work))

	oldBytes := int64(len(*live)) * dataset.EntrySize[V]()
	newBytes := int64(out) * dataset.EntrySize[V]()
	wk.c.Mem().Alloc(newBytes) // double-buffer peak while both exist
	if !wk.ar.disabled {
		// The retired backing arrays become next level's spares.
		*spare, l.spareSegs[a] = *live, l.segs[a]
	}
	*live, l.segs[a] = dst[:out], newSegs
	wk.c.Mem().Free(oldBytes)
}
