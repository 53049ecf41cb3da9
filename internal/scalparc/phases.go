package scalparc

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/nodetable"
	"repro/internal/splitter"
	"repro/internal/trace"
)

// findSplits returns the globally agreed winning candidate for every
// need-split node (splitIdx maps active-node index to need-split index,
// -1 if terminated). In the default per-level mode all nodes share one
// batch of the finder's collectives; in the per-node ablation mode (§3.1)
// each node runs its own.
func (wk *worker) findSplits(splitIdx []int, nNeed int) []splitter.Candidate {
	if nNeed == 0 {
		return nil
	}
	if !wk.perNode {
		return wk.finder.find(wk, splitIdx, nNeed)
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
		cands[splitIdx[i]] = wk.finder.find(wk, one, 1)[0]
	}
	return cands
}

// performSplitI walks every splitting attribute's local segments: assigns
// each record its child number, sends the assignments into the record map
// (blocked all-to-all rounds inside), and reduces the global per-child
// class histograms. It returns the per-node child array for the splitting
// attribute's local segment (reused by performSplitII) and the global
// child histograms. The per-node ablation mode runs one record-map update
// and one reduction per node instead of one per level.
func (wk *worker) performSplitI(doSplit []bool, splitIdx []int, cands []splitter.Candidate) ([][]uint8, [][][]int64) {
	if !wk.perNode {
		return wk.performSplitIBatch(doSplit, splitIdx, cands)
	}
	splitChild := make([][]uint8, len(wk.active))
	childHists := make([][][]int64, len(wk.active))
	mask := make([]bool, len(wk.active))
	for i := range wk.active {
		if !doSplit[i] {
			continue
		}
		mask[i] = true
		sc, ch := wk.performSplitIBatch(mask, splitIdx, cands)
		mask[i] = false
		splitChild[i] = sc[i]
		childHists[i] = ch[i]
	}
	return splitChild, childHists
}

func (wk *worker) performSplitIBatch(doSplit []bool, splitIdx []int, cands []splitter.Candidate) ([][]uint8, [][][]int64) {
	wk.c.SetPhase(trace.PerformSplitI, wk.level)
	nc := wk.schema.NumClasses()
	model := wk.c.Model()

	offsets := grabRaw(wk.ar, &wk.ar.offsets, len(wk.active))
	total, entTotal, dTotal := 0, 0, 0
	for i := range wk.active {
		offsets[i] = -1
		if doSplit[i] {
			offsets[i] = total
			d := len(wk.active[i].node.Children)
			total += d * nc
			dTotal += d
			entTotal += wk.segs[int(cands[splitIdx[i]].Attr)][i].n
		}
	}

	vec := grab(wk.ar, &wk.ar.vec, total)
	childsBuf := grabRaw(wk.ar, &wk.ar.childsBuf, entTotal)
	splitChild := grab(wk.ar, &wk.ar.splitChild, len(wk.active))
	assigns := grabRaw(wk.ar, &wk.ar.assigns, 0)
	work := 0
	for i := range wk.active {
		if !doSplit[i] {
			continue
		}
		cand := cands[splitIdx[i]]
		a := int(cand.Attr)
		sg := wk.segs[a][i]
		childs := childsBuf[work : work+sg.n]
		if wk.schema.Attrs[a].Kind == dataset.Continuous {
			for j, e := range wk.cont[a][sg.off : sg.off+sg.n] {
				ch := cand.ContChild(e.Val)
				childs[j] = ch
				vec[offsets[i]+int(ch)*nc+int(e.Cid)]++
				assigns = append(assigns, nodetable.Assignment{Rid: e.Rid, Child: ch})
			}
		} else {
			for j, e := range wk.cat[a][sg.off : sg.off+sg.n] {
				ch := cand.CatChild(e.Val)
				childs[j] = ch
				vec[offsets[i]+int(ch)*nc+int(e.Cid)]++
				assigns = append(assigns, nodetable.Assignment{Rid: e.Rid, Child: ch})
			}
		}
		splitChild[i] = childs
		work += sg.n
	}
	wk.c.Compute(model.SplitTime(work))

	stash(wk.ar, &wk.ar.assigns, assigns)

	// Assignment buffer (8 bytes each) plus the per-entry child arrays
	// (1 byte each, alive until phase II consumes them).
	wk.c.Mem().Alloc(int64(work) * 9)
	wk.rm.Update(assigns)
	wk.c.Mem().Free(int64(work) * 8) // assignments delivered

	// The reduced histograms are subsliced into the tree's nodes, which
	// outlive the level — global must be a fresh allocation, never arena
	// scratch.
	var global []int64
	if total > 0 {
		wk.c.Mem().Alloc(int64(total) * 8)
		global = comm.AllReduceSum(wk.c, vec)
		wk.c.Mem().Free(int64(total) * 8)
	}

	histsBuf := grabRaw(wk.ar, &wk.ar.histsBuf, dTotal)
	childHists := grab(wk.ar, &wk.ar.childHists, len(wk.active))
	used := 0
	for i, ns := range wk.active {
		if !doSplit[i] {
			continue
		}
		d := len(ns.node.Children)
		childHists[i] = histsBuf[used : used+d]
		used += d
		for k := 0; k < d; k++ {
			childHists[i][k] = global[offsets[i]+k*nc : offsets[i]+(k+1)*nc]
		}
	}
	return splitChild, childHists
}

// buildChildren grows the next level's tree nodes (splitter.Grow) and
// active set, identically on every rank. It returns the new active set and,
// per old node and child number, the index into the new active set (-1 for
// empty children, which Grow makes leaves).
func (wk *worker) buildChildren(doSplit []bool, childHists [][][]int64) ([]*nodeState, [][]int) {
	var next []*nodeState
	dTotal := 0
	for i := range wk.active {
		if doSplit[i] {
			dTotal += len(childHists[i])
		}
	}
	childIdxBuf := grabRaw(wk.ar, &wk.ar.childIdxBuf, dTotal)
	childIndex := grab(wk.ar, &wk.ar.childIndex, len(wk.active))
	used := 0
	for i, ns := range wk.active {
		if !doSplit[i] {
			continue
		}
		splitter.Grow(ns.node, childHists[i])
		childIndex[i] = childIdxBuf[used : used+len(childHists[i])]
		used += len(childHists[i])
		for k, child := range ns.node.Children {
			childIndex[i][k] = -1
			if !child.Leaf {
				childIndex[i][k] = len(next)
				next = append(next, &nodeState{node: child, depth: ns.depth + 1})
			}
		}
	}
	return next, childIndex
}

// performSplitII splits every attribute list consistently with the level's
// decisions: splitting attributes reuse the child assignments from phase I;
// all other attributes enquire the record map, one attribute at a time.
func (wk *worker) performSplitII(doSplit []bool, splitIdx []int, cands []splitter.Candidate,
	splitChild [][]uint8, next []*nodeState, childIndex [][]int) {

	wk.c.SetPhase(trace.PerformSplitII, wk.level)
	model := wk.c.Model()

	// The tech-report optimization: gather every attribute's enquiry rids
	// up front and resolve them in one round, trading n_a-times larger
	// buffers for 2·(n_a - 2) fewer all-to-all steps per level.
	var batchedAnswers []uint8
	var batchedOffsets []int
	if wk.batched {
		all := grabRaw(wk.ar, &wk.ar.enqRids, 0)
		batchedOffsets = grabRaw(wk.ar, &wk.ar.offCache, wk.schema.NumAttrs()+1)
		for a := range wk.schema.Attrs {
			batchedOffsets[a] = len(all)
			all = wk.collectEnquiryRids(a, doSplit, splitIdx, cands, all)
		}
		batchedOffsets[wk.schema.NumAttrs()] = len(all)
		stash(wk.ar, &wk.ar.enqRids, all)
		batchedAnswers = wk.rm.Lookup(all)
	}

	for a := range wk.schema.Attrs {
		isCont := wk.schema.Attrs[a].Kind == dataset.Continuous

		// Enquiry pass: rids of every segment that needs child numbers
		// from the record map, in node order. Per-level mode batches the
		// whole attribute into one enquiry, reusing one rid buffer across
		// attributes; the per-node ablation runs a separate enquiry per
		// node. Lookup's result is only valid until the next Lookup, which
		// is fine: each attribute's answers are consumed by its own
		// partition pass below.
		var answers []uint8
		switch {
		case wk.batched:
			answers = batchedAnswers[batchedOffsets[a]:batchedOffsets[a+1]]
		case wk.perNode:
			for i := range wk.active {
				if !doSplit[i] || int(cands[splitIdx[i]].Attr) == a {
					continue
				}
				rids := wk.segRids(a, i, make([]int32, 0, wk.segs[a][i].n))
				answers = append(answers, wk.rm.Lookup(rids)...)
			}
		default:
			rids := wk.collectEnquiryRids(a, doSplit, splitIdx, cands, grabRaw(wk.ar, &wk.ar.enqRids, 0))
			stash(wk.ar, &wk.ar.enqRids, rids)
			answers = wk.rm.Lookup(rids)
		}

		// Partition pass: rebuild the attribute's backing with the next
		// level's segments (dropping records retired into leaves). Each
		// node's segment is partitioned stably into its child segments by
		// one counting pass plus one scatter pass into a spare backing
		// array, which is then swapped with the live one — a per-attribute
		// double buffer reused level after level.
		newSegs := grabRaw(wk.ar, &wk.ar.spareSegs[a], len(next))
		spareCont := wk.ar.spareCont[a]
		spareCat := wk.ar.spareCat[a]
		if isCont {
			spareCont = grabRaw(wk.ar, &wk.ar.spareCont[a], len(wk.cont[a]))
		} else {
			spareCat = grabRaw(wk.ar, &wk.ar.spareCat[a], len(wk.cat[a]))
		}
		cursor, out := 0, 0
		oldBytes := int64(len(wk.cont[a]))*dataset.ContEntrySize + int64(len(wk.cat[a]))*dataset.CatEntrySize
		work := 0
		for i := range wk.active {
			if !doSplit[i] {
				continue
			}
			d := len(childIndex[i])
			sg := wk.segs[a][i]
			var childs []uint8
			if int(cands[splitIdx[i]].Attr) == a {
				childs = splitChild[i]
			} else {
				childs = answers[cursor : cursor+sg.n]
				cursor += sg.n
			}
			work += sg.n
			bn := grab(wk.ar, &wk.ar.bucketNs, d)
			for _, ch := range childs {
				bn[ch]++
			}
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
			if isCont {
				for j, e := range wk.cont[a][sg.off : sg.off+sg.n] {
					k := childs[j]
					spareCont[bn[k]] = e
					bn[k]++
				}
			} else {
				for j, e := range wk.cat[a][sg.off : sg.off+sg.n] {
					k := childs[j]
					spareCat[bn[k]] = e
					bn[k]++
				}
			}
		}
		wk.c.Compute(model.SplitTime(work))

		newCont, newCat := spareCont[:0], spareCat[:0]
		if isCont {
			newCont = spareCont[:out]
		} else {
			newCat = spareCat[:out]
		}
		newBytes := int64(len(newCont))*dataset.ContEntrySize + int64(len(newCat))*dataset.CatEntrySize
		wk.c.Mem().Alloc(newBytes) // double-buffer peak while both exist
		if !wk.ar.disabled {
			// The retired backing arrays become next level's spares.
			if isCont {
				wk.ar.spareCont[a] = wk.cont[a]
			} else {
				wk.ar.spareCat[a] = wk.cat[a]
			}
			wk.ar.spareSegs[a] = wk.segs[a]
		}
		if isCont {
			wk.cont[a] = newCont
		} else {
			wk.cat[a] = newCat
		}
		wk.segs[a] = newSegs
		wk.c.Mem().Free(oldBytes)
		wk.listBytes += newBytes - oldBytes
	}

	// The phase-I child arrays (1 byte per entry) are no longer needed.
	var childBytes int64
	for _, cs := range splitChild {
		childBytes += int64(len(cs))
	}
	wk.c.Mem().Free(childBytes)
}

// collectEnquiryRids appends the rids of attribute a's segments that need
// record-map answers (segments of split nodes not splitting on a), in node
// order — the same order the partition pass consumes answers in.
func (wk *worker) collectEnquiryRids(a int, doSplit []bool, splitIdx []int, cands []splitter.Candidate, out []int32) []int32 {
	for i := range wk.active {
		if doSplit[i] && int(cands[splitIdx[i]].Attr) != a {
			out = wk.segRids(a, i, out)
		}
	}
	return out
}

// segRids appends the rids of active node i's segment of attribute a.
func (wk *worker) segRids(a, i int, out []int32) []int32 {
	sg := wk.segs[a][i]
	if wk.schema.Attrs[a].Kind == dataset.Continuous {
		for _, e := range wk.cont[a][sg.off : sg.off+sg.n] {
			out = append(out, e.Rid)
		}
	} else {
		for _, e := range wk.cat[a][sg.off : sg.off+sg.n] {
			out = append(out, e.Rid)
		}
	}
	return out
}
