package scalparc

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/gini"
	"repro/internal/nodetable"
	"repro/internal/psort"
	"repro/internal/splitter"
	"repro/internal/trace"
)

// lists is exact mode's records: cont[a] / cat[a] hold the local fragments
// of every active node's list for attribute a, concatenated in node order;
// segs[a][i] locates node i's segment. The record map carries each level's
// child numbers from the splitting attributes' lists to the others. Its
// frame section holds no cuts.
type lists struct {
	frameState
	rm   RecordMap
	cont [][]dataset.ContEntry
	cat  [][]dataset.CatEntry
	segs [][]seg
	// contAttrs and catAttrs index the schema's continuous and categorical
	// attributes, set once by load.
	contAttrs, catAttrs []int

	// splitChild[i] is PerformSplitI's child number per entry of split
	// node i's segment of its splitting attribute, read by split. Kept
	// across the per-node passes of one level (Options.PerNodeComms), so
	// it is not arena scratch.
	splitChild [][]uint8

	// Arena buffers (see scratch.go for the reuse rules). FindSplit:
	counts     []int64
	prefix     []int64
	bounds     []boundary
	nextBounds []boundary
	best       []splitter.Candidate
	bestOut    []splitter.Candidate
	m          gini.Matrix
	catVec     [2][]int64 // double-buffered (consecutive ReduceSums)
	// PerformSplitI (assign):
	assigns   []nodetable.Assignment
	childsBuf []uint8
	// PerformSplitII (split, partition):
	enqRids   []int32
	bucketNs  []int                 // counting-sort child counts, then running offsets
	spareCont [][]dataset.ContEntry // double buffers swapped with the lists
	spareCat  [][]dataset.CatEntry
	spareSegs [][]seg
}

// newLists builds empty lists for numAttrs attributes over the record map
// rm.
func newLists(rm RecordMap, numAttrs int) *lists {
	return &lists{
		rm:        rm,
		cont:      make([][]dataset.ContEntry, numAttrs),
		cat:       make([][]dataset.CatEntry, numAttrs),
		segs:      make([][]seg, numAttrs),
		spareCont: make([][]dataset.ContEntry, numAttrs),
		spareCat:  make([][]dataset.CatEntry, numAttrs),
		spareSegs: make([][]seg, numAttrs),
	}
}

// load builds this rank's block of every attribute list and sorts the
// continuous ones globally (psort.Sort: sample sort + shift), after which
// rank r holds positions BlockRange(N, p, r) of each; the categorical lists
// stay in record order.
func (l *lists) load(wk *worker, tab *dataset.Table) {
	lo, hi := dataset.BlockRange(wk.n, wk.c.Size(), wk.c.Rank())
	local := dataset.BuildLists(tab.Slice(lo, hi), lo)
	l.contAttrs, l.catAttrs = wk.schema.ContIndices(), wk.schema.CatIndices()
	var sorter psort.Sorter
	for _, a := range l.contAttrs {
		local.Cont[a] = sorter.Sort(wk.c, local.Cont[a])
	}
	l.cont, l.cat = local.Cont, local.Cat
	// One segment per attribute (cont[a] or cat[a], whichever the
	// attribute has): the root owns everything.
	for a := range l.segs {
		l.segs[a] = []seg{{0, len(l.cont[a]) + len(l.cat[a])}}
	}
}

// held reads attribute 0's list (cont[0] or cat[0], the other is empty):
// every attribute's list holds the same records.
func (l *lists) held() int { return len(l.cont[0]) + len(l.cat[0]) }

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

// boundary carries a segment's first value across ranks so the gini scan
// can tell whether its last local entry is a valid split point (a candidate
// "A <= v" is only valid where the next global value differs from v).
type boundary struct {
	Has uint8
	Val float64
}

// find is the paper's FindSplit: every distinct attribute value is a
// candidate threshold.
func (l *lists) find(wk *worker, splitIdx []int, nNeed int) []splitter.Candidate {
	wk.c.SetPhase(trace.FindSplitI, wk.level)
	contAttrs, catAttrs := l.contAttrs, l.catAttrs
	nc := wk.schema.NumClasses()
	model := wk.c.Model()

	best := grab(wk.ar, &l.best, nNeed) // zero value is Invalid

	// --- Continuous attributes ---
	if len(contAttrs) > 0 {
		// FindSplitI: local class counts per (node, attribute); one
		// exclusive prefix scan turns them into each rank's global
		// starting count matrix. Segment-first values travel alongside so
		// scans can validate their final candidate across rank borders.
		counts := grab(wk.ar, &l.counts, nNeed*len(contAttrs)*nc)
		bounds := grab(wk.ar, &l.bounds, nNeed*len(contAttrs))
		scanned := 0
		for i := range wk.active {
			i2 := splitIdx[i]
			if i2 < 0 {
				continue
			}
			for k, a := range contAttrs {
				if !wk.attrAllowed(i, a) {
					// Feature-masked (node, attribute) pairs keep their
					// (zero) slots in the scan vectors — the collective
					// shapes must match on every rank — but are neither
					// counted nor evaluated. The mask is replicated, so
					// every rank skips the same pairs.
					continue
				}
				sg := l.segs[a][i]
				base := (i2*len(contAttrs) + k) * nc
				countClasses(counts[base:base+nc], l.cont[a][sg.off:sg.off+sg.n])
				scanned += sg.n
				if sg.n > 0 {
					bounds[i2*len(contAttrs)+k] = boundary{Has: 1, Val: l.cont[a][sg.off].Val}
				}
			}
		}
		wk.c.Compute(model.ScanTime(scanned))
		transient := int64(len(counts))*8 + int64(len(bounds))*16*2
		wk.c.Mem().Alloc(transient)
		prefix := stash(wk.ar, &l.prefix, comm.ExScanSumInto(wk.c, counts, l.prefix))
		// The first value after each of my segments: fold "first
		// non-empty" over the ranks to my right.
		nextBounds := stash(wk.ar, &l.nextBounds, comm.ReverseExScanInto(wk.c, bounds, l.nextBounds, func(a, b boundary) boundary {
			if a.Has == 1 {
				return a
			}
			return b
		}, boundary{}))

		// FindSplitII: linear gini scan of every local segment.
		wk.c.SetPhase(trace.FindSplitII, wk.level)
		for i := range wk.active {
			i2 := splitIdx[i]
			if i2 < 0 {
				continue
			}
			for k, a := range contAttrs {
				if !wk.attrAllowed(i, a) {
					continue
				}
				sg := l.segs[a][i]
				if sg.n == 0 {
					continue
				}
				base := (i2*len(contAttrs) + k) * nc
				l.m.Reset(wk.active[i].Hist, prefix[base:base+nc])
				cand := scanSegment(&l.m, l.cont[a][sg.off:sg.off+sg.n], nextBounds[i2*len(contAttrs)+k], a)
				best[i2] = splitter.Best(best[i2], cand)
			}
		}
		wk.c.Compute(model.ScanTime(scanned))
		wk.c.Mem().Free(transient)
	}

	// --- Categorical attributes: count matrices reduced onto a
	// designated coordinator per attribute, which evaluates the splits.
	// Counting and reducing is FindSplitI work, like the prefix scan.
	if len(catAttrs) > 0 {
		wk.c.SetPhase(trace.FindSplitI, wk.level)
	}
	for ci, a := range catAttrs {
		card := wk.schema.Attrs[a].Cardinality()
		// Double-buffered: consecutive per-attribute ReduceSums have no
		// gating collective between them, so the vector deposited for
		// attribute ci may still be folding while ci+1 fills its own.
		vec := grab(wk.ar, &l.catVec[ci%2], nNeed*card*nc)
		counted := 0
		for i := range wk.active {
			i2 := splitIdx[i]
			if i2 < 0 || !wk.attrAllowed(i, a) {
				continue
			}
			sg := l.segs[a][i]
			base := i2 * card * nc
			for _, e := range l.cat[a][sg.off : sg.off+sg.n] {
				vec[base+int(e.Val)*nc+int(e.Cid)]++
			}
			counted += sg.n
		}
		wk.c.Compute(model.ScanTime(counted))
		wk.c.Mem().Alloc(int64(len(vec)) * 8)
		root := a % wk.c.Size()
		red := comm.ReduceSum(wk.c, root, vec)
		if wk.c.Rank() == root {
			for i := range wk.active {
				i2 := splitIdx[i]
				if i2 < 0 || !wk.attrAllowed(i, a) {
					continue
				}
				m := splitter.CountMatrix{Counts: red[i2*card*nc : (i2+1)*card*nc], Classes: nc}
				cand := splitter.BestCategorical(&m, a, wk.cfg.CategoricalBinary)
				best[i2] = splitter.Best(best[i2], cand)
			}
		}
		wk.c.Mem().Free(int64(len(vec)) * 8)
	}

	// FindSplitII's closing step: the overall best split per node via a
	// global reduction with the deterministic candidate order.
	wk.c.SetPhase(trace.FindSplitII, wk.level)
	return stash(wk.ar, &l.bestOut, comm.AllReduceInto(wk.c, best, l.bestOut, splitter.Best))
}

// countClasses adds the class counts of list's entries to counts, one slot
// per class. Two classes are counted as a register sum of the class ids —
// the ones, with the zeros the rest — instead of a read-modify-write of a
// counter slot per entry, whose store-to-load chain on two hot slots would
// bound the loop; more classes take the per-class loop.
func countClasses(counts []int64, list []dataset.ContEntry) {
	if len(counts) == 2 {
		var ones int
		for _, e := range list {
			ones += int(e.Cid)
		}
		counts[0] += int64(len(list) - ones)
		counts[1] += int64(ones)
		return
	}
	for _, e := range list {
		counts[e.Cid]++
	}
}

// scanSegment is FindSplitII's gini scan of one non-empty local segment of
// attribute attr's list: m, seeded with the segment's global starting
// counts, steps past every entry, and the split "A <= v" is a candidate
// wherever the next global value differs from v. Only the last entry's next
// value lies on another rank (nb, the first value after the segment, if
// any), so it is checked after the loop and the loop itself reads the next
// local entry unconditionally. The four running sums stay in a local
// gini.Sums and the winner in a local contBest, so per entry only the two
// class counters it moves are written to memory; m's class vectors end the
// scan at the segment's end counts, its own sums stay as Reset left them.
func scanSegment(m *gini.Matrix, list []dataset.ContEntry, nb boundary, attr int) splitter.Candidate {
	var best contBest
	s := m.Sums()
	last := len(list) - 1
	for j, e := range list[:last] {
		s = m.Step(s, e.Cid)
		if list[j+1].Val != e.Val {
			best = best.fold(s.Split(), e.Val)
		}
	}
	e := list[last]
	s = m.Step(s, e.Cid)
	if nb.Has == 1 && nb.Val != e.Val {
		best = best.fold(s.Split(), e.Val)
	}
	return best.candidate(attr)
}

// contBest is the running winner of one continuous (node, attribute) scan,
// held in locals (registers between gini calls), so no splitter.Candidate
// is built or stored per split point. Folded in ascending threshold order
// it is exactly splitter.Best over the scan's candidates: they share Attr,
// Kind and Subset and their thresholds strictly increase, so under
// splitter.Better a later candidate wins only with a strictly lower gini.
// Both the exact scan and the binned boundary scan fold through it.
type contBest struct {
	found     bool
	gini      float64
	threshold float64
}

// fold returns b with the candidate "A <= threshold" of gini g folded in;
// threshold must exceed every threshold already folded.
func (b contBest) fold(g, threshold float64) contBest {
	if !b.found || g < b.gini {
		return contBest{found: true, gini: g, threshold: threshold}
	}
	return b
}

// candidate is the winner as a splitter.Candidate of attribute attr, or
// splitter.Invalid when nothing was folded.
func (b contBest) candidate(attr int) splitter.Candidate {
	if !b.found {
		return splitter.Invalid
	}
	return splitter.Candidate{Valid: true, Gini: b.gini, Attr: int32(attr), Kind: splitter.ContSplit, Threshold: b.threshold}
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

// split splits every attribute list consistently with the level's
// decisions: splitting attributes reuse the child assignments from phase I;
// all other attributes enquire the record map, in rounds. A round covers
// one attribute, as in the paper, or every attribute under
// Options.BatchedEnquiry (the tech report's schedule: n_a-times larger
// buffers for 2·(n_a − 1) fewer all-to-all steps per level).
func (l *lists) split(wk *worker, doSplit []bool, splitIdx []int, cands []splitter.Candidate, nextCount int, childIndex [][]int) {
	na := wk.schema.NumAttrs()
	run := 1
	if wk.opts.BatchedEnquiry {
		run = na
	}
	// enquires reports whether node i's segment of attribute a needs
	// record-map answers: it splits, on another attribute.
	enquires := func(a, i int) bool { return doSplit[i] && int(cands[splitIdx[i]].Attr) != a }
	for first := 0; first < na; first += run {
		last := min(first+run, na)
		// Enquiry: the round's rids in attribute order, then node order —
		// the order the partitions below consume the answers in. One
		// Lookup per round; the per-node ablation makes one per segment
		// and appends the answers, since a Lookup's result is only valid
		// until the next.
		rids := grabRaw(wk.ar, &l.enqRids, 0)
		var answers []uint8
		for a := first; a < last; a++ {
			for i := range wk.active {
				if enquires(a, i) {
					n := len(rids)
					rids = l.segRids(wk, a, i, rids)
					if wk.opts.PerNodeComms {
						answers = append(answers, l.rm.Lookup(rids[n:])...)
					}
				}
			}
		}
		stash(wk.ar, &l.enqRids, rids)
		if !wk.opts.PerNodeComms {
			answers = l.rm.Lookup(rids)
		}

		// A split node's entries take phase I's child numbers on its
		// splitting attribute and the next answers on every other, one
		// cursor across the round's attributes.
		cursor := 0
		for a := first; a < last; a++ {
			childs := func(i int) []uint8 {
				if !enquires(a, i) {
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
