package scalparc

import (
	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/gini"
	"repro/internal/splitter"
	"repro/internal/trace"
)

// splitFinder is the one seam between the level loop and the ways of
// locating a node's best split. The paper's induction loop — presort once,
// then FindSplitI/II and PerformSplitI/II per level — is the same for every
// Options.Split; FindSplit differs, and so does the record layout it reads
// (records.go), so everything a strategy needs beyond the worker's records
// (bin cuts, vote parameters, scratch buffers, its section of the
// checkpoint frame) lives behind this interface and the worker never asks
// which strategy it is running. Implemented by exactFinder (on the
// attribute lists), binnedFinder (on the row store), and voteFinder
// (binnedFinder plus a candidate filter).
type splitFinder interface {
	// prepare runs once on a fresh start, inside the presort phase, before
	// the record layout is loaded: the histogram finders select their cuts
	// from the table there.
	prepare(wk *worker, tab *dataset.Table)
	// find runs FindSplitI and the candidate half of FindSplitII for one
	// batch of need-split nodes (splitIdx maps active-node index to
	// need-split index, -1 if terminated) and returns the globally agreed
	// winner per need-split node. A collective: every rank calls it with
	// the same batch.
	find(wk *worker, splitIdx []int, nNeed int) []splitter.Candidate
	// encodeState and decodeState own the finder's section of the shared
	// checkpoint frame. decodeState fails d unless the frame was written
	// under the strategy and bin count this finder was built for: a resume
	// must continue the run it checkpointed, not a hybrid of two.
	encodeState(e *enc, numAttrs int)
	decodeState(d *dec, schema *dataset.Schema)
	// tracked is the finder's long-lived metered memory in bytes, valid
	// after prepare or decodeState; the worker charges and frees it.
	tracked() int64
	// binCuts is the quantile cut vector per attribute (nil for exact
	// mode), valid after prepare or decodeState; the row store codes rows
	// by it.
	binCuts() [][]float64
	// fallbacks feeds Result.VoteFallbacks.
	fallbacks() int
}

// newSplitFinder builds the finder for validated, defaulted options. rows
// is the row store the histogram finders count from (nil for exact mode,
// and wherever only the finder's frame section is used).
func newSplitFinder(opts Options, rows *rowStore) splitFinder {
	st := frameState{tag: opts.Split, bins: opts.Bins}
	switch opts.Split {
	case SplitBinned:
		return &binnedFinder{frameState: st, rows: rows}
	case SplitVote:
		return &voteFinder{binnedFinder: binnedFinder{frameState: st, rows: rows}, k: opts.VoteK}
	default:
		return &exactFinder{frameState: st}
	}
}

// frameState is the part of a finder that crosses a checkpoint — exactly its
// section of the shared frame: the strategy tag, the bin count, and one
// quantile cut vector per attribute. Every finder embeds it (exactFinder
// with zero bins and no cuts), so the section has one codec.
type frameState struct {
	tag  SplitStrategy
	bins int
	// cuts[a] is the strictly increasing cut vector of continuous attribute
	// a (nil for categorical attributes), selected once at presort time and
	// identical on every rank.
	cuts [][]float64
}

func (s *frameState) encodeState(e *enc, numAttrs int) {
	e.u8(uint8(s.tag))
	e.u32(uint32(s.bins))
	e.u32(uint32(numAttrs))
	for a := 0; a < numAttrs; a++ {
		var cv []float64
		if s.cuts != nil {
			cv = s.cuts[a]
		}
		e.u32(uint32(len(cv)))
		for _, v := range cv {
			e.f64(v)
		}
	}
}

func (s *frameState) decodeState(d *dec, schema *dataset.Schema) {
	tag, bins := SplitStrategy(d.u8()), int(d.u32())
	if d.err == nil && (tag != s.tag || bins != s.bins) {
		d.fail("written by a %v run with %d bins, but Options ask for %v with %d bins", tag, bins, s.tag, s.bins)
	}
	nAttrs := int(d.u32())
	if d.err == nil && nAttrs != schema.NumAttrs() {
		d.fail("%d attributes, schema has %d", nAttrs, schema.NumAttrs())
	}
	if d.err != nil {
		return
	}
	s.cuts = make([][]float64, nAttrs)
	for a := range s.cuts {
		n := int(d.u32())
		if d.err == nil && n > (len(d.b)-d.off)/8 {
			d.fail("truncated cut vector")
		}
		for j := 0; j < n && d.err == nil; j++ {
			s.cuts[a] = append(s.cuts[a], d.finite())
		}
	}
}

func (s *frameState) tracked() int64 {
	var b int64
	for _, cv := range s.cuts {
		b += int64(len(cv)) * 8
	}
	return b
}

func (s *frameState) binCuts() [][]float64 { return s.cuts }

// fallbacks is zero for every finder but voteFinder, which overrides it.
func (*frameState) fallbacks() int { return 0 }

// boundary carries a segment's first value across ranks so the gini scan
// can tell whether its last local entry is a valid split point (a candidate
// "A <= v" is only valid where the next global value differs from v).
type boundary struct {
	Has uint8
	Val float64
}

// exactFinder is the paper's FindSplit: every distinct attribute value is a
// candidate threshold. It has no state beyond its arena buffers.
type exactFinder struct {
	frameState
	counts     []int64
	prefix     []int64
	bounds     []boundary
	nextBounds []boundary
	best       []splitter.Candidate
	bestOut    []splitter.Candidate
	m          gini.Matrix
	catVec     [2][]int64 // double-buffered (consecutive ReduceSums)
}

func (*exactFinder) prepare(*worker, *dataset.Table) {}

func (f *exactFinder) find(wk *worker, splitIdx []int, nNeed int) []splitter.Candidate {
	wk.c.SetPhase(trace.FindSplitI, wk.level)
	contAttrs := wk.schema.ContIndices()
	catAttrs := wk.schema.CatIndices()
	nc := wk.schema.NumClasses()
	model := wk.c.Model()

	best := grab(wk.ar, &f.best, nNeed) // zero value is Invalid

	// --- Continuous attributes ---
	if len(contAttrs) > 0 {
		// FindSplitI: local class counts per (node, attribute); one
		// exclusive prefix scan turns them into each rank's global
		// starting count matrix. Segment-first values travel alongside so
		// scans can validate their final candidate across rank borders.
		counts := grab(wk.ar, &f.counts, nNeed*len(contAttrs)*nc)
		bounds := grab(wk.ar, &f.bounds, nNeed*len(contAttrs))
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
				sg := wk.segs[a][i]
				base := (i2*len(contAttrs) + k) * nc
				countClasses(counts[base:base+nc], wk.cont[a][sg.off:sg.off+sg.n])
				scanned += sg.n
				if sg.n > 0 {
					bounds[i2*len(contAttrs)+k] = boundary{Has: 1, Val: wk.cont[a][sg.off].Val}
				}
			}
		}
		wk.c.Compute(model.ScanTime(scanned))
		transient := int64(len(counts))*8 + int64(len(bounds))*16*2
		wk.c.Mem().Alloc(transient)
		prefix := stash(wk.ar, &f.prefix, comm.ExScanSumInto(wk.c, counts, f.prefix))
		// The first value after each of my segments: fold "first
		// non-empty" over the ranks to my right.
		nextBounds := stash(wk.ar, &f.nextBounds, comm.ReverseExScanInto(wk.c, bounds, f.nextBounds, func(a, b boundary) boundary {
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
				sg := wk.segs[a][i]
				if sg.n == 0 {
					continue
				}
				base := (i2*len(contAttrs) + k) * nc
				f.m.Reset(wk.active[i].Hist, prefix[base:base+nc])
				cand := scanSegment(&f.m, wk.cont[a][sg.off:sg.off+sg.n], nextBounds[i2*len(contAttrs)+k], a)
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
		vec := grab(wk.ar, &f.catVec[ci%2], nNeed*card*nc)
		counted := 0
		for i := range wk.active {
			i2 := splitIdx[i]
			if i2 < 0 || !wk.attrAllowed(i, a) {
				continue
			}
			sg := wk.segs[a][i]
			base := i2 * card * nc
			for _, e := range wk.cat[a][sg.off : sg.off+sg.n] {
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
				m := splitter.FromFlat(red[i2*card*nc:(i2+1)*card*nc], card, nc)
				cand := splitter.BestCategorical(m, a, wk.cfg.CategoricalBinary)
				best[i2] = splitter.Best(best[i2], cand)
			}
		}
		wk.c.Mem().Free(int64(len(vec)) * 8)
	}

	// FindSplitII's closing step: the overall best split per node via a
	// global reduction with the deterministic candidate order.
	wk.c.SetPhase(trace.FindSplitII, wk.level)
	return stash(wk.ar, &f.bestOut, comm.AllReduceInto(wk.c, best, f.bestOut, splitter.Best))
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
