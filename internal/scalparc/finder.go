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
// Options.Split; only FindSplit differs, so everything a strategy needs
// beyond the worker's lists (bin cuts, vote parameters, scratch buffers, its
// section of the checkpoint frame) lives behind this interface and the
// worker never asks which strategy it is running. Implemented by exactFinder,
// binnedFinder, and voteFinder (binnedFinder plus a candidate filter).
type splitFinder interface {
	// prepare runs once on a fresh start, inside the presort phase, right
	// after the continuous lists are sorted — the only moment the global
	// sorted order is laid out in contiguous rank blocks.
	prepare(wk *worker)
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
	// fallbacks feeds Result.VoteFallbacks.
	fallbacks() int
}

// newSplitFinder builds the finder for validated, defaulted options.
func newSplitFinder(opts Options) splitFinder {
	st := frameState{tag: opts.Split, bins: opts.Bins}
	switch opts.Split {
	case SplitBinned:
		return &binnedFinder{frameState: st}
	case SplitVote:
		return &voteFinder{binnedFinder: binnedFinder{frameState: st}, k: opts.VoteK}
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
	// a (nil for categorical attributes), sampled once at presort time and
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

func (*exactFinder) prepare(*worker) {}

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
				for _, e := range wk.cont[a][sg.off : sg.off+sg.n] {
					counts[base+int(e.Cid)]++
				}
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
				m := &f.m
				m.Reset(wk.active[i].node.Hist, prefix[base:base+nc])
				list := wk.cont[a][sg.off : sg.off+sg.n]
				nb := nextBounds[i2*len(contAttrs)+k]
				nextVal, hasNext := nb.Val, nb.Has == 1
				for j, e := range list {
					m.Move(e.Cid)
					nv, ok := nextVal, hasNext
					if j+1 < len(list) {
						nv, ok = list[j+1].Val, true
					}
					if !ok || nv == e.Val {
						continue
					}
					cand := splitter.Candidate{
						Valid:     true,
						Gini:      m.Split(),
						Attr:      int32(a),
						Kind:      splitter.ContSplit,
						Threshold: e.Val,
					}
					best[i2] = splitter.Best(best[i2], cand)
				}
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
