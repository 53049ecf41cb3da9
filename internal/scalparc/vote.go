package scalparc

import (
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/histogram"
	"repro/internal/splitter"
	"repro/internal/trace"
)

// voteFinder is binnedFinder plus a candidate filter, which is how PV-Tree
// defines voting: instead of reduce-scattering the full (node, attribute,
// bin, class) histogram vector — O(attrs) slots per node — each rank scores
// its *local* histograms, nominates its top-k attributes per need-split
// node, and a small fixed-size ballot exchange elects a global candidate set
// of at most 2k attributes per node. Only the candidates' histograms then
// ride binnedFinder.exchange, cutting the dominant FindSplit exchange from
// O(attrs) to O(k) per node. Cuts, the local histogram, the exchange, and
// the checkpoint section are all the embedded finder's.
//
// The local vote orders a node's attributes by local binned gini ascending
// (locally invalid attributes score +Inf), ties toward the lower attribute
// index, and nominates the first min(k, attrs) — so when k >= attrs every
// rank nominates every attribute, the elected set is the full attribute
// set, the restricted layout equals the full layout group for group, and
// the vote tree degenerates to the binned tree bit for bit. The global
// election (splitter.VoteSelect) is a pure function of the ballot multiset
// with deterministic tie-breaking, so every rank computes the identical
// candidate set and the tree cannot depend on rank order.
//
// Two refinements harden the election (DESIGN.md §12):
//
//   - Abstention: below the degenerate regime (k < votable attributes), a
//     rank nominates a locally invalid attribute as a blank (-1), which
//     VoteSelect ignores. Without blanks, ranks whose segments of a small
//     node are empty or pure pad their ballots with the lowest attribute
//     indices, and the count of those spurious votes varies with p — the
//     source of the small-node p-dependence DESIGN.md §10 used to caveat.
//
//   - Re-vote fallback: the elected set is built from local evidence, so it
//     can miss every globally valid split (each rank's segment constant,
//     segments differing across ranks) or hold only splits that do not beat
//     the node's gini while the full histogram has one that does. Every
//     rank sees the same reduced winners, so all ranks agree on the set of
//     nodes needing rescue and re-run exactly those nodes through the
//     exchange over every votable attribute — the binned path restricted to
//     the fallback nodes — instead of silently leafing them. A node the
//     fallback cannot split is a node binned mode would leaf too.
type voteFinder struct {
	binnedFinder
	// k is the per-rank nomination count (Options.VoteK).
	k int
	// rescued counts the nodes the re-vote fallback re-ran.
	rescued int

	// Arena buffers of the election.
	scores     []float64
	votable    []int32
	order      []int32
	ballots    []int32
	ballotsAll []int32
	nodeVotes  []int32
	tally      []int32
	candFlat   []int32
	candSets   [][]int32
	candHist   []uint32

	// Arena buffers of the fallback round: dedicated, never aliasing the
	// elected round's, whose local histogram and winners are still live when
	// the fallback runs.
	fbNodes  []int
	fbActive []int
	fbSets   [][]int32
	fbHist   []uint32
	fbRound  exchangeBufs
}

func (f *voteFinder) fallbacks() int { return f.rescued }

func (f *voteFinder) find(wk *worker, splitIdx []int, nNeed int) []splitter.Candidate {
	nc := wk.schema.NumClasses()
	numAttrs := wk.schema.NumAttrs()
	p := wk.c.Size()
	bins := f.binCounts(wk)
	layout, nodeOf, hist, scanned := f.localHist(wk, bins, splitIdx, nNeed)

	// Local vote: score every group from the local (unreduced) histogram.
	scores := grabRaw(wk.ar, &f.scores, nNeed*numAttrs)
	for i := range scores {
		scores[i] = math.Inf(1)
	}
	below := grabRaw(wk.ar, &f.below, nc)
	above := grabRaw(wk.ar, &f.above, nc)
	for _, grp := range layout.Groups {
		if !wk.attrAllowed(nodeOf[grp.Node], grp.Attr) {
			continue
		}
		cand := f.evalHistGroup(wk, grp, hist[grp.Off:grp.Off+grp.Len], below, above, nc)
		if cand.Valid {
			scores[grp.Node*numAttrs+grp.Attr] = cand.Gini
		}
	}
	wk.c.Compute(wk.c.Model().ScanTime(scanned + layout.Total))

	// Nominate per node the kk best-scoring votable attributes (the ones
	// the layout actually carries). The +Inf score of locally invalid
	// attributes sorts them after every real candidate, so a ballot is
	// always full — no blanks — and k >= attrs nominates everything.
	votable := grabRaw(wk.ar, &f.votable, 0)
	for a, b := range bins {
		if b > 0 {
			votable = append(votable, int32(a))
		}
	}
	votable = stash(wk.ar, &f.votable, votable)
	kk := min(f.k, len(votable))
	order := grabRaw(wk.ar, &f.order, len(votable))
	ballots := grabRaw(wk.ar, &f.ballots, nNeed*kk)
	for i := 0; i < nNeed; i++ {
		sc := scores[i*numAttrs : (i+1)*numAttrs]
		copy(order, votable)
		slices.SortFunc(order, func(a, b int32) int {
			if sc[a] != sc[b] {
				if sc[a] < sc[b] {
					return -1
				}
				return 1
			}
			return int(a - b)
		})
		bal := ballots[i*kk : (i+1)*kk]
		copy(bal, order[:kk])
		if kk < len(votable) {
			// Abstain on locally invalid attributes instead of padding the
			// ballot with them: a padded ballot votes for attrs 0..k-1 and
			// the number of such ballots depends on how the records are cut
			// into rank segments — i.e. on p. Blanks are ignored by
			// VoteSelect, so only real local evidence elects. The degenerate
			// regime (kk == len(votable)) keeps full ballots: there the
			// elected set must be every attribute for the binned-equality
			// anchor, whatever the local evidence.
			for j, a := range bal {
				if math.IsInf(sc[a], 1) {
					bal[j] = -1
				}
			}
		}
	}

	// Global vote: one fixed-size ballot exchange, then every rank runs the
	// identical election per node. Candidate sets are carved out of one flat
	// backing with full slice expressions, so VoteSelect's appends can never
	// reallocate them away from the arena.
	allBallots := stash(wk.ar, &f.ballotsAll, comm.CandidateGatherInto(wk.c, ballots, f.ballotsAll))
	maxPer := min(2*f.k, len(votable))
	tally := grabRaw(wk.ar, &f.tally, numAttrs)
	candFlat := grabRaw(wk.ar, &f.candFlat, nNeed*len(votable))
	candSets := grabRaw(wk.ar, &f.candSets, nNeed)
	votes := grabRaw(wk.ar, &f.nodeVotes, p*kk)
	stride := nNeed * kk
	for i := 0; i < nNeed; i++ {
		for r := 0; r < p; r++ {
			copy(votes[r*kk:(r+1)*kk], allBallots[r*stride+i*kk:r*stride+(i+1)*kk])
		}
		off := i * len(votable)
		candSets[i] = splitter.VoteSelect(votes, numAttrs, maxPer, tally, candFlat[off:off:off+len(votable)])
	}

	// Exchange only the elected candidates' histograms, evaluated from their
	// fused global statistics exactly as the binned path does. The charges
	// for the full and the candidate vector stay until the end: the full
	// vector feeds the fallback.
	sub := histogram.NewLayoutSubset(candSets, bins, nc)
	held := int64(layout.Total+sub.Total) * 4
	wk.c.Mem().Alloc(int64(sub.Total) * 4)
	candHist := project(layout, hist, sub, nil, grabRaw(wk.ar, &f.candHist, sub.Total))
	out := f.exchange(wk, &f.round, sub, candHist, nodeOf, 0)

	// Re-vote fallback: the reduced winners are identical on every rank, so
	// every rank computes the same set of nodes whose election came up empty —
	// no valid elected split, or none beating the node's own gini — and
	// re-runs exactly those nodes through the exchange, now over every
	// votable attribute. The local full histogram (hist) is still live; only
	// the exchange and evaluation are repeated.
	fb := grabRaw(wk.ar, &f.fbNodes, 0)
	for i := 0; i < nNeed; i++ {
		if !out[i].Beats(wk.active[nodeOf[i]].node) {
			fb = append(fb, i)
		}
	}
	fb = stash(wk.ar, &f.fbNodes, fb)
	if len(fb) > 0 {
		wk.c.SetPhase(trace.FindSplitI, wk.level)
		fbSets := grabRaw(wk.ar, &f.fbSets, len(fb))
		fbActive := grabRaw(wk.ar, &f.fbActive, len(fb))
		for j, i := range fb {
			fbSets[j] = votable
			fbActive[j] = nodeOf[i]
		}
		fbLayout := histogram.NewLayoutSubset(fbSets, bins, nc)
		fbBytes := int64(fbLayout.Total) * 4
		wk.c.Mem().Alloc(fbBytes)
		fbHist := project(layout, hist, fbLayout, fb, grabRaw(wk.ar, &f.fbHist, fbLayout.Total))
		// The fallback evaluates a superset of the elected candidates from
		// the same fused statistics, so its winner supersedes the elected
		// one — this is exactly the candidate binned mode would pick.
		for j, c := range f.exchange(wk, &f.fbRound, fbLayout, fbHist, fbActive, fbBytes) {
			out[fb[j]] = c
		}
		f.rescued += len(fb)
	}
	wk.c.Mem().Free(held)
	return out
}

// project copies sub's groups out of the full layout's local histogram into
// dst and returns dst. fullNode maps a sub node index to its full-layout
// node (nil: the same index). sub's groups are a node-major,
// attribute-ascending subset of full's, so a single merge walk finds them.
func project(full *histogram.Layout, hist []uint32, sub *histogram.Layout, fullNode []int, dst []uint32) []uint32 {
	fi := 0
	for _, g := range sub.Groups {
		want := g.Node
		if fullNode != nil {
			want = fullNode[g.Node]
		}
		for full.Groups[fi].Node != want || full.Groups[fi].Attr != g.Attr {
			fi++
		}
		fg := full.Groups[fi]
		copy(dst[g.Off:g.Off+g.Len], hist[fg.Off:fg.Off+fg.Len])
		fi++
	}
	return dst
}
