package scalparc

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/tree"
)

// blindVoteTable constructs the scenario the re-vote fallback exists for:
// every attribute is locally invalid on every rank (so, pre-fallback, the
// election comes up empty and the node is silently leafed), yet one
// attribute has a perfectly valid global split. Attributes 0 and 1 are
// globally constant; attribute 2 is constant within each contiguous
// rank-sized block but steps across blocks, tracking the class exactly. At
// p=2 with 8 rows each rank's local histogram puts all its records in one
// bin of attribute 2, so no rank can nominate it — only the fused global
// histogram reveals the boundary. TestVoteFallbackRescuesBlindElection
// holds the vote tree to the binned tree, its root to a split, and every
// multi-rank run to a recorded fallback.
func blindVoteTable() *dataset.Table {
	schema := &dataset.Schema{Classes: []string{"lo", "hi"}, Attrs: []dataset.Attribute{
		{Name: "flat0", Kind: dataset.Continuous}, {Name: "flat1", Kind: dataset.Continuous}, {Name: "step", Kind: dataset.Continuous}}}
	return handTable(schema, 8, func(r int) ([]float64, int) {
		if r >= 4 {
			return []float64{0, 0, 1}, 1
		}
		return []float64{0, 0, 0}, 0
	})
}

// assertVoteNeverLeafsBinnedSplit walks the two trees in lockstep down their
// shared prefix: at every node both trees reached through identical
// decisions the record populations are identical, so if binned split the
// node, the vote tree leafing it means an elected candidate set silently
// swallowed a valid split — the exact bug the re-vote fallback closes. Where
// the decisions legitimately diverge (different winning attribute or
// threshold) the subtrees see different records and comparison stops.
func assertVoteNeverLeafsBinnedSplit(t *testing.T, vote, binned *tree.Node, path string) {
	t.Helper()
	if vote.Leaf {
		if !binned.Leaf {
			t.Errorf("node %s: vote leafed a node binned splits (on attr %d)", path, binned.Attr)
		}
		return
	}
	if binned.Leaf {
		return
	}
	if vote.Attr != binned.Attr || vote.Threshold != binned.Threshold ||
		len(vote.Children) != len(binned.Children) {
		return
	}
	for i := range vote.Children {
		assertVoteNeverLeafsBinnedSplit(t, vote.Children[i], binned.Children[i], path+"."+string(rune('0'+i)))
	}
}

// TestVoteNeverLeafsWhereBinnedSplits is the differential pin for the
// re-vote fallback across organic scenarios: wide noisy Quest tables, small
// k, several processor counts — no node on the trees' shared prefix may be
// a vote leaf and a binned split.
func TestVoteNeverLeafsWhereBinnedSplits(t *testing.T) {
	for _, fn := range []int{1, 2, 3} {
		tab := quest(datagen.Config{Function: fn, Attrs: datagen.Seven, Seed: 7}, 1200, 40, splitter.Config{}).tab(t)
		cfg := splitter.Config{MinSplit: 4}
		for _, p := range []int{1, 3, 4} {
			w := comm.NewWorld(p, timing.T3D())
			binned, err := TrainOpts(w, tab, cfg, Options{Split: SplitBinned, Bins: 32})
			if err != nil {
				t.Fatalf("fn=%d p=%d binned: %v", fn, p, err)
			}
			w = comm.NewWorld(p, timing.T3D())
			vote, err := TrainOpts(w, tab, cfg, Options{Split: SplitVote, Bins: 32, VoteK: 2})
			if err != nil {
				t.Fatalf("fn=%d p=%d vote: %v", fn, p, err)
			}
			assertVoteNeverLeafsBinnedSplit(t, vote.Tree.Root, binned.Tree.Root, "root")
		}
	}
}

// regionVoteTable is the small-node p-invariance family for the
// blank-abstention fix: 64 rows in 8 rank-aligned blocks of 8. Block 0 is
// the "A-region" (attribute A splits its classes perfectly), blocks 1-2 are
// the "B-region" (attribute B splits them, imperfectly — one row on each
// side crosses over, so A's fused gini globally edges out B's), and blocks
// 3-7 are pure ballast where every attribute is constant. Attribute 0 is a
// globally constant decoy in front of both.
//
// Pre-abstention, ballast ranks' ballots were not blank: with every local
// score +Inf the sort fell back to index order and each blind rank cast a
// full ballot for the decoy. At p=8 that made the tally decoy×5, B×2, A×1,
// so the elected set (capped at 2k=2 with k=1) was {decoy, B} — the
// globally best attribute A was crowded out and the root split on B, while
// p=1 split on A: the election was processor-dependent. With abstention the
// blind ranks cast no votes, the tally is B×2, A×1, both fit the elected
// set, and the fused evaluation picks A at every p.
// TestVoteSmallNodePInvariance's rows hold the vote tree to the binned tree
// at every p down to MinSplit=2 with no depth cap, past the regime DESIGN.md
// §10 used to caveat.
func regionVoteTable() *dataset.Table {
	schema := &dataset.Schema{Classes: []string{"c0", "c1", "c2"}, Attrs: []dataset.Attribute{
		{Name: "decoy", Kind: dataset.Continuous}, {Name: "a", Kind: dataset.Continuous}, {Name: "b", Kind: dataset.Continuous}}}
	return handTable(schema, 64, func(r int) ([]float64, int) {
		a, b, class := 0.0, 0.0, 0
		switch blk := r / 8; {
		case blk == 0: // A-region: a separates c0 from c1 perfectly.
			if r%8 >= 4 {
				a, class = 1.0, 1
			}
		case blk <= 2: // B-region: b separates c0 from c2, 1 crossover/side.
			in := r % 8
			if in >= 4 {
				b = 1.0
			}
			if in == 3 || in >= 5 { // rows 3 and 4 are the crossovers
				class = 2
			}
		default: // ballast: pure c0, every attribute constant.
		}
		return []float64{0, a, b}, class
	})
}
