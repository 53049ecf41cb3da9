package bench

// EXP-VOTE / GUARD-VOTE: top-k attribute-voting split finding on wide,
// sparsely-informative schemas — the workload the vote protocol exists
// for. The fixed scenario is the Quest seven-attribute projection padded
// with 193 pure-noise continuous attributes (200 attributes total, a
// handful informative), where the binned reduce-scatter must ship every
// attribute's histogram each level but voting ships only the elected
// candidates'.

import (
	"fmt"
	"os"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/scalparc"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
)

// These constants pin the EXP-VOTE scenario: the wide Quest table
// (seed, function, rows, noise attributes), the histogram resolution, and
// the training regime. MinSplit/MaxDepth keep every need-split node large
// relative to the rank count, the regime in which small-k vote trees are
// processor-invariant (DESIGN.md §10) — the guard's tree-identity gate
// depends on it.
const (
	VoteRecords  = 1600
	VoteNoise    = 193 // 7 Quest attributes + 193 noise = 200 total
	VoteProcs    = 4
	VoteBins     = 32
	VoteMinSplit = 40
	VoteMaxDepth = 3
	voteFunction = 2
	voteSeed     = 3
	voteTestSeed = 99
	voteTestRows = 800
)

// voteTables generates the pinned wide training table and an
// independently seeded held-out table from the same distribution.
func voteTables() (train, test *dataset.Table, err error) {
	wide := func(seed int64, rows int) (*dataset.Table, error) {
		return datagen.GenerateWide(datagen.Config{Function: voteFunction, Attrs: datagen.Seven, Seed: seed}, rows, VoteNoise)
	}
	if train, err = wide(voteSeed, VoteRecords); err != nil {
		return nil, nil, err
	}
	if test, err = wide(voteTestSeed, voteTestRows); err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// voteMeasure trains every given mode on the pinned scenario at p
// processors, reducing each run to a point.
func voteMeasure(modes []scalparc.Options, train, test *dataset.Table, p int) ([]SplitPoint, []*scalparc.Result, error) {
	return measureSplits(modes, p, timing.T3D(), splitter.Config{MinSplit: VoteMinSplit, MaxDepth: VoteMaxDepth}, train, test)
}

func voteOptions(k int) scalparc.Options {
	return scalparc.Options{Split: scalparc.SplitVote, Bins: VoteBins, VoteK: k}
}

var voteBinned = scalparc.Options{Split: scalparc.SplitBinned, Bins: VoteBins}

// Vote runs and prints EXP-VOTE: exact vs binned vs top-k voting on the
// pinned wide scenario — the mode ladder is fixed: exact, binned, and voting
// across the k knob up to the degenerate k = attrs. The measurements ride the
// deterministic virtual clocks, so the table is archived in
// experiments_output.txt: drift is a code change, not host noise, and
// `make experiments-check` reports it.
func Vote(e *Env) error {
	w := e.Out
	fmt.Fprintf(w, "EXP-VOTE — split finding on a wide schema (%s records, %d attributes, %d processors)\n",
		human(VoteRecords), 7+VoteNoise, VoteProcs)
	train, test, err := voteTables()
	if err != nil {
		return err
	}
	modes := []scalparc.Options{{}, voteBinned, voteOptions(1), voteOptions(3), voteOptions(8), voteOptions(train.Schema.NumAttrs())}
	points, _, err := voteMeasure(modes, train, test, VoteProcs)
	if err != nil {
		return err
	}
	splitTable(w, modes, points, true)
	return nil
}

// GUARD-VOTE thresholds: the byte gate demands voting at least halve the
// binned FindSplitI volume on the wide scenario, and the fidelity gate
// holds the held-out accuracy within one percentage point of the exact
// tree's.
const (
	voteGuardByteFactor  = 2.0
	voteGuardAccuracyGap = 0.01
)

// writeVoteArtifact dumps the failing vote run's per-rank virtual
// timelines as a Chrome trace into VOTE_ARTIFACT_DIR (CI uploads it on
// guard failure), so a tripped gate leaves the full per-phase
// communication picture behind, not just the two totals.
func writeVoteArtifact(tr *trace.Trace) error {
	return writeArtifact(os.Getenv("VOTE_ARTIFACT_DIR"), "vote_guard_trace.json", tr.WriteChrome)
}

// VoteGuard runs and prints GUARD-VOTE, the CI regression gate for the
// voting FindSplit path. On the pinned wide scenario it verifies, in
// order: the degeneracy proof (k >= attrs reproduces the binned tree
// exactly), processor-invariance of the small-k tree across {1,2,4,8}
// ranks, at least a 2x FindSplitI byte reduction against binned mode at
// p=4, and held-out accuracy within a percentage point of the exact
// tree's. It returns an error — failing CI — if any gate regresses; the
// failing vote run's Chrome trace lands in VOTE_ARTIFACT_DIR for CI to
// upload.
func VoteGuard(e *Env) error {
	w := e.Out
	fmt.Fprintf(w, "GUARD-VOTE — top-k voting must beat binned on a wide schema (%s records, %d attributes, %d processors)\n",
		human(VoteRecords), 7+VoteNoise, VoteProcs)
	train, test, err := voteTables()
	if err != nil {
		return err
	}
	numAttrs := train.Schema.NumAttrs()

	voteOpts := voteOptions(3)
	modes := []scalparc.Options{{}, voteBinned, voteOpts, voteOptions(numAttrs)}
	points, results, err := voteMeasure(modes, train, test, VoteProcs)
	if err != nil {
		return err
	}
	exact, binned, vote := points[0], points[1], points[2]
	binnedRes, voteRes, degenRes := results[1], results[2], results[3]
	splitTable(w, modes[:3], points[:3], false)

	g := gates{prefix: "vote guard: "}

	// Gate 1: with k >= attrs every attribute is nominated everywhere, the
	// election is the full set, and the vote tree must be the binned tree.
	if !degenRes.Tree.Equal(binnedRes.Tree) {
		g.fail("degeneracy regression — k=%d vote tree differs from binned", numAttrs)
	}

	// Gate 2: the small-k tree must not depend on the processor count in
	// the pinned large-node regime (DESIGN.md §10).
	for _, p := range []int{1, 2, 8} {
		_, res, err := voteMeasure([]scalparc.Options{voteOpts}, train, test, p)
		if err != nil {
			return err
		}
		if !res[0].Tree.Equal(voteRes.Tree) {
			g.fail("processor-variance regression — k=%d vote tree at p=%d differs from p=%d's", voteOpts.VoteK, p, VoteProcs)
		}
	}

	// Gate 3: voting must cut the wide schema's FindSplitI bytes at least
	// in half against the same-resolution binned exchange.
	if float64(vote.FindSplitBytes)*voteGuardByteFactor > float64(binned.FindSplitBytes) {
		g.fail("FindSplitI byte regression — vote %d > binned %d / %.0f",
			vote.FindSplitBytes, binned.FindSplitBytes, voteGuardByteFactor)
	}

	// Gate 4: the double approximation (binning, then electing candidates)
	// must stay within a point of the exact tree on held-out data.
	if gap := vote.Accuracy - exact.Accuracy; gap < -voteGuardAccuracyGap || gap > voteGuardAccuracyGap {
		g.fail("accuracy regression — vote %.4f vs exact %.4f (gap > %.0f%%)",
			vote.Accuracy, exact.Accuracy, voteGuardAccuracyGap*100)
	}

	if err := guardError(g.errs, func() error { return writeVoteArtifact(voteRes.Trace) }); err != nil {
		return err
	}
	fmt.Fprintf(w, "ok: k>=attrs tree identical to binned, k=3 tree p-invariant, %.2fx fewer FindSplitI bytes than binned, accuracy within %.0f%% of exact\n",
		float64(binned.FindSplitBytes)/float64(vote.FindSplitBytes), voteGuardAccuracyGap*100)
	return nil
}
