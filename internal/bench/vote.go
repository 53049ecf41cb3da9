package bench

// EXP-VOTE: top-k attribute-voting split finding on wide,
// sparsely-informative schemas — the workload the vote protocol exists
// for. The fixed scenario is the Quest seven-attribute projection padded
// with 193 pure-noise continuous attributes (200 attributes total, a
// handful informative), where the binned reduce-scatter must ship every
// attribute's histogram each level but voting ships only the elected
// candidates'.

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/scalparc"
	"repro/internal/splitter"
	"repro/internal/timing"
)

// These constants pin the EXP-VOTE scenario: the wide Quest table
// (seed, function, rows, noise attributes), the histogram resolution, and
// the training regime. MinSplit/MaxDepth keep every need-split node large
// relative to the rank count, the regime in which small-k vote trees are
// processor-invariant (DESIGN.md §10).
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

func voteOptions(k int) scalparc.Options {
	return scalparc.Options{Split: scalparc.SplitVote, Bins: VoteBins, VoteK: k}
}

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
	binned := scalparc.Options{Split: scalparc.SplitBinned, Bins: VoteBins}
	modes := []scalparc.Options{{}, binned, voteOptions(1), voteOptions(3), voteOptions(8), voteOptions(train.Schema.NumAttrs())}
	cfg := splitter.Config{MinSplit: VoteMinSplit, MaxDepth: VoteMaxDepth}
	points, err := measureSplits(modes, VoteProcs, timing.T3D(), cfg, train, test)
	if err != nil {
		return err
	}
	splitTable(w, modes, points)
	return nil
}
