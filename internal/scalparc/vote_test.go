package scalparc

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/splitter"
	"repro/internal/timing"
)

// TestVoteAccuracyNearExact: voting is a second approximation on top of
// binning, but on wide data whose signal lives in a few attributes the
// held-out accuracy must stay within one percentage point of the exact
// tree's.
func TestVoteAccuracyNearExact(t *testing.T) {
	for _, fn := range []int{1, 2} {
		tab := quest(datagen.Config{Function: fn, Attrs: datagen.Seven, Seed: 42}, 2400, 40, splitter.Config{}).tab(t)
		train, test := tab.Split(0.75)
		cfg := splitter.Config{MinSplit: 8}

		w := comm.NewWorld(4, timing.T3D())
		exact, err := TrainOpts(w, train, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		w = comm.NewWorld(4, timing.T3D())
		vote, err := TrainOpts(w, train, cfg, Options{Split: SplitVote, Bins: 64, VoteK: 3})
		if err != nil {
			t.Fatal(err)
		}
		accE := accuracy(exact.Tree, test)
		accV := accuracy(vote.Tree, test)
		if math.Abs(accE-accV) > 0.01 {
			t.Errorf("fn=%d: vote accuracy %.4f vs exact %.4f (gap > 1%%)", fn, accV, accE)
		}
	}
}

// TestVoteFindSplitsSteadyStateAllocs pins the vote path to the arena
// discipline: after warmup, a full vote FindSplit pass (local scoring,
// ballot exchange, election, restricted reduce-scatter, evaluation)
// allocates a small constant independent of the record count.
func TestVoteFindSplitsSteadyStateAllocs(t *testing.T) {
	measure := func(rows int) float64 {
		tab, err := datagen.GenerateWide(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 1}, rows, 24)
		if err != nil {
			t.Fatal(err)
		}
		w := comm.NewWorld(1, timing.T3D())
		cfg := splitter.Config{MinSplit: 2}.Normalize()
		wk := newWorker(w.Rank(0), tab, cfg, DistributedNodeTable, Options{Split: SplitVote, Bins: 16, VoteK: 3})
		wk.presort(tab)
		splitIdx := []int{0}
		wk.findSplits(splitIdx, 1) // warmup: grows the arena to high-water size
		return testing.AllocsPerRun(10, func() {
			wk.findSplits(splitIdx, 1)
		})
	}
	small := measure(1_000)
	large := measure(8_000)
	if small != large {
		t.Errorf("steady-state vote FindSplit allocations scale with data: %.1f at 1k rows, %.1f at 8k rows", small, large)
	}
	if large > 32 {
		t.Errorf("steady-state vote FindSplit allocations too high: %.1f per pass", large)
	}
}
