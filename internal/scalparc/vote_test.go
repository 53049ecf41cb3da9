package scalparc

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
)

// wideVoteTable generates the voting mode's home turf: the Quest seven-
// attribute projection padded with pure-noise continuous attributes, so the
// schema is wide but only a handful of attributes carry signal.
func wideVoteTable(t *testing.T, fn int, seed int64, n, noise int) *dataset.Table {
	t.Helper()
	tab, err := datagen.GenerateWide(datagen.Config{Function: fn, Attrs: datagen.Seven, Seed: seed}, n, noise)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestVoteDegeneratesToBinned: when every rank nominates at least as many
// attributes as the schema has, the elected candidate set is the full
// attribute set at every node, the restricted layout equals the full one,
// and the vote tree must serialize to exactly the binned tree's bytes — at
// every processor count.
func TestVoteDegeneratesToBinned(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 3}, 700)
	if err != nil {
		t.Fatal(err)
	}
	cfg := splitter.Config{MinSplit: 4}
	for _, p := range diffProcCounts {
		w := comm.NewWorld(p, timing.T3D())
		binned, err := TrainOpts(w, tab, cfg, Options{Split: SplitBinned, Bins: 16})
		if err != nil {
			t.Fatalf("p=%d binned: %v", p, err)
		}
		w = comm.NewWorld(p, timing.T3D())
		vote, err := TrainOpts(w, tab, cfg, Options{Split: SplitVote, Bins: 16, VoteK: tab.Schema.NumAttrs()})
		if err != nil {
			t.Fatalf("p=%d vote: %v", p, err)
		}
		if !bytes.Equal(encodeTree(t, vote.Tree), encodeTree(t, binned.Tree)) {
			t.Errorf("p=%d: k >= attrs vote tree bytes differ from binned tree", p)
		}
	}
}

// TestVoteTreeProcessorInvariant: local nominations depend on the data
// partition, so exact p-invariance is not structural the way binned mode's
// is — it holds while need-split nodes are large enough that every rank's
// local vote finds the informative attributes (DESIGN.md §10). This pins a
// depth-capped regime on a wide sparsely-informative schema where the
// trees must come out identical across the sweep's processor counts; the
// run is fully deterministic, so the pin is stable. The 193-noise input is
// EXP-VOTE's 200-attribute scenario. On both, the election must pay for its
// ballot: at p=4 voting ships at most half binned mode's FindSplitI bytes.
func TestVoteTreeProcessorInvariant(t *testing.T) {
	cfg := splitter.Config{MinSplit: 40, MaxDepth: 3}
	procs := []int{1, 2, 4, 8}
	for _, noise := range []int{60, 193} {
		tab := wideVoteTable(t, 2, 3, 1600, noise)
		var want []byte
		var voteSent int64
		for _, p := range procs {
			w := comm.NewWorld(p, timing.T3D())
			res, err := TrainOpts(w, tab, cfg, Options{Split: SplitVote, Bins: 32, VoteK: 3})
			if err != nil {
				t.Fatalf("noise=%d p=%d: %v", noise, p, err)
			}
			if p == 4 {
				voteSent, _ = findSplitIComm(res.Trace)
			}
			got := encodeTree(t, res.Tree)
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("noise=%d p=%d: vote tree bytes differ from p=%d's", noise, p, procs[0])
			}
		}
		binned, err := TrainOpts(comm.NewWorld(4, timing.T3D()), tab, cfg, Options{Split: SplitBinned, Bins: 32})
		if err != nil {
			t.Fatalf("noise=%d binned: %v", noise, err)
		}
		if binnedSent, _ := findSplitIComm(binned.Trace); 2*voteSent > binnedSent {
			t.Errorf("noise=%d: vote FindSplitI bytes %d > half of binned's %d", noise, voteSent, binnedSent)
		}
	}
}

// TestVoteAccuracyNearExact: voting is a second approximation on top of
// binning, but on wide data whose signal lives in a few attributes the
// held-out accuracy must stay within one percentage point of the exact
// tree's.
func TestVoteAccuracyNearExact(t *testing.T) {
	for _, fn := range []int{1, 2} {
		tab := wideVoteTable(t, fn, 42, 2400, 40)
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

// TestVoteCrashRecovery: the ballot exchange is a first-class collective —
// a rank fail-stopped mid-level must leave the survivors able to recover
// from the level-boundary checkpoint and finish. Recovery shrinks the
// world, and a small-k vote tree may legitimately depend on the rank
// count, so tree equality against the fault-free oracle is pinned with a
// degenerate k (>= attrs: the vote tree is then the binned tree, which is
// p-invariant); a small-k run additionally checks recovery itself holds
// together.
func TestVoteCrashRecovery(t *testing.T) {
	tab := wideVoteTable(t, 3, 31, 240, 24)
	cfg := splitter.Config{}.Normalize()
	const p = 4
	opts := Options{Split: SplitVote, Bins: 16, VoteK: tab.Schema.NumAttrs(), CheckpointDir: t.TempDir()}
	w := comm.NewWorld(p, timing.T3D())
	oracle, err := TrainOpts(w, tab, cfg, opts)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	for _, phase := range []trace.Phase{trace.FindSplitI, trace.FindSplitII} {
		ev := faults.Event{Rank: 1, Phase: phase, Level: 1, Kind: faults.Crash}
		w := comm.NewWorld(p, timing.T3D())
		opts := opts
		opts.Faults = faults.NewSchedule(p, ev)
		res, err := TrainOpts(w, tab, cfg, opts)
		if err != nil {
			t.Fatalf("crash@%v: %v", ev, err)
		}
		if !res.Tree.Equal(oracle.Tree) {
			t.Errorf("crash@%v: recovered vote tree differs from fault-free oracle", ev)
		}
		if res.Recoveries != 1 {
			t.Errorf("crash@%v: Recoveries = %d, want 1", ev, res.Recoveries)
		}
		if res.FinalRanks != p-1 {
			t.Errorf("crash@%v: FinalRanks = %d, want %d", ev, res.FinalRanks, p-1)
		}
	}

	smallK := Options{Split: SplitVote, Bins: 16, VoteK: 2, CheckpointDir: t.TempDir(),
		Faults: faults.NewSchedule(p, faults.Event{Rank: 2, Phase: trace.FindSplitI, Level: 1, Kind: faults.Crash})}
	w = comm.NewWorld(p, timing.T3D())
	res, err := TrainOpts(w, tab, cfg, smallK)
	if err != nil {
		t.Fatalf("small-k crash run: %v", err)
	}
	if res.Recoveries != 1 || res.FinalRanks != p-1 {
		t.Errorf("small-k crash run: Recoveries=%d FinalRanks=%d, want 1 and %d", res.Recoveries, res.FinalRanks, p-1)
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
