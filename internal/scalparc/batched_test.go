package scalparc

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/tree"
)

func TestBatchedEnquirySavesRoundsCostsMemory(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 5}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	run := func(batched bool) *Result {
		w := comm.NewWorld(8, timing.T3D())
		res, err := TrainOpts(w, tab, splitter.Config{MaxDepth: 6}, Options{BatchedEnquiry: batched})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, batched := run(false), run(true)
	if !plain.Tree.Equal(batched.Tree) {
		t.Fatal("modes disagree on the tree")
	}
	// Fewer all-to-all rounds per level: 7 attributes' enquiries (2 steps
	// each) collapse into one enquiry (2 steps).
	if batched.Stats[0].AllToAlls >= plain.Stats[0].AllToAlls {
		t.Fatalf("batched mode used %d all-to-alls vs %d plain",
			batched.Stats[0].AllToAlls, plain.Stats[0].AllToAlls)
	}
	// The single big enquiry buffer is n_a-times larger than the
	// per-attribute one; whether it moves the overall peak depends on
	// which phase dominates, so only assert it never helps.
	var plainPeak, batchedPeak int64
	for r := range plain.PeakMemoryPerRank {
		if plain.PeakMemoryPerRank[r] > plainPeak {
			plainPeak = plain.PeakMemoryPerRank[r]
		}
		if batched.PeakMemoryPerRank[r] > batchedPeak {
			batchedPeak = batched.PeakMemoryPerRank[r]
		}
	}
	if batchedPeak < plainPeak {
		t.Fatalf("batched enquiry should not reduce memory: %d vs %d bytes", batchedPeak, plainPeak)
	}
	// And be faster on the latency side of the model.
	if batched.ModeledSeconds >= plain.ModeledSeconds {
		t.Fatalf("batched mode should be faster: %v vs %v",
			batched.ModeledSeconds, plain.ModeledSeconds)
	}
}

func TestBatchedAndPerNodeMutuallyExclusive(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 1, Attrs: datagen.Seven, Seed: 1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(2, timing.T3D())
	if _, err := TrainOpts(w, tab, splitter.Config{}, Options{PerNodeComms: true, BatchedEnquiry: true}); err == nil {
		t.Fatal("conflicting options accepted")
	}
}

func TestPerLevelStats(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 12}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(4, timing.T3D())
	res, err := TrainOpts(w, tab, splitter.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLevel) != res.Levels {
		t.Fatalf("PerLevel has %d entries, Levels=%d", len(res.PerLevel), res.Levels)
	}
	first := res.PerLevel[0]
	if first.ActiveNodes != 1 || first.Records != 1000 || first.SplitNodes != 1 {
		t.Fatalf("root level stats: %+v", first)
	}
	last := res.PerLevel[len(res.PerLevel)-1]
	if last.SplitNodes != 0 {
		t.Fatal("final level must split nothing")
	}
	var levelSum float64
	for i, ls := range res.PerLevel {
		if ls.ModeledSeconds < 0 {
			t.Fatalf("level %d negative time", i)
		}
		if i > 0 && ls.Records > res.PerLevel[i-1].Records {
			t.Fatalf("records grew between levels %d and %d", i-1, i)
		}
		levelSum += ls.ModeledSeconds
	}
	// Levels plus presort account for the whole run.
	total := res.PresortModeledSeconds + levelSum
	if total > res.ModeledSeconds+1e-9 || total < res.ModeledSeconds*0.95 {
		t.Fatalf("per-level times (%v) + presort (%v) != total (%v)",
			levelSum, res.PresortModeledSeconds, res.ModeledSeconds)
	}
}

// TestEnquiryRoundsClosedForm counts PerformSplitII's enquiry rounds. Each
// record-map Lookup is two all-to-alls (the rids out, the answers back), and
// PerformSplitII issues nothing else, so on every rank at every level its
// trace bucket holds exactly 2·n_a ops under the paper's schedule (a round
// per attribute), 2 under BatchedEnquiry (one round), and 2·S·(n_a − 1)
// under PerNodeComms (a Lookup per split node per non-splitting attribute),
// where S is the level's split nodes, read off the tree.
func TestEnquiryRoundsClosedForm(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 9, LabelNoise: 0.1}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	na := int64(tab.Schema.NumAttrs())
	for _, tc := range []struct {
		name   string
		opts   Options
		expect func(splits int64) int64
	}{
		{"per-attribute", Options{}, func(int64) int64 { return 2 * na }},
		{"batched", Options{BatchedEnquiry: true}, func(int64) int64 { return 2 }},
		{"per-node", Options{PerNodeComms: true}, func(s int64) int64 { return 2 * s * (na - 1) }},
	} {
		const p = 3
		res, err := TrainOpts(comm.NewWorld(p, timing.T3D()), tab, splitter.Config{MinSplit: 2}, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		// splits[l] is the number of internal nodes at depth l: the nodes
		// level l split.
		splits := make([]int64, res.Levels)
		var walk func(n *tree.Node, depth int)
		walk = func(n *tree.Node, depth int) {
			if n.Leaf {
				return
			}
			splits[depth]++
			for _, c := range n.Children {
				walk(c, depth+1)
			}
		}
		walk(res.Tree.Root, 0)
		if res.Levels < 4 || splits[3] < 2 {
			t.Fatalf("%s: %d levels, the check needs a wider, deeper tree", tc.name, res.Levels)
		}
		for r, rt := range res.Trace.Ranks {
			ops := make([]int64, res.Levels)
			for _, b := range rt.Buckets() {
				if b.Phase == trace.PerformSplitII {
					ops[b.Level] += b.Ops
				}
			}
			for l, got := range ops {
				if want := tc.expect(splits[l]); got != want {
					t.Errorf("%s rank %d level %d (%d split nodes): %d PerformSplitII ops, want %d", tc.name, r, l, splits[l], got, want)
				}
			}
		}
	}
}
