package scalparc

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/splitter"
	"repro/internal/timing"
)

// TestPerNodeModeCostsMoreCommunicationSteps verifies the section 3.1
// argument: per-node communication multiplies the number of collective
// steps by the tree's width, and with it the latency-bound modeled
// runtime on a wide tree.
func TestPerNodeModeCostsMoreCommunicationSteps(t *testing.T) {
	// Label noise makes the tree wide (many nodes per level), which is
	// where the per-node structure hurts.
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 9, LabelNoise: 0.2}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	run := func(perNode bool) (*Result, comm.Stats) {
		w := comm.NewWorld(8, timing.T3D())
		res, err := TrainOpts(w, tab, splitter.Config{}, Options{PerNodeComms: perNode})
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Stats[0]
	}
	perLevel, plStats := run(false)
	perNode, pnStats := run(true)

	if !perLevel.Tree.Equal(perNode.Tree) {
		t.Fatal("modes disagree on the tree")
	}
	if perNode.Levels != perLevel.Levels {
		t.Fatal("modes disagree on levels")
	}
	// The tree is much wider than one node per level, so per-node mode
	// must issue several times the collective operations...
	if pnStats.AllToAlls < 2*plStats.AllToAlls {
		t.Fatalf("per-node mode used %d all-to-alls vs %d per-level; expected a multiple",
			pnStats.AllToAlls, plStats.AllToAlls)
	}
	if pnStats.Scans < 2*plStats.Scans {
		t.Fatalf("per-node mode used %d scans vs %d per-level", pnStats.Scans, plStats.Scans)
	}
	// ...and pay for it in modeled runtime on a latency-bound machine.
	if perNode.ModeledSeconds <= perLevel.ModeledSeconds {
		t.Fatalf("per-node mode should be slower: %v vs %v",
			perNode.ModeledSeconds, perLevel.ModeledSeconds)
	}
}
