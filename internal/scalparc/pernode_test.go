package scalparc

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/timing"
)

// TestPerNodeModeSameTree: the ablation changes the communication
// structure, never the result.
func TestPerNodeModeSameTree(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 3, Attrs: datagen.Nine, Seed: 31}, 300)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Train(tab, splitter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 7} {
		w := comm.NewWorld(p, timing.T3D())
		res, err := TrainOpts(w, tab, splitter.Config{}, Options{PerNodeComms: true})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !res.Tree.Equal(want) {
			t.Fatalf("p=%d: per-node mode changed the tree", p)
		}
	}
}

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

func TestTrainOptsDefaultsMatchTrain(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 1, Attrs: datagen.Seven, Seed: 2}, 200)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(3, timing.T3D())
	a, err := TrainOpts(w, tab, splitter.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainOpts(w, tab, splitter.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Tree.Equal(b.Tree) || a.ModeledSeconds != b.ModeledSeconds {
		t.Fatal("empty Options must behave exactly like Train")
	}
}
