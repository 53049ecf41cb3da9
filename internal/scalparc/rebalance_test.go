package scalparc

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/splitter"
	"repro/internal/timing"
)

// correlatedTable builds the pathological case for the fixed distribution:
// every attribute is a copy of the same value (so all lists concentrate
// the same ranks), and the labels form a spine — each split's upper half
// is pure, so the active records at depth d are the lowest n/2^d sorted
// positions, i.e. they pile up on the lowest-numbered ranks while the rest
// idle. Per-level batching cannot average that out; rebalancing can.
func correlatedTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Continuous},
			{Name: "b", Kind: dataset.Continuous},
			{Name: "c", Kind: dataset.Continuous},
		},
		Classes: []string{"L", "R"},
	}
	rng := rand.New(rand.NewSource(9))
	tab := dataset.NewTable(schema, n)
	for i := 0; i < n; i++ {
		v := rng.Float64()
		// class = parity of the dyadic band [2^-(d+1), 2^-d) holding v.
		cls := 0
		for hi := 1.0; v < hi/2; hi /= 2 {
			cls = 1 - cls
		}
		if err := tab.AppendRow([]float64{v, v, v}, cls); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestRebalanceHelpsCorrelatedData(t *testing.T) {
	tab := correlatedTable(t, 6000)
	run := func(rebalance bool) *Result {
		w := comm.NewWorld(8, timing.T3D())
		res, err := TrainOpts(w, tab, splitter.Config{MaxDepth: 6}, Options{RebalanceLevels: rebalance})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fixed, rebalanced := run(false), run(true)
	if !fixed.Tree.Equal(rebalanced.Tree) {
		t.Fatal("modes disagree on the tree")
	}
	// On fully correlated attributes the fixed distribution leaves deep
	// levels' work concentrated on few ranks; rebalancing spreads it and
	// must win on modeled runtime despite its extra all-to-alls.
	if rebalanced.ModeledSeconds >= fixed.ModeledSeconds {
		t.Fatalf("rebalancing should pay off on correlated data: %v vs %v",
			rebalanced.ModeledSeconds, fixed.ModeledSeconds)
	}
}

func TestRebalanceCostsOnRandomData(t *testing.T) {
	// On uncorrelated Quest data the fixed distribution is already fine
	// per level, so rebalancing must cost communication volume.
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 14}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rebalance bool) *Result {
		w := comm.NewWorld(8, timing.T3D())
		res, err := TrainOpts(w, tab, splitter.Config{MaxDepth: 6}, Options{RebalanceLevels: rebalance})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fixed, rebalanced := run(false), run(true)
	var fixedSent, rebSent int64
	for r := range fixed.Stats {
		fixedSent += fixed.Stats[r].BytesSent
		rebSent += rebalanced.Stats[r].BytesSent
	}
	if rebSent <= fixedSent {
		t.Fatalf("rebalancing must cost traffic: %d vs %d bytes", rebSent, fixedSent)
	}
}
