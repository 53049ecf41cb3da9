package sprint

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/scalparc"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/timing"
)

func TestSprintMatchesSerialOracle(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 10}, 300)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Train(tab, splitter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 7} {
		w := comm.NewWorld(p, timing.T3D())
		res, err := Train(w, tab, splitter.Config{})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !res.Tree.Equal(want) {
			t.Fatalf("p=%d: SPRINT tree differs from the oracle", p)
		}
	}
}

func TestSprintMatchesScalParC(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 3, Attrs: datagen.Nine, Seed: 44}, 400)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(4, timing.T3D())
	a, err := Train(w, tab, splitter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := scalparc.TrainOpts(w, tab, splitter.Config{}, scalparc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Tree.Equal(b.Tree) {
		t.Fatal("SPRINT and ScalParC trees differ")
	}
}

// TestSprintUnscalableMemory verifies the paper's section 3.2 claim: the
// replicated hash table keeps per-processor memory near O(N) regardless of
// p, while ScalParC's node table shrinks with p.
func TestSprintUnscalableMemory(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 14}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	maxPeak := func(train func(*comm.World) *scalparc.Result, p int) int64 {
		w := comm.NewWorld(p, timing.T3D())
		res := train(w)
		var max int64
		for _, m := range res.PeakMemoryPerRank {
			if m > max {
				max = m
			}
		}
		return max
	}
	sprintTrain := func(w *comm.World) *scalparc.Result {
		r, err := Train(w, tab, splitter.Config{MaxDepth: 6})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	scalparcTrain := func(w *comm.World) *scalparc.Result {
		r, err := scalparc.TrainOpts(w, tab, splitter.Config{MaxDepth: 6}, scalparc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// At p=16 — where the O(N/p) attribute lists stop dominating — the
	// SPRINT formulation must need substantially more memory per
	// processor than ScalParC on identical work.
	sp, sc := maxPeak(sprintTrain, 16), maxPeak(scalparcTrain, 16)
	if float64(sp) < 1.5*float64(sc) {
		t.Fatalf("expected replicated table to dominate memory: sprint %d vs scalparc %d bytes", sp, sc)
	}
	// And SPRINT's per-processor memory improves far less from p=2 to
	// p=16 than ScalParC's.
	spDrop := float64(maxPeak(sprintTrain, 2)) / float64(sp)
	scDrop := float64(maxPeak(scalparcTrain, 2)) / float64(sc)
	if spDrop > 0.8*scDrop {
		t.Fatalf("SPRINT memory dropped %.2fx vs ScalParC %.2fx; replication should prevent scaling", spDrop, scDrop)
	}
}

// TestSprintUnscalableCommunication verifies the O(N) vs O(N/p)
// communication claim: per-rank received bytes of the SPRINT splitting
// phase stay roughly constant as p grows, ScalParC's shrink.
func TestSprintUnscalableCommunication(t *testing.T) {
	// Large enough that per-record splitting-phase traffic dominates the
	// per-node control traffic (prefix scans, candidate reductions).
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 14}, 20000)
	if err != nil {
		t.Fatal(err)
	}
	maxRecv := func(useSprint bool, p int) int64 {
		w := comm.NewWorld(p, timing.T3D())
		var res *scalparc.Result
		var err error
		if useSprint {
			res, err = Train(w, tab, splitter.Config{MaxDepth: 4})
		} else {
			res, err = scalparc.TrainOpts(w, tab, splitter.Config{MaxDepth: 4}, scalparc.Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		var max int64
		for _, s := range res.Stats {
			if s.BytesRecv > max {
				max = s.BytesRecv
			}
		}
		return max
	}
	// Both totals include the shared presort traffic, which shrinks with
	// p. On top of it, SPRINT's replicated-table traffic stays O(N) per
	// rank while ScalParC's splitting traffic shrinks towards O(N/p), so:
	// (a) ScalParC's total must drop sharply from p=2 to p=16;
	// (b) SPRINT's must drop far less (its splitting term even grows);
	// (c) at p=16 SPRINT must receive much more per rank than ScalParC.
	sp2, sp16 := maxRecv(true, 2), maxRecv(true, 16)
	sc2, sc16 := maxRecv(false, 2), maxRecv(false, 16)
	scDrop := float64(sc2) / float64(sc16)
	spDrop := float64(sp2) / float64(sp16)
	if float64(sc16) > 0.5*float64(sc2) {
		t.Fatalf("ScalParC per-rank recv should shrink with p: p=2 %d, p=16 %d", sc2, sc16)
	}
	if spDrop > 0.5*scDrop {
		t.Fatalf("SPRINT recv dropped %.2fx vs ScalParC %.2fx; replication should prevent scaling", spDrop, scDrop)
	}
	if sp16 < 2*sc16 {
		t.Fatalf("at p=16 SPRINT should communicate far more per rank: %d vs %d", sp16, sc16)
	}
}
