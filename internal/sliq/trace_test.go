package sliq

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
)

func TestTrainTracedSameTreeAndConserves(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 3, Attrs: datagen.Nine, Seed: 9}, 300)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Train(tab, splitter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, tr, modeled, err := TrainTraced(tab, splitter.Config{}, timing.T3D())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("TrainTraced induced a different tree than the serial oracle")
	}
	if len(tr.Ranks) != 1 {
		t.Fatalf("serial trace has %d ranks", len(tr.Ranks))
	}
	rt := tr.Ranks[0]
	if rt.TotalPicos() != tr.FinalPicos[0] {
		t.Fatalf("per-phase times sum to %d picos, clock is %d", rt.TotalPicos(), tr.FinalPicos[0])
	}
	if modeled != tr.TotalSeconds() || modeled <= 0 {
		t.Fatalf("modeled seconds %v inconsistent with trace total %v", modeled, tr.TotalSeconds())
	}

	ph := rt.PhasePicos()
	// SLIQ's evaluation scan merges FindSplitI into FindSplitII, and no
	// list is ever physically split: those two phases are structural.
	if ph[trace.FindSplitI] != 0 || ph[trace.PerformSplitII] != 0 {
		t.Fatalf("SLIQ must report zero FindSplitI/PerformSplitII time: %v", ph)
	}
	for _, p := range []trace.Phase{trace.Sort, trace.FindSplitII, trace.PerformSplitI} {
		if ph[p] == 0 {
			t.Fatalf("no time attributed to %s: %v", p, ph)
		}
	}
}
