package scalparc

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/timing"
)

func TestResultMetrics(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 55}, 500)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(4, timing.T3D())
	res, err := TrainOpts(w, tab, splitter.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree == nil || res.Levels < 1 {
		t.Fatalf("missing tree or levels: %+v", res)
	}
	if res.ModeledSeconds <= 0 || res.PresortModeledSeconds <= 0 {
		t.Fatalf("modeled times not positive: %+v", res)
	}
	if res.PresortModeledSeconds > res.ModeledSeconds {
		t.Fatal("presort time exceeds total")
	}
	if len(res.PeakMemoryPerRank) != 4 || len(res.Stats) != 4 {
		t.Fatal("per-rank metrics missing")
	}
	for r, m := range res.PeakMemoryPerRank {
		if m <= 0 {
			t.Fatalf("rank %d peak memory %d", r, m)
		}
	}
	for r, s := range res.Stats {
		if s.AllToAlls == 0 || s.BytesSent == 0 {
			t.Fatalf("rank %d has no communication: %+v", r, s)
		}
	}
	if res.WallSeconds <= 0 {
		t.Fatal("wall time not measured")
	}
}

func TestMemoryScalesDown(t *testing.T) {
	// Doubling processors should substantially reduce per-rank peak
	// memory (Figure 3(b) behaviour) at this size.
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 14}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	peak := func(p int) int64 {
		w := comm.NewWorld(p, timing.T3D())
		res, err := TrainOpts(w, tab, splitter.Config{MaxDepth: 6}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var max int64
		for _, m := range res.PeakMemoryPerRank {
			if m > max {
				max = m
			}
		}
		return max
	}
	m2, m8 := peak(2), peak(8)
	if float64(m8) > 0.5*float64(m2) {
		t.Fatalf("peak memory did not scale: p=2 %d bytes, p=8 %d bytes", m2, m8)
	}
}

func TestCommunicationPerRankScalesDown(t *testing.T) {
	// ScalParC's per-rank communication is O(N/p) per level: going from
	// 2 to 8 ranks must shrink the busiest rank's traffic.
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 14}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	maxSent := func(p int) int64 {
		w := comm.NewWorld(p, timing.T3D())
		res, err := TrainOpts(w, tab, splitter.Config{MaxDepth: 6}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var max int64
		for _, s := range res.Stats {
			if s.BytesSent > max {
				max = s.BytesSent
			}
		}
		return max
	}
	b2, b8 := maxSent(2), maxSent(8)
	if float64(b8) > 0.7*float64(b2) {
		t.Fatalf("per-rank traffic did not scale: p=2 %d bytes, p=8 %d bytes", b2, b8)
	}
}

func TestTrainErrors(t *testing.T) {
	w := comm.NewWorld(2, timing.T3D())
	empty := dataset.NewTable(datagen.Schema(datagen.Seven), 0)
	if _, err := TrainOpts(w, empty, splitter.Config{}, Options{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	bad := &dataset.Schema{Classes: []string{"A", "B"}}
	if _, err := TrainOpts(w, dataset.NewTable(bad, 0), splitter.Config{}, Options{}); err == nil {
		t.Fatal("invalid schema accepted")
	}
	tab, err := datagen.Generate(datagen.Config{Function: 1, Attrs: datagen.Seven, Seed: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainOpts(w, tab, splitter.Config{MaxDepth: -2}, Options{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestTrainingAccuracyMatchesSerial(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 7, Attrs: datagen.Seven, Seed: 66}, 800)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainOpts(comm.NewWorld(4, timing.T3D()), tab, splitter.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ser, err := serial.Train(tab, splitter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pp, sp := res.Tree.PredictTable(tab), ser.PredictTable(tab)
	for r := range pp {
		if pp[r] != sp[r] {
			t.Fatalf("row %d: parallel predicts %d, serial %d", r, pp[r], sp[r])
		}
		if pp[r] != int(tab.Class[r]) {
			t.Fatalf("row %d: training error on deterministic labels", r)
		}
	}
}
