package scalparc

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/timing"
)

func trainBoth(t *testing.T, tab *dataset.Table, cfg splitter.Config, p int) (*Result, *Result) {
	t.Helper()
	w := comm.NewWorld(p, timing.T3D())
	res, err := TrainOpts(w, tab, cfg, Options{})
	if err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
	st, err := serial.Train(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, &Result{Tree: st}
}

// assertOracle checks the central determinism property: ScalParC on p
// processors builds exactly the serial classifier's tree.
func assertOracle(t *testing.T, tab *dataset.Table, cfg splitter.Config, ps ...int) {
	t.Helper()
	want, err := serial.Train(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		w := comm.NewWorld(p, timing.T3D())
		res, err := TrainOpts(w, tab, cfg, Options{})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !res.Tree.Equal(want) {
			t.Fatalf("p=%d: parallel tree differs from serial oracle\nparallel:\n%s\nserial:\n%s",
				p, res.Tree, want)
		}
	}
}

func TestOracleQuestFunctions(t *testing.T) {
	for _, f := range []int{1, 2, 3, 6, 7} {
		tab, err := datagen.Generate(datagen.Config{Function: f, Attrs: datagen.Seven, Seed: int64(f) * 7}, 300)
		if err != nil {
			t.Fatal(err)
		}
		assertOracle(t, tab, splitter.Config{}, 1, 2, 3, 4, 7)
	}
}

func TestOracleNineAttributesWithCategoricals(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 3, Attrs: datagen.Nine, Seed: 12}, 400)
	if err != nil {
		t.Fatal(err)
	}
	assertOracle(t, tab, splitter.Config{}, 1, 2, 5, 8)
}

func TestOracleWithLabelNoise(t *testing.T) {
	// Noise makes the tree deep and ragged — a harder structural test.
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 5, LabelNoise: 0.15}, 250)
	if err != nil {
		t.Fatal(err)
	}
	assertOracle(t, tab, splitter.Config{}, 1, 3, 4)
}

func TestOracleSubsetSplits(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 3, Attrs: datagen.Nine, Seed: 21}, 300)
	if err != nil {
		t.Fatal(err)
	}
	assertOracle(t, tab, splitter.Config{CategoricalBinary: true}, 1, 2, 4)
}

func TestOracleDepthAndMinSplitLimits(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 9}, 400)
	if err != nil {
		t.Fatal(err)
	}
	assertOracle(t, tab, splitter.Config{MaxDepth: 4}, 1, 3, 8)
	assertOracle(t, tab, splitter.Config{MinSplit: 50}, 1, 3, 8)
}

func TestOracleDuplicateValuesAcrossRankBoundaries(t *testing.T) {
	// Long runs of equal values that straddle processor boundaries: the
	// boundary-value exchange must suppress split candidates inside runs.
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Continuous}},
		Classes: []string{"A", "B"},
	}
	tab := dataset.NewTable(schema, 40)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		v := float64(rng.Intn(3)) // only 3 distinct values over 40 records
		cls := 0
		if v == 1 || (v == 2 && i%3 == 0) {
			cls = 1
		}
		if err := tab.AppendRow([]float64{v}, cls); err != nil {
			t.Fatal(err)
		}
	}
	assertOracle(t, tab, splitter.Config{}, 1, 2, 3, 4, 7, 8)
}

func TestOracleConstantAttribute(t *testing.T) {
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Continuous}},
		Classes: []string{"A", "B"},
	}
	tab := dataset.NewTable(schema, 10)
	for i := 0; i < 10; i++ {
		if err := tab.AppendRow([]float64{5}, i%2); err != nil {
			t.Fatal(err)
		}
	}
	assertOracle(t, tab, splitter.Config{}, 1, 2, 4)
}

func TestOracleFewerRecordsThanProcessors(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 1, Attrs: datagen.Seven, Seed: 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertOracle(t, tab, splitter.Config{}, 7, 8)
}

func TestOracleSingleRecord(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 1, Attrs: datagen.Seven, Seed: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertOracle(t, tab, splitter.Config{}, 1, 2, 3)
}

func TestOracleCategoricalOnly(t *testing.T) {
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "c1", Kind: dataset.Categorical, Values: []string{"a", "b", "c"}},
			{Name: "c2", Kind: dataset.Categorical, Values: []string{"x", "y"}},
		},
		Classes: []string{"A", "B", "C"},
	}
	rng := rand.New(rand.NewSource(4))
	tab := dataset.NewTable(schema, 60)
	for i := 0; i < 60; i++ {
		v1, v2 := rng.Intn(3), rng.Intn(2)
		cls := (v1 + v2) % 3
		if rng.Intn(5) == 0 {
			cls = rng.Intn(3)
		}
		if err := tab.AppendRow([]float64{float64(v1), float64(v2)}, cls); err != nil {
			t.Fatal(err)
		}
	}
	assertOracle(t, tab, splitter.Config{}, 1, 2, 3, 5)
}

func TestDeterministicAcrossRuns(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 6, Attrs: datagen.Seven, Seed: 77}, 300)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(4, timing.T3D())
	a, err := TrainOpts(w, tab, splitter.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainOpts(w, tab, splitter.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Tree.Equal(b.Tree) {
		t.Fatal("two runs on the same world differ")
	}
	if a.ModeledSeconds != b.ModeledSeconds {
		t.Fatalf("modeled runtime not deterministic: %v vs %v", a.ModeledSeconds, b.ModeledSeconds)
	}
}

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
	res, ser := trainBoth(t, tab, splitter.Config{}, 4)
	pp := res.Tree.PredictTable(tab)
	sp := ser.Tree.PredictTable(tab)
	for r := range pp {
		if pp[r] != sp[r] {
			t.Fatalf("row %d: parallel predicts %d, serial %d", r, pp[r], sp[r])
		}
		if pp[r] != int(tab.Class[r]) {
			t.Fatalf("row %d: training error on deterministic labels", r)
		}
	}
}
