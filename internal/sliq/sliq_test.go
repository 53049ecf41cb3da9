package sliq

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/tree"
)

// train is TrainTraced without the trace.
func train(tab *dataset.Table, cfg splitter.Config) (*tree.Tree, error) {
	t, _, _, err := TrainTraced(tab, cfg, timing.T3D())
	return t, err
}

func TestSliqMatchesSerialOracle(t *testing.T) {
	for _, f := range []int{1, 2, 3, 7} {
		tab, err := datagen.Generate(datagen.Config{Function: f, Attrs: datagen.Seven, Seed: int64(f)}, 400)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.Train(tab, splitter.Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := train(tab, splitter.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("function %d: SLIQ tree differs from the SPRINT-style oracle", f)
		}
	}
}

func TestSliqCategoricalAndConfigs(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 3, Attrs: datagen.Nine, Seed: 8}, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []splitter.Config{
		{},
		{MaxDepth: 3},
		{MinSplit: 40},
		{CategoricalBinary: true},
	} {
		want, err := serial.Train(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := train(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("cfg %+v: trees differ", cfg)
		}
	}
}

func TestSliqDuplicateHeavyData(t *testing.T) {
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Continuous}},
		Classes: []string{"A", "B"},
	}
	rng := rand.New(rand.NewSource(1))
	tab := dataset.NewTable(schema, 100)
	for i := 0; i < 100; i++ {
		v := float64(rng.Intn(4))
		if err := tab.AppendRow([]float64{v}, rng.Intn(2)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := serial.Train(tab, splitter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := train(tab, splitter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("duplicate-heavy trees differ")
	}
}

func TestSliqErrors(t *testing.T) {
	empty := dataset.NewTable(datagen.Schema(datagen.Seven), 0)
	if _, err := train(empty, splitter.Config{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	bad := &dataset.Schema{Classes: []string{"A", "B"}}
	if _, err := train(dataset.NewTable(bad, 0), splitter.Config{}); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

func TestTrainDiskSameTreeAsMemory(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 5}, 600)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := train(tab, splitter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	disk, stats, err := TrainDisk(tab, splitter.Config{}, t.TempDir(), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if !disk.Equal(mem) {
		t.Fatal("disk-backed SLIQ differs from in-memory SLIQ")
	}
	if stats.BytesWritten == 0 || stats.BytesRead == 0 || stats.Scans == 0 {
		t.Fatalf("disk stats not collected: %+v", stats)
	}
	// Every level scans every list for evaluation; each list is written
	// exactly once.
	wantWritten := int64(600) * (6*13 + 1*9) // 6 continuous, 1 categorical
	if stats.BytesWritten != wantWritten {
		t.Fatalf("bytes written %d, want %d", stats.BytesWritten, wantWritten)
	}
	if stats.BytesRead < stats.BytesWritten {
		t.Fatal("induction should read each list at least once")
	}
}

func TestTrainDiskScanCountMatchesLevels(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 1, Attrs: datagen.Seven, Seed: 2}, 300)
	if err != nil {
		t.Fatal(err)
	}
	tr, stats, err := TrainDisk(tab, splitter.Config{}, t.TempDir(), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	levels := tr.Depth() + 1
	na := int64(7)
	// Evaluation: na scans per level. Apply: at most na extra scans per
	// level with internal nodes.
	minScans := na * int64(levels)
	maxScans := 2 * na * int64(levels)
	if stats.Scans < minScans || stats.Scans > maxScans {
		t.Fatalf("scans=%d outside [%d,%d] for %d levels", stats.Scans, minScans, maxScans, levels)
	}
}

func TestTrainDiskBadDir(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 1, Attrs: datagen.Seven, Seed: 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := TrainDisk(tab, splitter.Config{}, "/proc/definitely/not/writable", 0); err == nil {
		t.Fatal("unwritable store dir accepted")
	}
}
