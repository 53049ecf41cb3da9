package classify

import (
	"bytes"
	"strings"
	"testing"
)

func questTable(t *testing.T, n int) *Table {
	t.Helper()
	tab, err := GenerateQuest(QuestConfig{Function: 2, Records: n, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTrainDefaultIsScalParC(t *testing.T) {
	tab := questTable(t, 300)
	m, err := Train(tab, Config{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics.Algorithm != ScalParC || m.Metrics.Processors != 4 {
		t.Fatalf("metrics %+v", m.Metrics)
	}
	if m.Tree == nil || m.Metrics.ModeledSeconds <= 0 || m.Metrics.BytesSent <= 0 {
		t.Fatalf("missing outputs: %+v", m.Metrics)
	}
	if len(m.Metrics.PeakMemoryPerRank) != 4 {
		t.Fatal("per-rank memory missing")
	}
}

func TestAllAlgorithmsAgreeOnTheTree(t *testing.T) {
	tab := questTable(t, 300)
	serialM, err := Train(tab, Config{Algorithm: Serial})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{ScalParC, SPRINT} {
		for _, p := range []int{1, 3, 8} {
			m, err := Train(tab, Config{Algorithm: alg, Processors: p})
			if err != nil {
				t.Fatalf("%v p=%d: %v", alg, p, err)
			}
			if !m.Tree.Equal(serialM.Tree) {
				t.Fatalf("%v p=%d differs from serial tree", alg, p)
			}
		}
	}
	sliqM, err := Train(tab, Config{Algorithm: SLIQ})
	if err != nil {
		t.Fatal(err)
	}
	if !sliqM.Tree.Equal(serialM.Tree) {
		t.Fatal("SLIQ differs from serial tree")
	}
	if sliqM.Metrics.Algorithm != SLIQ || sliqM.Metrics.Processors != 1 {
		t.Fatalf("SLIQ metrics: %+v", sliqM.Metrics)
	}
}

func TestTrainSerialMetrics(t *testing.T) {
	tab := questTable(t, 200)
	m, err := Train(tab, Config{Algorithm: Serial, Processors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics.Processors != 1 {
		t.Fatal("serial must report one processor")
	}
	if m.Metrics.ModeledSeconds != 0 || m.Metrics.BytesSent != 0 {
		t.Fatal("serial must not report simulated metrics")
	}
	if m.Metrics.Levels < 1 {
		t.Fatal("levels missing")
	}
}

func TestTrainWithPruning(t *testing.T) {
	tab, err := GenerateQuest(QuestConfig{Function: 2, Records: 400, Seed: 9, LabelNoise: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Train(tab, Config{Algorithm: Serial})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Train(tab, Config{Algorithm: Serial, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Metrics.PrunedNodes == 0 {
		t.Fatal("noisy data should trigger pruning")
	}
	if pruned.Tree.NumNodes() >= full.Tree.NumNodes() {
		t.Fatal("pruning did not shrink the tree")
	}
}

func TestTrainConfigErrors(t *testing.T) {
	tab := questTable(t, 50)
	if _, err := Train(nil, Config{}); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := Train(tab, Config{Processors: -1}); err == nil {
		t.Fatal("negative processors accepted")
	}
	if _, err := Train(tab, Config{Algorithm: Algorithm(9)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Train(tab, Config{MaxDepth: -1}); err == nil {
		t.Fatal("invalid depth accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	if ScalParC.String() != "scalparc" || SPRINT.String() != "sprint" ||
		Serial.String() != "serial" || SLIQ.String() != "sliq" {
		t.Fatal("algorithm names wrong")
	}
	if !strings.Contains(Algorithm(7).String(), "7") {
		t.Fatal("unknown algorithm string")
	}
}

func TestQuestHelpers(t *testing.T) {
	s7 := QuestSchema(false)
	s9 := QuestSchema(true)
	if s7.NumAttrs() != 7 || s9.NumAttrs() != 9 {
		t.Fatal("schema helpers wrong")
	}
	if _, err := GenerateQuest(QuestConfig{Function: 0, Records: 10}); err == nil {
		t.Fatal("bad function accepted")
	}
	tab, err := GenerateQuest(QuestConfig{Function: 5, Records: 10, Seed: 2, NineAttributes: true})
	if err != nil || tab.NumRows() != 10 || tab.Schema.NumAttrs() != 9 {
		t.Fatalf("nine-attr generation: %v", err)
	}
}

func TestMultiClassEndToEnd(t *testing.T) {
	tab, err := GenerateQuestMultiClass(QuestConfig{Records: 2000, Seed: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Schema.NumClasses() != 4 {
		t.Fatalf("classes=%d", tab.Schema.NumClasses())
	}
	serialM, err := Train(tab, Config{Algorithm: Serial})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Algorithm: SLIQ},
		{Algorithm: ScalParC, Processors: 4},
		{Algorithm: SPRINT, Processors: 4},
	} {
		m, err := Train(tab, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Algorithm, err)
		}
		if !m.Tree.Equal(serialM.Tree) {
			t.Fatalf("%v differs from serial on multi-class data", cfg.Algorithm)
		}
	}
	eval, err := Evaluate(serialM.Tree, tab)
	if err != nil {
		t.Fatal(err)
	}
	if eval.Accuracy != 1.0 {
		t.Fatalf("deterministic bands should be fully learnable, accuracy %.3f", eval.Accuracy)
	}
	if len(eval.PerClass) != 4 {
		t.Fatal("per-class metrics missing")
	}
	if _, err := GenerateQuestMultiClass(QuestConfig{Records: 10}, 1); err == nil {
		t.Fatal("single class accepted")
	}
}

func TestCSVAndTreeRoundTripThroughFacade(t *testing.T) {
	tab := questTable(t, 30)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, tab.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 30 {
		t.Fatal("csv round trip lost rows")
	}
	m, err := Train(tab, Config{Algorithm: Serial})
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := m.Tree.Encode(&tb); err != nil {
		t.Fatal(err)
	}
	tr, err := DecodeTree(&tb)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(m.Tree) {
		t.Fatal("tree round trip changed the tree")
	}
}

func TestCustomMachineModel(t *testing.T) {
	tab := questTable(t, 200)
	fast := DefaultMachine()
	fast.ScanRate *= 100
	fast.SplitRate *= 100
	slow, err := Train(tab, Config{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	quick, err := Train(tab, Config{Processors: 2, Machine: fast})
	if err != nil {
		t.Fatal(err)
	}
	if quick.Metrics.ModeledSeconds >= slow.Metrics.ModeledSeconds {
		t.Fatal("a faster machine model must yield a smaller modeled runtime")
	}
	if !quick.Tree.Equal(slow.Tree) {
		t.Fatal("machine model must not affect the tree")
	}
}

func TestTrainFaultConfigValidation(t *testing.T) {
	tab := questTable(t, 200)
	bad := []Config{
		{Algorithm: Serial, Faults: "crash@FindSplitI:1:0"},
		{Algorithm: SPRINT, Processors: 2, CheckpointDir: "x"},
		{Algorithm: SLIQ, CheckpointDir: "x"},
		{Processors: 2, Faults: "random:3"}, // random without seed
		{Processors: 2, Faults: "nonsense"},
	}
	for i, cfg := range bad {
		if _, err := Train(tab, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestTrainRecoversFromInjectedCrash(t *testing.T) {
	tab := questTable(t, 800)
	clean, err := Train(tab, Config{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(tab, Config{
		Processors:    4,
		Faults:        "crash@PerformSplitI:1:2",
		CheckpointDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Tree.Equal(clean.Tree) {
		t.Fatal("recovered tree differs from fault-free tree")
	}
	mm := m.Metrics
	if mm.Recoveries != 1 || mm.FinalRanks != 3 || len(mm.Lost) != 1 || mm.Lost[0] != 2 {
		t.Fatalf("recovery metrics %+v", mm)
	}
}

// TestUnsupportedCombinations: every row of the unsupported table has a
// minimal job Check rejects with that row's reason — and Train or
// TrainForest too, when the job needs no wire — while changing one field
// of the job gives a job Check accepts.
func TestUnsupportedCombinations(t *testing.T) {
	forest := &ForestConfig{Trees: 2}
	cases := map[string]struct {
		bad job
		fix func(*job)
	}{
		"split mode without ScalParC": {job{cfg: Config{Algorithm: SPRINT, Split: SplitBinned}},
			func(j *job) { j.cfg.Algorithm = ScalParC }},
		"faults or checkpoint without ScalParC": {job{cfg: Config{Algorithm: SPRINT, CheckpointDir: "x"}},
			func(j *job) { j.cfg.Algorithm = ScalParC }},
		"wire without a parallel algorithm": {job{cfg: Config{Algorithm: Serial, Processors: 2}, wire: true},
			func(j *job) { j.cfg.Algorithm = SPRINT }},
		"wire without processors": {job{wire: true},
			func(j *job) { j.cfg.Processors = 2 }},
		"socket faults without a wire": {job{cfg: Config{Processors: 2, Faults: "reset@FindSplitI:1:1:0"}},
			func(j *job) { j.wire = true }},
		"forest without ScalParC": {job{cfg: Config{Algorithm: SPRINT}, forest: forest},
			func(j *job) { j.cfg.Algorithm = ScalParC }},
		"forest pool on a wire or with faults": {job{cfg: Config{Processors: 2, Faults: "crash@FindSplitI:1:1"},
			forest: &ForestConfig{Trees: 2, Parallel: 2}},
			func(j *job) { j.forest.Parallel = 1 }},
		"forest with pruning": {job{cfg: Config{Prune: true}, forest: forest},
			func(j *job) { j.cfg.Prune = false }},
	}
	tab := questTable(t, 50)
	for _, row := range unsupported {
		tc, ok := cases[row.name]
		if !ok {
			t.Errorf("row %q: no job reaches it", row.name)
			continue
		}
		delete(cases, row.name)
		j := tc.bad
		err := Check(j.cfg, j.forest, j.wire)
		if err == nil || !strings.Contains(err.Error(), row.reason) {
			t.Errorf("row %q: Check = %v, want the row's reason", row.name, err)
		}
		if !j.wire {
			if j.forest == nil {
				_, err = Train(tab, j.cfg)
			} else {
				f := *j.forest
				f.Engine = j.cfg
				_, err = TrainForest(tab, f)
			}
			if err == nil || !strings.Contains(err.Error(), row.reason) {
				t.Errorf("row %q: training = %v, want the row's reason", row.name, err)
			}
		}
		tc.fix(&j)
		if err := Check(j.cfg, j.forest, j.wire); err != nil {
			t.Errorf("row %q: the job with one field changed is rejected: %v", row.name, err)
		}
	}
	for name := range cases {
		t.Errorf("job %q names no row of the table", name)
	}
}
