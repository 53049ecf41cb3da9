package classify

import (
	"bytes"
	"reflect"
	"testing"
)

func TestTrainForestEndToEnd(t *testing.T) {
	tab, err := GenerateQuest(QuestConfig{Function: 1, Records: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainForest(tab, ForestConfig{
		Trees: 5, Seed: 9, FeatureSample: 3, Parallel: 2,
		Engine: Config{Processors: 2, MinSplit: 8, Split: SplitBinned, Bins: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Forest.NumTrees() != 5 || m.Metrics.Trained != 5 || len(m.Metrics.Lost) != 0 {
		t.Fatalf("metrics = %+v, want 5 trained trees", m.Metrics)
	}
	if m.Metrics.BytesSent == 0 || m.Metrics.ModeledSeconds == 0 {
		t.Fatalf("metrics = %+v, want nonzero communication and modeled time", m.Metrics)
	}
	ev, err := EvaluateForest(m.Forest, tab)
	if err != nil {
		t.Fatal(err)
	}
	if ev.N != tab.NumRows() || ev.Accuracy <= 0.5 {
		t.Fatalf("evaluation %v, want full coverage and better-than-chance accuracy", ev)
	}

	// Round-trip through the model decoder; the tree decoder must refuse
	// the five-tree document.
	var b bytes.Buffer
	if err := m.Forest.Encode(&b); err != nil {
		t.Fatal(err)
	}
	enc := b.Bytes()
	f2, err := DecodeModel(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if f2.NumTrees() != 5 {
		t.Fatalf("decoded %d trees, want 5", f2.NumTrees())
	}
	if _, err := DecodeTree(bytes.NewReader(enc)); err == nil {
		t.Fatal("DecodeTree accepted a five-tree forest")
	}
	ev2, err := EvaluateForest(f2, tab)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Accuracy != ev.Accuracy {
		t.Fatalf("decoded forest accuracy %.4f, want %.4f", ev2.Accuracy, ev.Accuracy)
	}
}

// TestEvaluateIsEvaluateForestOfOne pins that a tree evaluates exactly as
// the forest holding only it, field for field, and that both agree with the
// pointer walker's labels.
func TestEvaluateIsEvaluateForestOfOne(t *testing.T) {
	tab, err := GenerateQuest(QuestConfig{Function: 7, Records: 600, Seed: 5, LabelNoise: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	train, test := tab.Split(0.7)
	m, err := Train(train, Config{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(m.Tree, test)
	if err != nil {
		t.Fatal(err)
	}
	evf, err := EvaluateForest(&Forest{Schema: m.Tree.Schema, Trees: []*Tree{m.Tree}}, test)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev, evf) {
		t.Fatalf("Evaluate = %+v\nEvaluateForest(forest of one) = %+v", ev, evf)
	}
	correct := 0
	for r, p := range m.Tree.PredictTable(test) {
		if p == int(test.Class[r]) {
			correct++
		}
	}
	if ev.N != test.NumRows() || ev.Correct != correct {
		t.Fatalf("evaluation counts %d/%d correct, the walker %d/%d", ev.Correct, ev.N, correct, test.NumRows())
	}
}

func TestTrainForestRejectsEngineMisuse(t *testing.T) {
	tab, err := GenerateQuest(QuestConfig{Function: 1, Records: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		engine Config
	}{
		{"algorithm", Config{Algorithm: Serial}},
		{"faults", Config{Faults: "crash@FindSplitI:1:2"}},
		{"checkpoint", Config{CheckpointDir: t.TempDir()}},
		{"prune", Config{Prune: true}},
	} {
		if _, err := TrainForest(tab, ForestConfig{Trees: 2, Engine: tc.engine}); err == nil {
			t.Errorf("%s: engine misuse not rejected", tc.name)
		}
	}
}
