package scalparc

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/tree"
)

func forestTestTable(t *testing.T) *dataset.Table {
	t.Helper()
	tab, err := datagen.Generate(datagen.Config{Function: 1, Attrs: datagen.Nine, Seed: 7}, 240)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func encodeForest(t *testing.T, f *tree.Forest) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := f.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func baseForestOptions() ForestOptions {
	return ForestOptions{
		Trees:         4,
		Seed:          42,
		FeatureSample: 3,
		Procs:         2,
		Engine:        Options{Split: SplitBinned, Bins: 16},
	}
}

// TestForestDeterministicAcrossProcsAndPool pins the forest determinism
// guarantee: the same seed yields a byte-identical forest at p ∈ {1, 2, 4}
// and at any across-tree pool width — bootstrap and feature streams are
// pure functions of (Seed, tree index), each engine run is p-invariant, and
// results slot by index, so neither knob can reorder or change anything.
func TestForestDeterministicAcrossProcsAndPool(t *testing.T) {
	tab := forestTestTable(t)
	cfg := splitter.Config{MinSplit: 8}
	var want []byte
	for _, procs := range []int{1, 2, 4} {
		for _, pool := range []int{1, 4} {
			fo := baseForestOptions()
			fo.Procs, fo.Parallel = procs, pool
			res, err := TrainForest(tab, cfg, fo)
			if err != nil {
				t.Fatalf("procs=%d pool=%d: %v", procs, pool, err)
			}
			if res.Forest.NumTrees() != fo.Trees {
				t.Fatalf("procs=%d pool=%d: %d trees, want %d", procs, pool, res.Forest.NumTrees(), fo.Trees)
			}
			got := encodeForest(t, res.Forest)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("procs=%d pool=%d: forest bytes differ from the procs=1 pool=1 forest", procs, pool)
			}
		}
	}
}

// TestForestFeatureSamplingChangesTrees sanity-checks that per-node feature
// subsampling is actually wired through training: with distinct feature
// seeds the per-tree masks differ and so must some trees, whereas bagging
// alone with the same tree seed is deterministic.
func TestForestFeatureSamplingChangesTrees(t *testing.T) {
	tab := forestTestTable(t)
	cfg := splitter.Config{MinSplit: 8}
	fo := baseForestOptions()
	a, err := TrainForest(tab, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}
	fo.FeatureSample = 0
	b, err := TrainForest(tab, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encodeForest(t, a.Forest), encodeForest(t, b.Forest)) {
		t.Fatal("forests with and without feature subsampling are identical; the mask is not reaching the engine")
	}
}

// TestForestConfigErrorFailsUpFront: an engine option every tree would
// reject is one configuration error, reported before any tree trains — not
// T lost trees ending in "all forest trees failed".
func TestForestConfigErrorFailsUpFront(t *testing.T) {
	tab := forestTestTable(t)
	for _, tc := range []struct {
		edit func(*ForestOptions)
		want string
	}{
		{func(fo *ForestOptions) { fo.FeatureSample = 99 }, "FeatureSample 99 out of range"},
		{func(fo *ForestOptions) { fo.Engine.Bins = 1 }, "Bins 1 out of range"},
	} {
		fo := baseForestOptions()
		tc.edit(&fo)
		_, err := TrainForest(tab, splitter.Config{MinSplit: 8}, fo)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "forest trees failed") {
			t.Errorf("err = %v, want the %q error up front", err, tc.want)
		}
	}
}

// treeKiller poisons the victim tree's first FindSplitI collective with a
// corrupted deposit — a deterministic data fault no recovery can fix (see
// the fault taxonomy in package comm). Fail-stop crashes cannot lose a
// tree terminally: the simulated machine refuses to kill its last live
// rank, so a crash-everyone schedule just shrinks to a one-rank world that
// replays and finishes. A poisoned collective, by contrast, aborts the run
// on every rank, which is the terminal loss the ensemble guarantee is
// about.
type treeKiller struct{}

func (treeKiller) Act(at comm.Site) comm.FaultAction {
	if at.Phase == trace.FindSplitI && at.Op == comm.OpCollective {
		return comm.FaultAction{Corrupt: true}
	}
	return comm.FaultAction{}
}

// killTreeFaults returns a FaultsFor hook that terminally kills the
// designated tree's world and leaves every other tree untouched.
func killTreeFaults(victim int) func(int) comm.FaultInjector {
	return func(treeIdx int) comm.FaultInjector {
		if treeIdx != victim {
			return nil
		}
		return treeKiller{}
	}
}

// TestForestCrashLosesAtMostInFlightTree is the ensemble-level crash
// guarantee: a tree whose world dies wholesale is recorded lost, every
// other tree survives byte-identical to the fault-free run, and training
// reports success.
func TestForestCrashLosesAtMostInFlightTree(t *testing.T) {
	tab := forestTestTable(t)
	cfg := splitter.Config{MinSplit: 8}
	fo := baseForestOptions()
	clean, err := TrainForest(tab, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}

	const victim = 2
	fo.FaultsFor = killTreeFaults(victim)
	res, err := TrainForest(tab, cfg, fo)
	if err != nil {
		t.Fatalf("forest training must survive losing one tree: %v", err)
	}
	if len(res.LostTrees) != 1 || res.LostTrees[0] != victim {
		t.Fatalf("LostTrees = %v, want [%d]", res.LostTrees, victim)
	}
	if res.PerTree[victim].Err == "" {
		t.Error("lost tree has no recorded error")
	}
	if res.Forest.NumTrees() != fo.Trees-1 {
		t.Fatalf("forest has %d trees, want %d survivors", res.Forest.NumTrees(), fo.Trees-1)
	}
	// The survivors must be exactly the fault-free trees at the other
	// indices: per-tree streams are independent, so a lost tree cannot
	// perturb its siblings.
	want := append([]*tree.Tree(nil), clean.Forest.Trees[:victim]...)
	want = append(want, clean.Forest.Trees[victim+1:]...)
	for i, tr := range res.Forest.Trees {
		if !tr.Equal(want[i]) {
			t.Errorf("surviving tree %d differs from its fault-free counterpart", i)
		}
	}
}

// TestForestCheckpointPersistsAndRestores pins the forest checkpoint
// contract: completed trees land in the directory atomically, a crashed
// tree leaves no file, and a rerun over the same directory restores the
// survivors and trains only what is missing — converging on the byte-exact
// fault-free forest. A missing directory is created; an unusable one fails
// the run before any tree trains.
func TestForestCheckpointPersistsAndRestores(t *testing.T) {
	tab := forestTestTable(t)
	cfg := splitter.Config{MinSplit: 8}
	dir := t.TempDir()

	fo := baseForestOptions()
	clean, err := TrainForest(tab, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}

	const victim = 1
	fo.CheckpointDir = dir
	fo.FaultsFor = killTreeFaults(victim)
	res, err := TrainForest(tab, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LostTrees) != 1 || res.LostTrees[0] != victim {
		t.Fatalf("LostTrees = %v, want [%d]", res.LostTrees, victim)
	}
	if _, err := os.Stat(forestTreePath(dir, victim)); !os.IsNotExist(err) {
		t.Fatalf("lost tree left a checkpoint file: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "tree_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != fo.Trees-1 {
		t.Fatalf("checkpoint dir has %d tree files, want %d", len(files), fo.Trees-1)
	}

	fo.FaultsFor = nil
	res2, err := TrainForest(tab, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}
	if res2.RestoredTrees != fo.Trees-1 || res2.TrainedTrees != 1 {
		t.Fatalf("rerun restored %d / trained %d trees, want %d / 1", res2.RestoredTrees, res2.TrainedTrees, fo.Trees-1)
	}
	if !bytes.Equal(encodeForest(t, res2.Forest), encodeForest(t, clean.Forest)) {
		t.Error("checkpoint-completed forest differs from the fault-free forest")
	}

	// A tree file persisted under a schema of the same size but another
	// attribute kind belongs to a different run: it is retrained over, not
	// restored into this forest.
	foreign := &dataset.Schema{Attrs: append([]dataset.Attribute(nil), tab.Schema.Attrs...), Classes: tab.Schema.Classes}
	foreign.Attrs[0] = dataset.Attribute{Name: "salary", Kind: dataset.Categorical, Values: []string{"low", "high"}}
	leaf := &tree.Tree{Schema: foreign, Root: &tree.Node{Leaf: true, Hist: []int64{1, 0}}}
	if err := saveForestTree(forestTreePath(dir, 0), leaf); err != nil {
		t.Fatal(err)
	}
	res3, err := TrainForest(tab, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}
	if res3.RestoredTrees != fo.Trees-1 || res3.TrainedTrees != 1 {
		t.Fatalf("rerun over a foreign tree_000.json restored %d / trained %d trees, want %d / 1",
			res3.RestoredTrees, res3.TrainedTrees, fo.Trees-1)
	}
	if !bytes.Equal(encodeForest(t, res3.Forest), encodeForest(t, clean.Forest)) {
		t.Error("forest retrained over a foreign tree file differs from the fault-free forest")
	}

	// The directory is opened like the engine's: a missing one is created,
	// and one that cannot be created fails before any tree trains.
	fo.CheckpointDir = filepath.Join(t.TempDir(), "missing", "dir")
	if _, err := TrainForest(tab, cfg, fo); err != nil {
		t.Fatalf("missing checkpoint dir: %v", err)
	}
	if files, _ := filepath.Glob(filepath.Join(fo.CheckpointDir, "tree_*.json")); len(files) != fo.Trees {
		t.Fatalf("created checkpoint dir holds %d tree files, want %d", len(files), fo.Trees)
	}
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	fo.CheckpointDir = filepath.Join(blocker, "sub")
	var started atomic.Int32
	fo.FaultsFor = func(int) comm.FaultInjector { started.Add(1); return nil }
	if _, err := TrainForest(tab, cfg, fo); err == nil || started.Load() != 0 {
		t.Fatalf("unusable checkpoint dir: err = %v after %d tree(s) started", err, started.Load())
	}
}

func labelAccuracy(pred []int, tab *dataset.Table) float64 {
	hits := 0
	for r, l := range pred {
		if l == int(tab.Class[r]) {
			hits++
		}
	}
	return float64(hits) / float64(len(pred))
}

// TestForestBeatsSingleTreeOnNoisyQuest runs EXP-FOREST's scenario: on
// label-noisy Quest data a 16-tree bagged forest with feature subsampling
// generalizes at least as well as one fully-grown tree (which memorizes the
// noise), measured on a clean held-out set. The flat batch-vote kernel must
// also match the per-tree walker oracle bit for bit on the trained ensemble.
func TestForestBeatsSingleTreeOnNoisyQuest(t *testing.T) {
	train, test, err := datagen.TrainTest(datagen.Config{
		Function: 7, Attrs: datagen.Nine, Seed: 11, LabelNoise: 0.2,
	}, 1200, 1200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := splitter.Config{MinSplit: 4}

	w := comm.NewWorld(2, timing.T3D())
	single, err := TrainOpts(w, train, cfg, Options{Split: SplitBinned, Bins: 32})
	if err != nil {
		t.Fatal(err)
	}
	fo := ForestOptions{
		Trees: 16, Seed: 11, FeatureSample: 3, Procs: 2,
		Engine: Options{Split: SplitBinned, Bins: 32},
	}
	res, err := TrainForest(train, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}

	m, err := infer.CompileForest(res.Forest)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := m.PredictTable(test)
	if err != nil {
		t.Fatal(err)
	}
	walked := res.Forest.PredictTable(test)
	for r := range walked {
		if compiled[r] != walked[r] {
			t.Fatalf("test row %d: compiled forest=%d walker oracle=%d", r, compiled[r], walked[r])
		}
	}

	accSingle := labelAccuracy(single.Tree.PredictTable(test), test)
	accForest := labelAccuracy(compiled, test)
	t.Logf("noisy Quest f7: single tree %.4f, forest(T=16) %.4f", accSingle, accForest)
	if accForest < accSingle {
		t.Errorf("forest accuracy %.4f below single tree %.4f", accForest, accSingle)
	}
}
