package scalparc

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/tree"
)

func baseForestOptions() ForestOptions {
	return ForestOptions{
		Trees:         4,
		Seed:          42,
		FeatureSample: 3,
		Procs:         2,
		Engine:        Options{Split: SplitBinned, Bins: 16},
	}
}

// TestForestFeatureSamplingChangesTrees sanity-checks that per-node feature
// subsampling is actually wired through training: with distinct feature
// seeds the per-tree masks differ and so must some trees, whereas bagging
// alone with the same tree seed is deterministic.
func TestForestFeatureSamplingChangesTrees(t *testing.T) {
	tab := forestData.tab(t)
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
	if bytes.Equal(encoded(t, a.Forest), encoded(t, b.Forest)) {
		t.Fatal("forests with and without feature subsampling are identical; the mask is not reaching the engine")
	}
}

// TestForestConfigErrorFailsUpFront: an engine option every tree would
// reject is one configuration error, reported before any tree trains — not
// T lost trees ending in "all forest trees failed".
func TestForestConfigErrorFailsUpFront(t *testing.T) {
	tab := forestData.tab(t)
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
	tab := forestData.tab(t)
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
// fault-free forest. A file of another forest (another seed, another
// schema) is retrained over, not restored. A missing directory is created;
// an unusable one fails the run before any tree trains.
func TestForestCheckpointPersistsAndRestores(t *testing.T) {
	tab := forestData.tab(t)
	cfg := splitter.Config{MinSplit: 8}
	dir := t.TempDir()

	fo := baseForestOptions()
	clean, err := TrainForest(tab, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}
	treeFiles := func(dir, pattern string) []string {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		return files
	}

	const victim = 1
	fo.Engine.CheckpointDir = dir
	fo.FaultsFor = killTreeFaults(victim)
	res, err := TrainForest(tab, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LostTrees) != 1 || res.LostTrees[0] != victim {
		t.Fatalf("LostTrees = %v, want [%d]", res.LostTrees, victim)
	}
	if files := treeFiles(dir, "tree_001-*.json"); len(files) != 0 {
		t.Fatalf("lost tree left a checkpoint file: %v", files)
	}
	if files := treeFiles(dir, "tree_*.json"); len(files) != fo.Trees-1 {
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
	if !bytes.Equal(encoded(t, res2.Forest), encoded(t, clean.Forest)) {
		t.Error("checkpoint-completed forest differs from the fault-free forest")
	}

	// Another seed's forest over the same directory restores none of these
	// trees: it is the fresh forest of its own seed.
	other := fo
	other.Seed++
	other.Engine.CheckpointDir = ""
	fresh, err := TrainForest(tab, cfg, other)
	if err != nil {
		t.Fatal(err)
	}
	other.Engine.CheckpointDir = dir
	res4, err := TrainForest(tab, cfg, other)
	if err != nil {
		t.Fatal(err)
	}
	if res4.RestoredTrees != 0 || !bytes.Equal(encoded(t, res4.Forest), encoded(t, fresh.Forest)) {
		t.Fatalf("another seed's forest restored %d tree(s) from the directory, or differs from its fresh forest", res4.RestoredTrees)
	}

	// A tree file persisted under a schema of the same size but another
	// attribute kind belongs to a different run: it is retrained over, not
	// restored into this forest.
	foreign := &dataset.Schema{Attrs: append([]dataset.Attribute(nil), tab.Schema.Attrs...), Classes: tab.Schema.Classes}
	foreign.Attrs[0] = dataset.Attribute{Name: "salary", Kind: dataset.Categorical, Values: []string{"low", "high"}}
	leaf := &tree.Tree{Schema: foreign, Root: &tree.Node{Leaf: true, Hist: []int64{1, 0}}}
	first := treeFiles(dir, "tree_000-*.json")
	if len(first) != 2 {
		t.Fatalf("tree 0 has %d files, want one per seed", len(first))
	}
	for _, path := range first {
		if err := atomicfile.Write(path, leaf.Encode); err != nil {
			t.Fatal(err)
		}
	}
	res3, err := TrainForest(tab, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}
	if res3.RestoredTrees != fo.Trees-1 || res3.TrainedTrees != 1 {
		t.Fatalf("rerun over a foreign tree_000 file restored %d / trained %d trees, want %d / 1",
			res3.RestoredTrees, res3.TrainedTrees, fo.Trees-1)
	}
	if !bytes.Equal(encoded(t, res3.Forest), encoded(t, clean.Forest)) {
		t.Error("forest retrained over a foreign tree file differs from the fault-free forest")
	}

	// The directory is opened like the engine's: a missing one is created,
	// and one that cannot be created fails before any tree trains.
	fo.Engine.CheckpointDir = filepath.Join(t.TempDir(), "missing", "dir")
	if _, err := TrainForest(tab, cfg, fo); err != nil {
		t.Fatalf("missing checkpoint dir: %v", err)
	}
	if files := treeFiles(fo.Engine.CheckpointDir, "tree_*.json"); len(files) != fo.Trees {
		t.Fatalf("created checkpoint dir holds %d tree files, want %d", len(files), fo.Trees)
	}
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	fo.Engine.CheckpointDir = filepath.Join(blocker, "sub")
	var started atomic.Int32
	fo.FaultsFor = func(int) comm.FaultInjector { started.Add(1); return nil }
	if _, err := TrainForest(tab, cfg, fo); err == nil || started.Load() != 0 {
		t.Fatalf("unusable checkpoint dir: err = %v after %d tree(s) started", err, started.Load())
	}
}

// TestForestCheckpointRerunOverAnotherTable: a checkpoint directory's trees
// belong to the table they were trained on. A rerun with the same options
// over another table of the same schema and size (Quest F5 for F2, another
// seed) restores none of them and is that table's fresh forest.
func TestForestCheckpointRerunOverAnotherTable(t *testing.T) {
	gen := func(function int, seed int64) *dataset.Table {
		tab, err := datagen.Generate(datagen.Config{Function: function, Seed: seed}, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	first, second := gen(2, 1), gen(5, 2)
	cfg := splitter.Config{MinSplit: 8}
	fo := baseForestOptions()
	fo.Trees = 3
	fresh, err := TrainForest(second, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}
	fo.Engine.CheckpointDir = t.TempDir()
	if _, err := TrainForest(first, cfg, fo); err != nil {
		t.Fatal(err)
	}
	res, err := TrainForest(second, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}
	if res.RestoredTrees != 0 || res.TrainedTrees != fo.Trees {
		t.Fatalf("rerun over another table restored %d / trained %d trees, want 0 / %d", res.RestoredTrees, res.TrainedTrees, fo.Trees)
	}
	if !bytes.Equal(encoded(t, res.Forest), encoded(t, fresh.Forest)) {
		t.Error("the rerun's forest differs from the other table's fresh forest")
	}
}

// TestTrainForestWorldRetiresItsWorld: on a caller's world the forest is
// the pool's, byte for byte, and a terminal error ends training there — the
// remaining trees are lost with that error, which is returned beside the
// trees before it.
func TestTrainForestWorldRetiresItsWorld(t *testing.T) {
	tab := forestData.tab(t)
	cfg := splitter.Config{MinSplit: 8}
	fo := baseForestOptions()
	pool, err := TrainForest(tab, cfg, fo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainForestWorld(comm.NewWorld(3, timing.T3D()), tab, cfg, fo)
	if err != nil || !bytes.Equal(encoded(t, res.Forest), encoded(t, pool.Forest)) {
		t.Fatalf("forest on a caller's world differs from the pool's (err %v)", err)
	}

	fo.FaultsFor = killTreeFaults(1)
	res, err = TrainForestWorld(comm.NewWorld(2, timing.T3D()), tab, cfg, fo)
	var pe *comm.ProtocolError
	if !errors.As(err, &pe) || res == nil || !reflect.DeepEqual(res.LostTrees, []int{1, 2, 3}) {
		t.Fatalf("err = %v, lost = %v; want the poisoning error beside tree 0", err, res.LostTrees)
	}
	for _, i := range res.LostTrees {
		if res.PerTree[i].Err != err.Error() {
			t.Errorf("lost tree %d records %q, want the retiring error", i, res.PerTree[i].Err)
		}
	}
	if !res.Forest.Trees[0].Equal(pool.Forest.Trees[0]) {
		t.Error("the tree before the poisoned one differs from the pool's")
	}
}

// sameBooks fails unless a run reports exactly the books of want: its tree,
// modeled runtime, per-rank stats and peaks, and every rank's trace
// buckets, spans and events.
func sameBooks(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if !got.Tree.Equal(want.Tree) || got.ModeledSeconds != want.ModeledSeconds ||
		!reflect.DeepEqual(got.Stats, want.Stats) || !reflect.DeepEqual(got.PeakMemoryPerRank, want.PeakMemoryPerRank) {
		t.Errorf("%s: tree, modeled seconds, stats or peaks differ from a fresh world's", name)
	}
	for r, w := range want.Trace.Ranks {
		g := got.Trace.Ranks[r]
		if !reflect.DeepEqual(g.Buckets(), w.Buckets()) || !reflect.DeepEqual(g.Spans(), w.Spans()) ||
			!reflect.DeepEqual(g.Events(), w.Events()) {
			t.Errorf("%s: rank %d's trace (%d buckets) differs from a fresh world's (%d buckets)",
				name, r, len(g.Buckets()), len(w.Buckets()))
		}
	}
}

// TestReusedWorldReportsFreshBooks: the forest trains its trees back to
// back on one world, so every run on a reused world — deeper or shallower
// than the one before — must report what a fresh world would. A tree after
// a poisoned one trains on the fresh world the pool opens in its place.
func TestReusedWorldReportsFreshBooks(t *testing.T) {
	tab := forestData.tab(t)
	runs := []splitter.Config{{MinSplit: 8}, {MaxDepth: 1}, {}, {MaxDepth: 3}}
	for _, p := range []int{1, 2, 4} {
		w := comm.NewWorld(p, timing.T3D())
		for i, cfg := range runs {
			got, err := TrainOpts(w, tab, cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := TrainOpts(comm.NewWorld(p, timing.T3D()), tab, cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameBooks(t, fmt.Sprintf("p=%d run %d", p, i), got, want)
		}
	}

	for _, p := range []int{2, 4} {
		fo := baseForestOptions()
		fo.Procs, fo.Trees = p, 2
		clean, err := TrainForest(tab, splitter.Config{MinSplit: 8}, fo)
		if err != nil {
			t.Fatal(err)
		}
		fo.FaultsFor = killTreeFaults(0)
		res, err := TrainForest(tab, splitter.Config{MinSplit: 8}, fo)
		if err != nil {
			t.Fatal(err)
		}
		got, want := res.PerTree[1], clean.PerTree[1]
		if len(res.LostTrees) != 1 || !res.Forest.Trees[0].Equal(clean.Forest.Trees[1]) || !reflect.DeepEqual(got, want) {
			t.Errorf("p=%d: the tree after a poisoned one reports %+v, want %+v", p, got, want)
		}
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
