package scalparc

// Forest training: bagging plus per-node feature subsampling (features.go)
// layered over the single-tree engine. Every tree is an independent
// ScalParC run — its own comm world over the same processor count — on a
// deterministic bootstrap resample of the shared input table, so the
// within-tree parallelism (the four phases, the split strategies, fault
// recovery) is exactly the engine's, and across-tree parallelism is a
// bounded pool of concurrent worlds.
//
// Determinism: tree i's bootstrap indices and feature seed are pure
// functions of (ForestOptions.Seed, i) via splitmix64 streams, and each
// engine run is invariant under its processor count, so the same seed
// yields a byte-identical forest at any Procs and any Parallel — tree
// completion order never matters because results are slotted by index.
//
// Fault tolerance has two layers. Within a tree the engine's own recovery
// applies (shrink + replay from the root). If a tree's run still fails
// terminally, the tree is recorded lost and training continues: a crash
// costs at most the in-flight tree, never the ensemble. With CheckpointDir
// set, every completed tree is additionally persisted atomically
// (tree_<i>.json via atomicfile.WriteDurable), and a rerun pointed at the same
// directory restores completed trees instead of retraining them, so a
// whole-process crash also loses only in-flight trees.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/tree"
)

// ForestOptions tunes forest training.
type ForestOptions struct {
	// Trees is the ensemble size T (required, >= 1).
	Trees int
	// Seed is the master determinism seed: per-tree bootstrap and feature
	// streams derive from it.
	Seed uint64
	// FeatureSample is the per-node attribute subset size every tree
	// evaluates as split candidates (0: no subsampling; see features.go).
	FeatureSample int
	// Procs is the processor count of each tree's world (0: 1).
	Procs int
	// Model is the timing model for the worlds (zero value: timing.T3D()).
	Model timing.Model
	// Parallel bounds how many tree worlds train concurrently (0: 1).
	// Forest bytes and modeled seconds are per-tree figures aggregated by
	// summation, so Parallel changes only wall time, never the results.
	Parallel int
	// Engine carries the per-tree engine options (split strategy, bins,
	// fault injection). Its Resume and CheckpointDir fields must be zero:
	// the forest layer owns persistence.
	Engine Options
	// FaultsFor, when non-nil, supplies the fault injector for each tree's
	// world by tree index (overriding Engine.Faults) — the chaos harness
	// crashes a rank in one designated tree this way.
	FaultsFor func(treeIdx int) comm.FaultInjector
	// CheckpointDir, when set, persists every completed tree to
	// tree_<i>.json in the directory (atomically) and restores completed
	// trees from it on a rerun. The directory is created if absent and
	// must be writable, as for Options.CheckpointDir.
	CheckpointDir string
}

// TreeRun reports one tree's training outcome.
type TreeRun struct {
	// Seed is the tree's derived determinism seed.
	Seed uint64
	// Restored marks a tree loaded from CheckpointDir instead of trained.
	Restored bool
	// Err is the terminal training error of a lost tree ("" otherwise).
	Err string
	// Levels, ModeledSeconds, Recoveries, VoteFallbacks, and Stats are the
	// engine run's figures (zero for restored and lost trees); Stats sums
	// the run's per-rank counters.
	Levels         int
	ModeledSeconds float64
	Recoveries     int
	VoteFallbacks  int
	Stats          comm.Stats
}

// ForestResult is the outcome of a forest training run.
type ForestResult struct {
	// Forest holds the surviving trees, in tree-index order.
	Forest *tree.Forest
	// PerTree has one entry per requested tree, indexed by tree.
	PerTree []TreeRun
	// LostTrees lists the indices of trees whose runs failed terminally.
	LostTrees []int
	// TrainedTrees and RestoredTrees partition the surviving trees.
	TrainedTrees, RestoredTrees int
	// ModeledSeconds sums the trees' modeled parallel runtimes (the
	// sequential-schedule figure; divide by the across-tree parallelism
	// for an idealized concurrent schedule). Stats sums every tree's
	// communication counters — the ensemble's total byte bill.
	ModeledSeconds float64
	Stats          comm.Stats
	// WallSeconds is the host wall-clock time of the whole run.
	WallSeconds float64
}

// forestTreePath names tree i's persisted model file in the checkpoint dir.
func forestTreePath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("tree_%03d.json", i))
}

// TrainForest trains a bagged forest of fo.Trees trees over the table and
// returns the ensemble with per-tree metrics. At least one tree must
// survive; lost trees are reported, not fatal.
func TrainForest(tab *dataset.Table, cfg splitter.Config, fo ForestOptions) (*ForestResult, error) {
	// Every tree's run would reject a bad option alike; checking once up
	// front reports it as the configuration error it is, not as T lost trees.
	if err := CheckOptions(fo.Engine, &fo, tab.Schema.NumAttrs()); err != nil {
		return nil, err
	}
	fo.Procs = max(fo.Procs, 1)
	fo.Parallel = max(fo.Parallel, 1)
	if fo.Model == (timing.Model{}) {
		fo.Model = timing.T3D()
	}
	if err := tab.Schema.Validate(); err != nil {
		return nil, err
	}
	if tab.NumRows() == 0 {
		return nil, fmt.Errorf("scalparc: empty training set")
	}
	if fo.CheckpointDir != "" {
		if _, err := NewCheckpointStore(fo.CheckpointDir); err != nil {
			return nil, err
		}
	}

	res := &ForestResult{PerTree: make([]TreeRun, fo.Trees)}
	trees := make([]*tree.Tree, fo.Trees)
	start := time.Now()

	sem := make(chan struct{}, fo.Parallel)
	var wg sync.WaitGroup
	for i := 0; i < fo.Trees; i++ {
		treeSeed := mix64(fo.Seed, uint64(i))
		run := &res.PerTree[i]
		run.Seed = treeSeed

		if fo.CheckpointDir != "" {
			if t, err := loadForestTree(forestTreePath(fo.CheckpointDir, i), tab.Schema); err == nil {
				trees[i], run.Restored = t, true
				continue
			}
		}

		wg.Add(1)
		sem <- struct{}{}
		go func(i int, treeSeed uint64, run *TreeRun) {
			defer func() { <-sem; wg.Done() }()
			trees[i] = trainForestTree(tab, cfg, fo, i, treeSeed, run)
		}(i, treeSeed, run)
	}
	wg.Wait()
	res.WallSeconds = time.Since(start).Seconds()

	f := &tree.Forest{Schema: tab.Schema}
	for i, t := range trees {
		run := &res.PerTree[i]
		switch {
		case t == nil:
			res.LostTrees = append(res.LostTrees, i)
		case run.Restored:
			res.RestoredTrees++
			f.Trees = append(f.Trees, t)
		default:
			res.TrainedTrees++
			f.Trees = append(f.Trees, t)
			res.ModeledSeconds += run.ModeledSeconds
			res.Stats.Add(run.Stats)
		}
	}
	if len(f.Trees) == 0 {
		return nil, fmt.Errorf("scalparc: all %d forest trees failed; last error: %s", fo.Trees, res.PerTree[fo.Trees-1].Err)
	}
	res.Forest = f
	return res, nil
}

// trainForestTree runs one tree end to end: bootstrap resample, engine
// training on a fresh world, optional persistence. A terminal engine error
// marks the tree lost (nil return) — the ensemble absorbs it.
func trainForestTree(tab *dataset.Table, cfg splitter.Config, fo ForestOptions,
	i int, treeSeed uint64, run *TreeRun) *tree.Tree {
	boot := tab.Gather(bootstrapIndices(treeSeed, tab.NumRows()))

	opts := fo.Engine
	opts.featureSample = fo.FeatureSample
	opts.featureSeed = mix64(treeSeed, 0xFEA7)
	if fo.FaultsFor != nil {
		opts.Faults = fo.FaultsFor(i)
	}

	w := comm.NewWorld(fo.Procs, fo.Model)
	r, err := TrainOpts(w, boot, cfg, opts)
	if err != nil {
		run.Err = err.Error()
		return nil
	}
	run.Levels = r.Levels
	run.ModeledSeconds = r.ModeledSeconds
	run.Recoveries = r.Recoveries
	run.VoteFallbacks = r.VoteFallbacks
	for _, s := range r.Stats {
		run.Stats.Add(s)
	}

	if fo.CheckpointDir != "" {
		if err := saveForestTree(forestTreePath(fo.CheckpointDir, i), r.Tree); err != nil {
			run.Err = err.Error()
			return nil
		}
	}
	return r.Tree
}

// bootstrapIndices draws n row indices with replacement from the tree's
// seed — the bagging resample.
func bootstrapIndices(treeSeed uint64, n int) []int {
	state := mix64(treeSeed, 0xB007)
	idx := make([]int, n)
	for j := range idx {
		idx[j] = int(splitmix64(&state) % uint64(n))
	}
	return idx
}

// saveForestTree persists a completed tree with atomicfile.WriteDurable — a
// rerun restores from these files after a crash, so they are fsynced, not
// just renamed into place. A crash mid-write leaves at most a stale temp
// file, never a torn tree_<i>.json.
func saveForestTree(path string, t *tree.Tree) error {
	err := atomicfile.WriteDurable(path, t.Encode)
	if err != nil {
		return fmt.Errorf("scalparc: persisting forest tree: %w", err)
	}
	return nil
}

// loadForestTree restores a persisted tree through decodeTree, so the
// forest shares the training schema and a directory from a different run
// cannot be silently mixed in.
func loadForestTree(path string, schema *dataset.Schema) (*tree.Tree, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	t, err := decodeTree(fh, schema)
	if err != nil {
		return nil, fmt.Errorf("scalparc: persisted tree %s: %w", path, err)
	}
	return t, nil
}
