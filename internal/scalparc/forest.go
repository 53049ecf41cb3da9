package scalparc

// Forest training: bagging plus per-node feature subsampling (features.go)
// layered over the single-tree engine. A forest is T TrainOpts runs back to
// back on one world, each on a deterministic bootstrap resample of the
// shared input table, so the within-tree parallelism (the four phases, the
// split strategies, fault recovery) is exactly the engine's.
// TrainForestWorld trains on the caller's world, a wire one included;
// TrainForest runs a pool of Parallel simulated worlds pulling tree indices
// from one queue.
//
// Determinism: tree i's bootstrap indices and feature seed are pure
// functions of (ForestOptions.Seed, i) via splitmix64 streams, each engine
// run is invariant under its processor count, and results are slotted by
// index, so the same seed yields a byte-identical forest at any Procs and
// any Parallel.
//
// Fault tolerance has two layers. Within a tree the engine's own recovery
// applies (shrink + replay), and later trees train on the survivors. A
// terminal error loses the tree and retires its world: a poisoned
// collective leaves ranks dead with no failure epoch to recover them in.
// The pool opens a fresh world for that slot, so a crash costs at most the
// in-flight tree, never the ensemble; on a caller's world the remaining
// trees are lost with the same error. With Engine.CheckpointDir set,
// finished trees are persisted and a rerun restores the ones that match,
// so a whole-process crash also loses only in-flight trees.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
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
	// Procs is the processor count of TrainForest's worlds (0: 1).
	// TrainForestWorld takes the caller's world's.
	Procs int
	// Model is the timing model of TrainForest's worlds (zero value:
	// timing.T3D()). TrainForestWorld takes the caller's world's.
	Model timing.Model
	// Parallel is how many worlds TrainForest trains on concurrently
	// (0: 1). Forest bytes and modeled seconds are per-tree figures
	// aggregated by summation, so Parallel changes only wall time, never
	// the results. Concurrent worlds share Engine.Faults: leave it nil
	// with Parallel > 1.
	Parallel int
	// Engine carries every tree's engine options (split strategy, bins,
	// fault injection). Engine.Faults is installed for every tree's run,
	// so each of its events fires once, in the first tree that reaches its
	// site. Engine.CheckpointDir is the forest's directory of finished
	// trees; the trees themselves write no level frames, and Resume
	// changes nothing.
	Engine Options
	// FaultsFor, when non-nil, supplies the fault injector for each tree's
	// run by tree index (overriding Engine.Faults) — the chaos harness
	// crashes a rank in one designated tree this way.
	FaultsFor func(treeIdx int) comm.FaultInjector
}

// TreeRun reports one tree's training outcome.
type TreeRun struct {
	// Seed is the tree's derived determinism seed.
	Seed uint64
	// Restored marks a tree loaded from the checkpoint directory instead
	// of trained.
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

// TrainForest trains a bagged forest of fo.Trees trees over the table on a
// pool of fo.Parallel simulated worlds of fo.Procs ranks and returns the
// ensemble with per-tree metrics. At least one tree must survive; lost
// trees are reported, not fatal.
func TrainForest(tab *dataset.Table, cfg splitter.Config, fo ForestOptions) (*ForestResult, error) {
	f, err := newForest(tab, cfg, fo)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for range max(fo.Parallel, 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A world a terminal error retired is replaced, never reused.
			for f.trainTrees(comm.NewWorld(max(fo.Procs, 1), fo.Model)) != nil {
			}
		}()
	}
	wg.Wait()
	return f.finish(nil)
}

// TrainForestWorld trains the forest tree after tree on the caller's world,
// whose size and model it takes, as TrainOpts does. On a wire world every
// process runs it, and the processes make the same restore decisions. A
// terminal error retires w: the trees not yet trained are lost with it, and
// it is returned beside the result of the trees before it, so a caller can
// tell what ended its world (a wire worker: its own orphaning).
func TrainForestWorld(w *comm.World, tab *dataset.Table, cfg splitter.Config, fo ForestOptions) (*ForestResult, error) {
	f, err := newForest(tab, cfg, fo)
	if err != nil {
		return nil, err
	}
	return f.finish(f.trainTrees(w))
}

// forest is one forest training run: its inputs, the queue of tree indices
// still to train, and the per-tree slots every world writes its trees into.
type forest struct {
	tab   *dataset.Table
	cfg   splitter.Config
	fo    ForestOptions
	res   *ForestResult
	trees []*tree.Tree
	queue chan int
	start time.Time
	// digest is the table's (tableDigest), set only with a checkpoint
	// directory, whose tree file names carry it.
	digest uint64
}

// newForest checks the options once, up front — every tree would reject a
// bad option alike, and it is one configuration error, not T lost trees —
// opens the checkpoint directory, and makes every restore decision before
// any tree trains.
func newForest(tab *dataset.Table, cfg splitter.Config, fo ForestOptions) (*forest, error) {
	if err := CheckOptions(fo.Engine, &fo, tab.Schema.NumAttrs()); err != nil {
		return nil, err
	}
	if err := tab.Schema.Validate(); err != nil {
		return nil, err
	}
	if tab.NumRows() == 0 {
		return nil, fmt.Errorf("scalparc: empty training set")
	}
	f := &forest{tab: tab, cfg: cfg, fo: fo, start: time.Now(),
		res:   &ForestResult{PerTree: make([]TreeRun, fo.Trees)},
		trees: make([]*tree.Tree, fo.Trees),
		queue: make(chan int, fo.Trees),
	}
	if fo.Engine.CheckpointDir != "" {
		if _, err := NewCheckpointStore(fo.Engine.CheckpointDir); err != nil {
			return nil, err
		}
		f.digest = tableDigest(tab)
	}
	for i := range f.trees {
		run := &f.res.PerTree[i]
		run.Seed = mix64(fo.Seed, uint64(i))
		if f.trees[i] = f.loadTree(i); f.trees[i] != nil {
			run.Restored = true
		} else {
			f.queue <- i
		}
	}
	close(f.queue)
	return f, nil
}

// trainTrees trains queued trees back to back on w until the queue is
// empty (nil) or a tree's terminal error retires w (that error; the tree is
// recorded lost).
func (f *forest) trainTrees(w *comm.World) error {
	for i := range f.queue {
		run := &f.res.PerTree[i]
		opts := f.fo.Engine
		opts.CheckpointDir, opts.Resume = "", false
		opts.featureSample = f.fo.FeatureSample
		opts.featureSeed = mix64(run.Seed, 0xFEA7)
		if f.fo.FaultsFor != nil {
			opts.Faults = f.fo.FaultsFor(i)
		}
		boot := f.tab.Gather(bootstrapIndices(run.Seed, f.tab.NumRows()))
		r, err := TrainOpts(w, boot, f.cfg, opts)
		if err != nil {
			run.Err = err.Error()
			return err
		}
		run.Levels = r.Levels
		run.ModeledSeconds = r.ModeledSeconds
		run.Recoveries = r.Recoveries
		run.VoteFallbacks = r.VoteFallbacks
		for _, s := range r.Stats {
			run.Stats.Add(s)
		}
		if err := f.saveTree(w, i, r.Tree); err != nil {
			run.Err = err.Error()
			continue
		}
		f.trees[i] = r.Tree
	}
	return nil
}

// finish assembles the result from the per-tree slots. retired is the
// error that retired a caller's world, if one did: the trees still queued
// are lost with it, and it is returned — wrapped, should no tree survive.
func (f *forest) finish(retired error) (*ForestResult, error) {
	for i := range f.queue {
		f.res.PerTree[i].Err = retired.Error()
	}
	res := f.res
	res.WallSeconds = time.Since(f.start).Seconds()
	res.Forest = &tree.Forest{Schema: f.tab.Schema}
	for i, t := range f.trees {
		run := &res.PerTree[i]
		switch {
		case t == nil:
			res.LostTrees = append(res.LostTrees, i)
		case run.Restored:
			res.RestoredTrees++
			res.Forest.Trees = append(res.Forest.Trees, t)
		default:
			res.TrainedTrees++
			res.Forest.Trees = append(res.Forest.Trees, t)
			res.ModeledSeconds += run.ModeledSeconds
			res.Stats.Add(run.Stats)
		}
	}
	if len(res.Forest.Trees) == 0 {
		if retired == nil {
			retired = errors.New(res.PerTree[f.fo.Trees-1].Err)
		}
		return nil, fmt.Errorf("scalparc: all %d forest trees failed; last error: %w", f.fo.Trees, retired)
	}
	return res, retired
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

// treePath names tree i's file in the checkpoint directory by its index and
// a fingerprint of everything that decides the tree: its derived seed, the
// feature sample, the split strategy's parameters, the splitter config, the
// record count and the table's digest. A file left by another forest in the
// same directory, or by this forest over another table, has another name.
func (f *forest) treePath(i int) string {
	o := f.fo.Engine
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %d %d %+v %d %d", f.res.PerTree[i].Seed, f.fo.FeatureSample,
		o.Split, o.Bins, o.VoteK, f.cfg.Normalize(), f.tab.NumRows(), f.digest)
	return filepath.Join(o.CheckpointDir, fmt.Sprintf("tree_%03d-%016x.json", i, h.Sum64()))
}

// tableDigest hashes every attribute column and the class column, so trees
// persisted over one table are never restored over another of the same
// schema and size. An attribute's column of the other kind is nil and
// hashes as nothing. Values go in one at a time, little-endian, so the
// digest allocates no copy of a column.
func tableDigest(tab *dataset.Table) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for a := range tab.Schema.Attrs {
		for _, v := range tab.ContColumn(a) {
			h.Write(binary.LittleEndian.AppendUint64(b[:0], math.Float64bits(v)))
		}
		for _, v := range tab.CatColumn(a) {
			h.Write(binary.LittleEndian.AppendUint32(b[:0], uint32(v)))
		}
	}
	h.Write(tab.Class)
	return h.Sum64()
}

// saveTree persists a finished tree with atomicfile.WriteDurable — a rerun
// restores from these files after a crash, so they are fsynced, not just
// renamed into place, and a crash mid-write leaves at most a stale temp
// file, never a torn tree file. Dense rank 0 writes it, as it writes a
// level's shared frame: on a wire, the lowest live rank.
func (f *forest) saveTree(w *comm.World, i int, t *tree.Tree) error {
	if f.fo.Engine.CheckpointDir == "" {
		return nil
	}
	var err error
	w.Run(func(c *comm.Comm) {
		if c.Rank() == 0 {
			err = atomicfile.WriteDurable(f.treePath(i), t.Encode)
		}
	})
	if err != nil {
		return fmt.Errorf("scalparc: persisting forest tree: %w", err)
	}
	return nil
}

// loadTree restores tree i from the checkpoint directory, or returns nil
// when there is none to restore: no directory, no file, or a file
// decodeTree refuses (another schema's), which is retrained over, not
// mixed in.
func (f *forest) loadTree(i int) *tree.Tree {
	if f.fo.Engine.CheckpointDir == "" {
		return nil
	}
	fh, err := os.Open(f.treePath(i))
	if err != nil {
		return nil
	}
	defer fh.Close()
	t, _ := decodeTree(fh, f.tab.Schema)
	return t
}
