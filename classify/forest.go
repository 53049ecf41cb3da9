package classify

// Forest training and evaluation: the public face of the bagged-ensemble
// layer (internal/scalparc's TrainForest and TrainForestWorld plus
// internal/infer's compiled batch-vote engine). A forest is T ScalParC runs,
// back to back on one world, over deterministic bootstrap resamples with
// per-node feature subsampling; same seed, same forest, at any processor
// count, pool width or transport.

import (
	"fmt"
	"io"

	"repro/internal/comm"
	"repro/internal/infer"
	"repro/internal/scalparc"
	"repro/internal/tree"
)

// Forest is a trained bagged ensemble. See Tree for the single-tree type.
type Forest = tree.Forest

// ForestConfig controls forest training.
type ForestConfig struct {
	// Trees is the ensemble size T (required, >= 1).
	Trees int
	// Seed drives the per-tree bootstrap and feature-subsampling streams;
	// the whole forest is a pure function of (data, config, Seed).
	Seed uint64
	// FeatureSample is the per-node attribute subset size (0 disables
	// subsampling, leaving pure bagging).
	FeatureSample int
	// Parallel is how many simulated worlds TrainForest trains trees on
	// concurrently (0 = 1). It affects wall time only, never the induced
	// forest. A wire world, and a fault spec, need Parallel <= 1.
	Parallel int
	// Engine configures every tree's ScalParC run (processors, machine,
	// split strategy, depth limits). Algorithm must be ScalParC (the zero
	// value) and Prune unset. Its fault spec is installed for every tree's
	// run, each event firing once, in the first tree that reaches its
	// site; its CheckpointDir persists each finished tree atomically and
	// lets a rerun restore the trees that match instead of retraining them
	// (Resume changes nothing).
	Engine Config
}

// ForestMetrics reports how a forest training run behaved.
type ForestMetrics struct {
	// Trees echoes the requested ensemble size; Trained, Restored, and
	// len(Lost) partition it.
	Trees, Trained, Restored int
	// Processors is the size of the world each tree trained on.
	Processors int
	// Lost lists indices of trees whose runs failed terminally. A lost
	// tree never fails the run as long as one tree survives.
	Lost []int
	// ModeledSeconds sums the trained trees' modeled parallel runtimes
	// (a sequential schedule; divide by the across-tree parallelism for an
	// idealized concurrent one). WallSeconds is host wall-clock time.
	ModeledSeconds float64
	WallSeconds    float64
	// BytesSent and BytesRecv total the simulated communication volume
	// over all trained trees.
	BytesSent, BytesRecv int64
	// Recoveries sums within-tree crash-recovery rounds; VoteFallbacks
	// sums the vote-mode full-histogram fallbacks across trees.
	Recoveries    int
	VoteFallbacks int
}

// ForestModel is a trained forest with its training metrics.
type ForestModel struct {
	Forest  *Forest
	Metrics ForestMetrics
}

// options is the forest engine's form of the job, its trees training under
// e with engine options opts (nil for no forest).
func (f *ForestConfig) options(e Config, opts scalparc.Options) *scalparc.ForestOptions {
	if f == nil {
		return nil
	}
	return &scalparc.ForestOptions{
		Trees:         f.Trees,
		Seed:          f.Seed,
		FeatureSample: f.FeatureSample,
		Procs:         max(e.Processors, 1),
		Model:         e.Machine,
		Parallel:      f.Parallel,
		Engine:        opts,
	}
}

// TrainForest builds a bagged ensemble of cfg.Trees ScalParC trees on
// simulated worlds of cfg.Engine.Processors ranks.
func TrainForest(tab *Table, cfg ForestConfig) (*ForestModel, error) {
	return trainForest(nil, tab, cfg)
}

// TrainForestWorld trains the forest tree after tree on a caller-provided
// world — TrainWorld's counterpart, the entry point of a forest's
// rank-worker processes (cmd/scalparc -forest -transport=tcp). The world
// defines the machine size, so cfg.Engine.Processors is ignored. A
// terminal error ends training on the world: the remaining trees are lost,
// and the error is returned beside the model of the trees before it (a nil
// model when none survived).
func TrainForestWorld(w *comm.World, tab *Table, cfg ForestConfig) (*ForestModel, error) {
	return trainForest(w, tab, cfg)
}

// trainForest is both entry points: on w, or on TrainForest's pool of
// simulated worlds when w is nil.
func trainForest(w *comm.World, tab *Table, cfg ForestConfig) (*ForestModel, error) {
	if w != nil {
		cfg.Engine.Processors = w.Size()
	}
	if err := Check(cfg.Engine, &cfg, w != nil && w.Distributed()); err != nil {
		return nil, err
	}
	if tab == nil {
		return nil, fmt.Errorf("classify: nil table")
	}
	engine, err := cfg.Engine.engineOptions(max(cfg.Engine.Processors, 1))
	if err != nil {
		return nil, err
	}
	opts := cfg.options(cfg.Engine, engine)
	var res *scalparc.ForestResult
	if w == nil {
		res, err = scalparc.TrainForest(tab, cfg.Engine.splitterConfig(), *opts)
	} else {
		res, err = scalparc.TrainForestWorld(w, tab, cfg.Engine.splitterConfig(), *opts)
	}
	if res == nil {
		return nil, err
	}
	m := &ForestModel{
		Forest: res.Forest,
		Metrics: ForestMetrics{
			Trees:          cfg.Trees,
			Processors:     opts.Procs,
			Trained:        res.TrainedTrees,
			Restored:       res.RestoredTrees,
			Lost:           res.LostTrees,
			ModeledSeconds: res.ModeledSeconds,
			WallSeconds:    res.WallSeconds,
			BytesSent:      res.Stats.BytesSent,
			BytesRecv:      res.Stats.BytesRecv,
		},
	}
	for _, run := range res.PerTree {
		m.Metrics.Recoveries += run.Recoveries
		m.Metrics.VoteFallbacks += run.VoteFallbacks
	}
	return m, err
}

// EvaluateForest classifies every record of the table by majority vote of
// the forest's trees and compares against its labels. Tables run through
// the compiled batch engine (internal/infer.CompileForest), which is
// bit-identical to the per-tree walker vote and rejects a table whose
// schema does not match the forest's.
func EvaluateForest(f *Forest, tab *Table) (*Evaluation, error) {
	if f == nil || tab == nil {
		return nil, fmt.Errorf("classify: EvaluateForest needs a forest and a table")
	}
	m, err := infer.CompileForest(f)
	if err != nil {
		return nil, err
	}
	pred, err := m.PredictTable(tab)
	if err != nil {
		return nil, err
	}
	return evaluateLabels(f.Schema.Classes, pred, tab), nil
}

// DecodeModel reads a model document — a single tree (Tree.Encode) or a
// forest (Forest.Encode) — and returns it as a forest (a tree is a forest
// of one).
func DecodeModel(r io.Reader) (*Forest, error) { return tree.DecodeModel(r) }
