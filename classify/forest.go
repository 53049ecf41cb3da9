package classify

// Forest training and evaluation: the public face of the bagged-ensemble
// layer (internal/scalparc's TrainForest plus internal/infer's compiled
// batch-vote engine). A forest is T independent ScalParC runs over
// deterministic bootstrap resamples with per-node feature subsampling;
// same seed, same forest, at any processor count or pool width.

import (
	"fmt"
	"io"

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
	// Parallel bounds how many trees train concurrently (0 = 1). It
	// affects wall time only, never the induced forest.
	Parallel int
	// CheckpointDir, when set, persists each completed tree atomically and
	// lets a rerun restore completed trees instead of retraining them.
	CheckpointDir string
	// Engine configures each tree's ScalParC run (processors, machine,
	// split strategy, depth limits). Algorithm must be ScalParC (the zero
	// value); fault injection, checkpointing, pruning, and Resume are not
	// forest options and must be unset.
	Engine Config
}

// ForestMetrics reports how a forest training run behaved.
type ForestMetrics struct {
	// Trees echoes the requested ensemble size; Trained, Restored, and
	// len(Lost) partition it.
	Trees, Trained, Restored int
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
// e (nil for no forest).
func (f *ForestConfig) options(e Config) *scalparc.ForestOptions {
	if f == nil {
		return nil
	}
	return &scalparc.ForestOptions{
		Trees:         f.Trees,
		Seed:          f.Seed,
		FeatureSample: f.FeatureSample,
		Procs:         e.Processors,
		Model:         e.machine(),
		Parallel:      f.Parallel,
		CheckpointDir: f.CheckpointDir,
		Engine:        e.engineOptions(),
	}
}

// TrainForest builds a bagged ensemble of cfg.Trees ScalParC trees.
func TrainForest(tab *Table, cfg ForestConfig) (*ForestModel, error) {
	if err := Check(cfg.Engine, &cfg, false); err != nil {
		return nil, err
	}
	if tab == nil {
		return nil, fmt.Errorf("classify: nil table")
	}
	res, err := scalparc.TrainForest(tab, cfg.Engine.splitterConfig(), *cfg.options(cfg.Engine))
	if err != nil {
		return nil, err
	}
	m := &ForestModel{
		Forest: res.Forest,
		Metrics: ForestMetrics{
			Trees:          cfg.Trees,
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
	return m, nil
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
