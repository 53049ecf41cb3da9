package bench

// EXP-FOREST: bagged forests with per-node feature subsampling on
// label-noisy Quest data — the regime where a single fully-grown tree
// memorizes the noise and an ensemble averages it out. The experiment
// sweeps the ensemble size T and prints what each extra tree buys (clean
// held-out accuracy) and costs (the summed per-tree communication bill and
// modeled runtime).

import (
	"fmt"
	"text/tabwriter"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/scalparc"
	"repro/internal/splitter"
)

// These constants pin the EXP-FOREST scenario: the noisy Quest
// table (function, attribute family, seed, label-noise rate), the
// training regime (fully-grown binned-32 trees, the regime in which a
// single tree overfits), and the forest knobs. The scalparc forest tests
// pin the same scenario's accuracy ordering and vote-kernel identity.
const (
	ForestRecords       = 1200
	ForestTestRows      = 1200
	ForestProcs         = 2
	ForestBins          = 32
	ForestMinSplit      = 4
	ForestFeatureSample = 3
	ForestTrees         = 16
	forestFunction      = 7
	forestSeed          = 11
	forestLabelNoise    = 0.2
)

// ForestPoint is one ensemble size's measurement in EXP-FOREST.
type ForestPoint struct {
	Trees          int
	Nodes          int // summed over the ensemble
	ModeledSeconds float64
	BytesSent      int64
	Accuracy       float64
}

// forestTables generates the pinned noisy training table and its clean
// held-out counterpart (TrainTest reseeds and strips the noise).
func forestTables() (train, test *dataset.Table, err error) {
	return datagen.TrainTest(datagen.Config{
		Function: forestFunction, Attrs: datagen.Nine,
		Seed: forestSeed, LabelNoise: forestLabelNoise,
	}, ForestRecords, ForestTestRows)
}

// forestMeasure trains one ensemble size on the pinned scenario and
// reduces the run to a point. The accuracy is the compiled
// batch-vote kernel's on the held-out table — the engine production
// serving actually runs.
func forestMeasure(trees int, train, test *dataset.Table) (ForestPoint, error) {
	res, err := scalparc.TrainForest(train, splitter.Config{MinSplit: ForestMinSplit}, scalparc.ForestOptions{
		Trees: trees, Seed: forestSeed, FeatureSample: ForestFeatureSample,
		Procs:  ForestProcs,
		Engine: scalparc.Options{Split: scalparc.SplitBinned, Bins: ForestBins},
	})
	if err != nil {
		return ForestPoint{}, err
	}
	m, err := infer.CompileForest(res.Forest)
	if err != nil {
		return ForestPoint{}, err
	}
	pred, err := m.PredictTable(test)
	if err != nil {
		return ForestPoint{}, err
	}
	nodes := 0
	for _, t := range res.Forest.Trees {
		nodes += t.NumNodes()
	}
	return ForestPoint{
		Trees:          trees,
		Nodes:          nodes,
		ModeledSeconds: res.ModeledSeconds,
		BytesSent:      res.Stats.BytesSent,
		Accuracy:       accuracy(pred, test),
	}, nil
}

// Forest runs and prints EXP-FOREST: held-out accuracy and total
// communication against the ensemble size (a fixed T ladder up to
// T=16) on the pinned noisy-Quest scenario. The measurements ride
// the deterministic virtual clocks and the forest's seeded streams, so the
// table is archived in experiments_output.txt: drift is a code change, not
// host noise, and `make experiments-check` reports it.
func Forest(e *Env) error {
	w := e.Out
	fmt.Fprintf(w, "EXP-FOREST — bagged forests vs ensemble size on noisy Quest (%s records at %.0f%% label noise, %d processors per tree)\n",
		human(ForestRecords), forestLabelNoise*100, ForestProcs)
	train, test, err := forestTables()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "trees\tnodes\tmodeled runtime\tbytes sent\theld-out accuracy")
	for _, trees := range []int{1, 2, 4, 8, ForestTrees} {
		pt, err := forestMeasure(trees, train, test)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "T=%d\t%d\t%.3fs\t%.1fKB\t%.4f\n",
			pt.Trees, pt.Nodes, pt.ModeledSeconds, float64(pt.BytesSent)/1e3, pt.Accuracy)
	}
	return tw.Flush()
}
