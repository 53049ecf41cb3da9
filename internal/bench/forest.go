package bench

// EXP-FOREST / GUARD-FOREST: bagged forests with per-node feature
// subsampling on label-noisy Quest data — the regime where a single
// fully-grown tree memorizes the noise and an ensemble averages it out.
// The experiment sweeps the ensemble size T and prints what each extra
// tree buys (clean held-out accuracy) and costs (the summed per-tree
// communication bill and modeled runtime); the guard pins the
// accuracy-beats-single-tree claim, the compiled batch-vote kernel's
// bit-identity to the walker oracle, and the crash guarantee (a
// terminally failed tree world loses at most that tree).

import (
	"fmt"
	"text/tabwriter"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/scalparc"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/tree"
)

// These constants pin the EXP-FOREST scenario: the noisy Quest
// table (function, attribute family, seed, label-noise rate), the
// training regime (fully-grown binned-32 trees, the regime in which a
// single tree overfits), and the forest knobs. They mirror the
// calibration proven in the scalparc forest tests.
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

func forestConfig() splitter.Config {
	return splitter.Config{MinSplit: ForestMinSplit}
}

func forestOptions(trees int) scalparc.ForestOptions {
	return scalparc.ForestOptions{
		Trees: trees, Seed: forestSeed, FeatureSample: ForestFeatureSample,
		Procs:  ForestProcs,
		Engine: scalparc.Options{Split: scalparc.SplitBinned, Bins: ForestBins},
	}
}

// forestMeasure trains one ensemble size on the pinned scenario and
// reduces the run to a point. The accuracy is the compiled
// batch-vote kernel's on the held-out table — the engine production
// serving actually runs.
func forestMeasure(trees int, train, test *dataset.Table) (ForestPoint, *scalparc.ForestResult, error) {
	res, err := scalparc.TrainForest(train, forestConfig(), forestOptions(trees))
	if err != nil {
		return ForestPoint{}, nil, err
	}
	m, err := infer.CompileForest(res.Forest)
	if err != nil {
		return ForestPoint{}, nil, err
	}
	pred, err := m.PredictTable(test)
	if err != nil {
		return ForestPoint{}, nil, err
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
	}, res, nil
}

// Forest runs and prints EXP-FOREST: held-out accuracy and total
// communication against the ensemble size (a fixed T ladder up to the
// guard's T=16) on the pinned noisy-Quest scenario. The measurements ride
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
		pt, _, err := forestMeasure(trees, train, test)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "T=%d\t%d\t%.3fs\t%.1fKB\t%.4f\n",
			pt.Trees, pt.Nodes, pt.ModeledSeconds, float64(pt.BytesSent)/1e3, pt.Accuracy)
	}
	return tw.Flush()
}

// forestKiller poisons its tree's first FindSplitI collective with a
// corrupted deposit — a deterministic data fault no recovery can fix, the
// only way a run on the simulated machine dies terminally (fail-stop
// crashes shrink and replay; the machine refuses to kill its last live
// rank). This is the same mechanism the scalparc forest chaos tests use.
type forestKiller struct{}

func (forestKiller) Act(at comm.Site) comm.FaultAction {
	if at.Phase == trace.FindSplitI && at.Op == comm.OpCollective {
		return comm.FaultAction{Corrupt: true}
	}
	return comm.FaultAction{}
}

// forestGuardVictim is the tree index the chaos gate kills.
const forestGuardVictim = 5

// ForestGuard runs and prints GUARD-FOREST, the CI regression gate for
// the forest path. On the pinned noisy-Quest scenario it verifies, in
// order: the T=16 bagged forest's clean held-out accuracy is at least the
// single fully-grown tree's, the compiled batch-vote kernel answers
// bit-identically to the per-tree walker oracle on every held-out row,
// and a chaos run that terminally kills one tree's world loses exactly
// that tree while every survivor stays byte-identical to its fault-free
// counterpart. It returns an error — failing CI — if any gate regresses.
func ForestGuard(e *Env) error {
	w := e.Out
	fmt.Fprintf(w, "GUARD-FOREST — T=%d bagging must beat one tree on noisy Quest (%s records at %.0f%% label noise, %d processors per tree)\n",
		ForestTrees, human(ForestRecords), forestLabelNoise*100, ForestProcs)
	train, test, err := forestTables()
	if err != nil {
		return err
	}

	// The baseline is a plain fully-grown tree on the raw noisy table — no
	// bootstrap, no feature subsampling — the model the ensemble claim is
	// actually about.
	world := comm.NewWorld(ForestProcs, timing.T3D())
	singleRes, err := scalparc.TrainOpts(world, train, forestConfig(),
		scalparc.Options{Split: scalparc.SplitBinned, Bins: ForestBins})
	if err != nil {
		return err
	}
	singleAcc := accuracy(singleRes.Tree.PredictTable(test), test)
	forest, forestRes, err := forestMeasure(ForestTrees, train, test)
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\tnodes\theld-out accuracy")
	fmt.Fprintf(tw, "single tree\t%d\t%.4f\n", singleRes.Tree.NumNodes(), singleAcc)
	fmt.Fprintf(tw, "forest T=%d\t%d\t%.4f\n", ForestTrees, forest.Nodes, forest.Accuracy)
	tw.Flush()

	g := gates{prefix: "forest guard: "}

	// Gate 1: the ensemble must generalize at least as well as the single
	// fully-grown tree that memorized the label noise.
	if forest.Accuracy < singleAcc {
		g.fail("accuracy regression — forest T=%d %.4f below single tree %.4f",
			ForestTrees, forest.Accuracy, singleAcc)
	}

	// Gate 2: the flat batch-vote kernel must match the walker oracle bit
	// for bit on the whole held-out table.
	m, err := infer.CompileForest(forestRes.Forest)
	if err != nil {
		return err
	}
	compiled, err := m.PredictTable(test)
	if err != nil {
		return err
	}
	walked := forestRes.Forest.PredictTable(test)
	for r := range walked {
		if compiled[r] != walked[r] {
			g.fail("vote-kernel divergence — held-out row %d: compiled %d, walker oracle %d",
				r, compiled[r], walked[r])
			break
		}
	}

	// Gate 3: terminally killing one tree's world must lose exactly that
	// tree, and every survivor must be byte-identical to its fault-free
	// counterpart — a crash costs at most the in-flight tree.
	fo := forestOptions(ForestTrees)
	fo.FaultsFor = func(treeIdx int) comm.FaultInjector {
		if treeIdx != forestGuardVictim {
			return nil
		}
		return forestKiller{}
	}
	chaos, err := scalparc.TrainForest(train, forestConfig(), fo)
	if err != nil {
		g.fail("chaos run failed outright instead of absorbing the lost tree: %v", err)
	} else {
		if len(chaos.LostTrees) != 1 || chaos.LostTrees[0] != forestGuardVictim {
			g.fail("chaos run lost trees %v, want exactly [%d]", chaos.LostTrees, forestGuardVictim)
		}
		want := append([]*tree.Tree(nil), forestRes.Forest.Trees[:forestGuardVictim]...)
		want = append(want, forestRes.Forest.Trees[forestGuardVictim+1:]...)
		if len(chaos.Forest.Trees) != len(want) {
			g.fail("chaos run kept %d trees, want %d survivors", len(chaos.Forest.Trees), len(want))
		} else {
			for i, tr := range chaos.Forest.Trees {
				if !tr.Equal(want[i]) {
					g.fail("chaos survivor %d differs from its fault-free counterpart", i)
					break
				}
			}
		}
	}

	if err := guardError(g.errs, nil); err != nil {
		return err
	}
	fmt.Fprintf(w, "ok: forest %.4f >= single tree %.4f, batch-vote kernel bit-identical to the walker on %d held-out rows, chaos run lost only tree %d with survivors intact\n",
		forest.Accuracy, singleAcc, len(walked), forestGuardVictim)
	return nil
}
