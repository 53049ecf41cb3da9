// Command scalparc trains a decision tree with the ScalParC parallel
// classifier (or the serial / parallel-SPRINT baselines) and reports the
// run's modeled runtime, per-processor memory, and accuracy.
//
// Data can come from a CSV file with a JSON schema, or be generated with
// the built-in Quest generator:
//
//	scalparc -quest-function 2 -records 200000 -procs 16
//	scalparc -schema schema.json -train train.csv -test test.csv -procs 8
//	scalparc -quest-function 7 -records 50000 -algo sprint -procs 8 -dump
//
// The JSON schema format:
//
//	{"attrs": [{"name": "salary", "kind": "continuous"},
//	           {"name": "elevel", "kind": "categorical", "values": ["a","b"]}],
//	 "classes": ["GroupA", "GroupB"]}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/classify"
	"repro/internal/atomicfile"
	"repro/internal/comm/tcptransport"
	"repro/internal/faults"
	"repro/internal/infer"
	"repro/internal/scalparc"
)

// runForest is the -forest arm of run: train a bagged ensemble, report its
// aggregate figures, evaluate by compiled majority vote, and optionally
// write the forest JSON (readable back by cmd/serve's -model and POST
// /models, and classify.DecodeModel).
func runForest(stdout io.Writer, train, test *classify.Table, cfg classify.ForestConfig, jsonOut string, compileStats bool) error {
	fm, err := classify.TrainForest(train, cfg)
	if err != nil {
		return err
	}
	mm := fm.Metrics
	fmt.Fprintf(stdout, "forest of %d trees on %d processors each: %d trained, %d restored, %d lost\n",
		mm.Trees, cfg.Engine.Processors, mm.Trained, mm.Restored, len(mm.Lost))
	fmt.Fprintf(stdout, "modeled runtime %.3fs summed over trained trees, wall %.3fs; total traffic %.2f MB sent\n",
		mm.ModeledSeconds, mm.WallSeconds, float64(mm.BytesSent)/1e6)
	if len(mm.Lost) > 0 {
		fmt.Fprintf(stdout, "lost trees %v: the ensemble continues on the survivors\n", mm.Lost)
	}
	if mm.VoteFallbacks > 0 {
		fmt.Fprintf(stdout, "vote split finding fell back to full histograms %d time(s)\n", mm.VoteFallbacks)
	}

	if compileStats {
		if err := printCompiled(stdout, fm.Forest); err != nil {
			return err
		}
	}

	trainEval, err := classify.EvaluateForest(fm.Forest, train)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "training   %s", trainEval)
	if test != nil && test.NumRows() > 0 {
		testEval, err := classify.EvaluateForest(fm.Forest, test)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "held-out   %s", testEval)
	}

	if jsonOut != "" {
		if err := atomicfile.Write(jsonOut, fm.Forest.Encode); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote forest JSON to %s\n", jsonOut)
	}
	return nil
}

// printCompiled is the -compile report: the model's flat-table footprint.
func printCompiled(stdout io.Writer, f *classify.Forest) error {
	m, err := infer.CompileForest(f)
	if err != nil {
		return err
	}
	st := m.Footprint()
	fmt.Fprintf(stdout, "compiled model: %d tree(s), %d nodes (%d leaves), depth %d, %d subset words, %d bytes flat (%.1f B/node)\n",
		st.Trees, st.Nodes, st.Leaves, st.Depth, st.SubsetWords, st.Bytes, float64(st.Bytes)/float64(st.Nodes))
	return nil
}

type jsonAttr struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"`
	Values []string `json:"values,omitempty"`
}

type jsonSchema struct {
	Attrs   []jsonAttr `json:"attrs"`
	Classes []string   `json:"classes"`
}

func loadSchema(path string) (*classify.Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var js jsonSchema
	if err := json.NewDecoder(f).Decode(&js); err != nil {
		return nil, fmt.Errorf("parsing schema %s: %w", path, err)
	}
	s := &classify.Schema{Classes: js.Classes}
	for _, a := range js.Attrs {
		attr := classify.Attribute{Name: a.Name, Values: a.Values}
		switch a.Kind {
		case "continuous":
			attr.Kind = classify.Continuous
		case "categorical":
			attr.Kind = classify.Categorical
		default:
			return nil, fmt.Errorf("attribute %q: unknown kind %q (want continuous or categorical)", a.Name, a.Kind)
		}
		s.Attrs = append(s.Attrs, attr)
	}
	return s, s.Validate()
}

func loadCSV(path string, s *classify.Schema) (*classify.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return classify.ReadCSV(f, s)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scalparc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if tcptransport.IsWorker() {
		// Rank-worker re-execution: the coordinator owns stdout; worker
		// chatter (data generation echoes etc.) is dropped.
		stdout = io.Discard
	}
	fs := flag.NewFlagSet("scalparc", flag.ContinueOnError)
	algo := fs.String("algo", "scalparc", "algorithm: scalparc, sprint, serial, or sliq")
	transport := fs.String("transport", "sim", "communication backend: sim (in-process simulated machine) or tcp (one OS process per rank over localhost TCP)")
	procs := fs.Int("procs", 4, "simulated processor count")
	depth := fs.Int("depth", 0, "maximum tree depth (0 = unlimited)")
	minSplit := fs.Int("minsplit", 2, "minimum node size to split")
	prune := fs.Bool("prune", false, "apply pessimistic post-pruning")
	binaryCats := fs.Bool("binary-cats", false, "binary subset splits for categorical attributes")
	splitMode := fs.String("split", "exact", "split finding: exact (the paper's algorithm), binned (quantile histograms), or vote (top-k attribute voting; scalparc only)")
	bins := fs.Int("bins", 0, "quantile bin cap for -split=binned or -split=vote (0 = default 256)")
	voteK := fs.Int("vote-k", 0, "per-rank attribute nominations per node for -split=vote (0 = default 8)")
	forest := fs.Int("forest", 0, "train a bagged forest of this many trees instead of a single tree (scalparc only)")
	featureSample := fs.Int("feature-sample", 0, "per-node attribute subset size for -forest (0 = bagging only)")
	forestSeed := fs.Uint64("forest-seed", 1, "bootstrap/feature-stream seed for -forest")
	forestParallel := fs.Int("forest-parallel", 0, "how many forest trees train concurrently (0 = 1; results are identical at any width)")
	forestCkpt := fs.String("forest-checkpoint", "", "persist each completed forest tree to this directory and restore completed trees on a rerun")
	faultSpec := fs.String("faults", "", "fault-injection spec (scalparc only), e.g. crash@FindSplitI:1:2 or random:4:crash,straggle; the hang, reset, truncate and delay kinds need -transport=tcp, e.g. reset@FindSplitI:1:2:0")
	faultSeed := fs.Int64("fault-seed", 0, "seed for random: fault specs (required non-zero for them)")
	detectTimeout := fs.Duration("detect-timeout", 0, "suspect a silent peer after this long without traffic (-transport=tcp; 0 = fail-stop EOF detection only)")
	ckptDir := fs.String("checkpoint", "", "checkpoint every tree level to this directory (scalparc only)")
	compileStats := fs.Bool("compile", false, "compile the tree for batch inference and print the flat-table stats")
	dump := fs.Bool("dump", false, "print the induced tree")
	importance := fs.Bool("importance", false, "print gini attribute importance")
	jsonOut := fs.String("json-out", "", "write the tree as JSON to this file")
	dotOut := fs.String("dot-out", "", "write the tree as Graphviz dot to this file")
	phases := fs.Bool("phases", false, "print the per-phase/per-level breakdown of the modeled runtime")
	traceOut := fs.String("trace", "", "write per-rank virtual timelines as Chrome trace-event JSON to this file")

	schemaPath := fs.String("schema", "", "JSON schema file (with -train)")
	trainPath := fs.String("train", "", "training CSV file")
	testPath := fs.String("test", "", "held-out test CSV file")

	questFn := fs.Int("quest-function", 0, "generate Quest data with this function (1..10) instead of reading CSV")
	records := fs.Int("records", 100000, "records to generate with -quest-function")
	seed := fs.Int64("seed", 1, "generator seed")
	noise := fs.Float64("noise", 0, "generator label noise")
	testFrac := fs.Float64("test-frac", 0.25, "held-out fraction for generated data")
	cvFolds := fs.Int("cv", 0, "run k-fold cross-validation instead of a single train/test split")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var algorithm classify.Algorithm
	switch *algo {
	case "scalparc":
		algorithm = classify.ScalParC
	case "sprint":
		algorithm = classify.SPRINT
	case "serial":
		algorithm = classify.Serial
	case "sliq":
		algorithm = classify.SLIQ
	default:
		return fmt.Errorf("unknown -algo %q", *algo)
	}
	split, err := classify.ParseSplitMode(*splitMode)
	if err != nil {
		return fmt.Errorf("-split: %w", err)
	}
	if *forest < 0 {
		return fmt.Errorf("-forest must be >= 0 (got %d)", *forest)
	}
	if *forest == 0 && (*featureSample != 0 || *forestParallel != 0 || *forestCkpt != "") {
		return fmt.Errorf("-feature-sample, -forest-parallel, and -forest-checkpoint require -forest")
	}
	if *testFrac < 0 || *testFrac >= 1 {
		return fmt.Errorf("-test-frac must be in [0, 1) (got %v)", *testFrac)
	}
	detectSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "detect-timeout" {
			detectSet = true
		}
	})
	if detectSet && *detectTimeout <= 0 {
		return fmt.Errorf("-detect-timeout must be > 0 (got %v); omit it for fail-stop EOF detection", *detectTimeout)
	}
	switch *transport {
	case "sim":
		if tcptransport.IsWorker() {
			return fmt.Errorf("worker environment set but -transport is sim")
		}
		if detectSet {
			return fmt.Errorf("-detect-timeout is wall-clock heartbeat detection and requires -transport=tcp (the simulated machine observes every death directly)")
		}
	case "tcp":
		if *cvFolds > 0 {
			return fmt.Errorf("-cv requires -transport=sim")
		}
		if *phases || *traceOut != "" {
			return fmt.Errorf("phase traces are per-process and do not cross the wire; -phases and -trace require -transport=sim")
		}
	default:
		return fmt.Errorf("unknown -transport %q (want sim or tcp)", *transport)
	}
	if *forest > 0 && *cvFolds > 0 {
		return fmt.Errorf("-forest and -cv are mutually exclusive")
	}
	if *forest > 0 && (*dump || *dotOut != "" || *importance || *phases || *traceOut != "") {
		return fmt.Errorf("-dump, -dot-out, -importance, -phases, and -trace render a single tree; they do not apply to -forest")
	}
	if algorithm == classify.Serial && (*phases || *traceOut != "") {
		return fmt.Errorf("algorithm serial records no phase trace; -phases and -trace need scalparc, sprint, or sliq")
	}

	trainCfg := classify.Config{
		Algorithm:         algorithm,
		Processors:        *procs,
		MaxDepth:          *depth,
		MinSplit:          *minSplit,
		CategoricalBinary: *binaryCats,
		Prune:             *prune,
		Split:             split,
		Bins:              *bins,
		VoteK:             *voteK,
		Faults:            *faultSpec,
		FaultSeed:         *faultSeed,
		CheckpointDir:     *ckptDir,
	}
	var forestCfg *classify.ForestConfig
	if *forest > 0 {
		forestCfg = &classify.ForestConfig{Trees: *forest, Seed: *forestSeed, FeatureSample: *featureSample,
			Parallel: *forestParallel, CheckpointDir: *forestCkpt, Engine: trainCfg}
	}
	if err := classify.Check(trainCfg, forestCfg, *transport == "tcp"); err != nil {
		return err
	}
	// Check has accepted the spec, and refuses a hang on sim.
	if s, err := faults.Parse(*faultSpec, *faultSeed, *procs); err == nil && *detectTimeout <= 0 {
		for _, e := range s.Events() {
			if e.Kind == faults.Hang {
				return fmt.Errorf("hang events never close a connection; peers need -detect-timeout to suspect the rank")
			}
		}
	}
	if *ckptDir != "" {
		// Probe writability up front: an unwritable checkpoint directory
		// should refuse the run, not strand it at the first save.
		if _, err := scalparc.NewCheckpointStore(*ckptDir); err != nil {
			return fmt.Errorf("-checkpoint: %w", err)
		}
	}

	var train, test *classify.Table
	switch {
	case *questFn > 0:
		tab, err := classify.GenerateQuest(classify.QuestConfig{
			Function: *questFn, Records: *records, Seed: *seed, LabelNoise: *noise,
		})
		if err != nil {
			return err
		}
		train, test = tab.Split(1 - *testFrac)
		fmt.Fprintf(stdout, "generated quest F%d: %d train / %d test records\n",
			*questFn, train.NumRows(), test.NumRows())
	case *trainPath != "":
		if *schemaPath == "" {
			return fmt.Errorf("-train requires -schema")
		}
		schema, err := loadSchema(*schemaPath)
		if err != nil {
			return err
		}
		train, err = loadCSV(*trainPath, schema)
		if err != nil {
			return err
		}
		if *testPath != "" {
			test, err = loadCSV(*testPath, schema)
			if err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "loaded %d training records from %s\n", train.NumRows(), *trainPath)
	default:
		return fmt.Errorf("provide either -quest-function or -schema/-train (see -h)")
	}

	if split == classify.SplitBinned || split == classify.SplitVote {
		b := *bins
		if b == 0 {
			b = classify.DefaultBins
		}
		if split == classify.SplitVote {
			k := *voteK
			if k == 0 {
				k = classify.DefaultVoteK
			}
			fmt.Fprintf(stdout, "vote split finding: top-%d attribute nominations per rank, up to %d quantile bins per continuous attribute\n", k, b)
		} else {
			fmt.Fprintf(stdout, "binned split finding: up to %d quantile bins per continuous attribute\n", b)
		}
	}

	if forestCfg != nil {
		return runForest(stdout, train, test, *forestCfg, *jsonOut, *compileStats)
	}

	if *cvFolds > 0 {
		// Cross-validate over the full available data (train + test).
		full := train
		if test != nil && test.NumRows() > 0 {
			if err := full.AppendTable(test); err != nil {
				return err
			}
		}
		cv, err := classify.CrossValidate(full, trainCfg, *cvFolds)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%d-fold cross-validation over %d records (%s):\n", *cvFolds, full.NumRows(), algorithm)
		for _, f := range cv.Folds {
			fmt.Fprintf(stdout, "  fold %d: accuracy %.4f (%d nodes)\n", f.Fold, f.Evaluation.Accuracy, f.TreeNodes)
		}
		fmt.Fprintf(stdout, "mean accuracy %.4f (min %.4f, max %.4f)\n", cv.MeanAccuracy, cv.MinAccuracy, cv.MaxAccuracy)
		return nil
	}

	var model *classify.Model
	switch {
	case *transport == "tcp" && tcptransport.IsWorker():
		return trainTCPWorker(train, trainCfg, *detectTimeout)
	case *transport == "tcp":
		fmt.Fprintf(stdout, "tcp transport: %d rank processes over localhost\n", *procs)
		model, err = trainTCPCoordinator(args, *procs, os.Stderr, *detectTimeout, *ckptDir, stdout)
	default:
		model, err = classify.Train(train, trainCfg)
	}
	if err != nil {
		return err
	}

	mm := model.Metrics
	fmt.Fprintf(stdout, "algorithm %s on %d processors: %d levels, %d nodes (%d leaves), depth %d\n",
		mm.Algorithm, mm.Processors, mm.Levels, model.Tree.NumNodes(), model.Tree.NumLeaves(), model.Tree.Depth())
	if mm.Algorithm == classify.ScalParC || mm.Algorithm == classify.SPRINT {
		var peak int64
		for _, m := range mm.PeakMemoryPerRank {
			if m > peak {
				peak = m
			}
		}
		fmt.Fprintf(stdout, "modeled runtime %.3fs (presort %.3fs), wall %.3fs\n",
			mm.ModeledSeconds, mm.PresortModeledSeconds, mm.WallSeconds)
		fmt.Fprintf(stdout, "peak memory per processor %.2f MB; total traffic %.2f MB sent\n",
			float64(peak)/1e6, float64(mm.BytesSent)/1e6)
		if mm.Recoveries > 0 {
			fmt.Fprintf(stdout, "recovered from %d failure(s): lost ranks %v, finished on %d processors\n",
				mm.Recoveries, mm.Lost, mm.FinalRanks)
		}
		if mm.Suspicions > 0 {
			fmt.Fprintf(stdout, "%d peer failure(s) detected by heartbeat timeout\n", mm.Suspicions)
		}
	}
	if *prune {
		fmt.Fprintf(stdout, "pruned %d internal nodes\n", mm.PrunedNodes)
	}
	if *compileStats {
		if err := printCompiled(stdout, &classify.Forest{Schema: model.Tree.Schema, Trees: []*classify.Tree{model.Tree}}); err != nil {
			return err
		}
	}
	if *phases || *traceOut != "" {
		mm.Trace.WriteText(stdout)
		if *traceOut != "" {
			if err := atomicfile.Write(*traceOut, mm.Trace.WriteChrome); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote Chrome trace to %s\n", *traceOut)
		}
	}

	trainEval, err := classify.Evaluate(model.Tree, train)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "training   %s", trainEval)
	if test != nil && test.NumRows() > 0 {
		testEval, err := classify.Evaluate(model.Tree, test)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "held-out   %s", testEval)
	}

	if *importance {
		imp := model.Tree.Importance()
		fmt.Fprintln(stdout, "attribute importance (gini):")
		for _, a := range model.Tree.TopAttributes(0) {
			if imp[a] == 0 {
				continue
			}
			fmt.Fprintf(stdout, "  %-12s %.4f\n", model.Tree.Schema.Attrs[a].Name, imp[a])
		}
	}

	if *dump {
		if err := model.Tree.Dump(stdout); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if err := atomicfile.Write(*jsonOut, model.Tree.Encode); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote tree JSON to %s\n", *jsonOut)
	}
	if *dotOut != "" {
		if err := atomicfile.Write(*dotOut, model.Tree.DOT); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote Graphviz dot to %s\n", *dotOut)
	}
	return nil
}
