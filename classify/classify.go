// Package classify is the public API of the ScalParC reproduction: a
// decision-tree classification library for large datasets, offering the
// serial SPRINT-style classifier, the scalable parallel ScalParC algorithm
// (the paper's contribution), and the parallel SPRINT baseline it is
// evaluated against.
//
// Quick start:
//
//	table, _ := classify.GenerateQuest(classify.QuestConfig{Function: 2, Records: 100000, Seed: 1})
//	model, _ := classify.Train(table, classify.Config{Processors: 8})
//	eval, _ := classify.Evaluate(model.Tree, table)
//	fmt.Println(eval.Accuracy)
//
// Parallel training runs on a simulated distributed-memory machine (one
// goroutine per processor with hand-rolled MPI-style collectives) whose
// cost model yields a deterministic modeled parallel runtime and byte-exact
// per-processor memory figures — the quantities the paper's evaluation
// plots. The induced tree is identical for every processor count and every
// algorithm choice; only runtime and memory behaviour differ.
package classify

import (
	"fmt"
	"io"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/scalparc"
	"repro/internal/serial"
	"repro/internal/sliq"
	"repro/internal/splitter"
	"repro/internal/sprint"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Re-exported data-model types: see package dataset for details.
type (
	// Schema describes a dataset's attributes and class labels.
	Schema = dataset.Schema
	// Attribute describes one record field.
	Attribute = dataset.Attribute
	// Table is a column-oriented set of labeled records.
	Table = dataset.Table
	// Tree is a trained decision tree.
	Tree = tree.Tree
	// Machine is the simulated machine's cost model.
	Machine = timing.Model
)

// Attribute kinds.
const (
	Continuous  = dataset.Continuous
	Categorical = dataset.Categorical
)

// Algorithm selects the training algorithm.
type Algorithm int

const (
	// ScalParC is the paper's scalable parallel classifier (default).
	ScalParC Algorithm = iota
	// SPRINT is the parallel SPRINT baseline with the replicated hash
	// table (unscalable in memory and communication; for comparison).
	SPRINT
	// Serial is the single-machine SPRINT-style classifier.
	Serial
	// SLIQ is the single-machine SLIQ classifier (Mehta et al., the
	// paper's reference [7]): unsplit attribute lists plus a
	// memory-resident class list. Induces the identical tree.
	SLIQ
)

// SplitMode selects ScalParC's split-finding strategy.
type SplitMode = scalparc.SplitStrategy

const (
	// SplitExact evaluates every distinct attribute value (the paper's
	// algorithm; default). The induced tree equals the serial tree.
	SplitExact = scalparc.SplitExact
	// SplitBinned quantizes continuous attributes into quantile bins at
	// presort time and exchanges dense count histograms with one
	// reduce-scatter per level; an approximation, but still invariant
	// under the processor count.
	SplitBinned = scalparc.SplitBinned
	// SplitVote adds PV-Tree style top-k attribute voting on top of
	// SplitBinned: ranks nominate their locally best k attributes per node
	// and only the elected candidates' histograms are exchanged, cutting
	// per-level FindSplit communication from O(attrs) to O(k).
	SplitVote = scalparc.SplitVote
)

// ParseSplitMode converts "exact", "binned", or "vote" to a SplitMode.
func ParseSplitMode(s string) (SplitMode, error) { return scalparc.ParseSplitStrategy(s) }

// DefaultBins is the quantile bin cap SplitBinned and SplitVote use when
// Config.Bins is zero.
const DefaultBins = scalparc.DefaultBins

// DefaultVoteK is the per-rank nomination count SplitVote uses when
// Config.VoteK is zero.
const DefaultVoteK = scalparc.DefaultVoteK

func (a Algorithm) String() string {
	switch a {
	case ScalParC:
		return "scalparc"
	case SPRINT:
		return "sprint"
	case Serial:
		return "serial"
	case SLIQ:
		return "sliq"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config controls training.
type Config struct {
	// Algorithm selects the classifier; default ScalParC.
	Algorithm Algorithm
	// Processors is the simulated processor count for the parallel
	// algorithms; default 1. Ignored by Serial.
	Processors int
	// Machine is the simulated machine's cost model; zero value selects
	// the default T3D-like machine.
	Machine Machine
	// MaxDepth limits tree depth (0 = unlimited).
	MaxDepth int
	// MinSplit is the minimum node size eligible for splitting (min 2).
	MinSplit int
	// CategoricalBinary selects binary subset splits for categorical
	// attributes instead of m-way splits (domains must have <= 64 values).
	CategoricalBinary bool
	// Prune applies pessimistic post-pruning to the induced tree.
	Prune bool
	// Split selects ScalParC's split-finding strategy (default SplitExact).
	// Only the ScalParC algorithm supports SplitBinned and SplitVote.
	Split SplitMode
	// Bins caps the per-attribute quantile bin count for SplitBinned and
	// SplitVote; 0 selects the default (256). Only meaningful with those
	// modes.
	Bins int
	// VoteK is the per-rank, per-node attribute nomination count for
	// SplitVote; 0 selects the default (8). Only meaningful with SplitVote.
	VoteK int
	// Faults is a fault-injection spec (see package faults: e.g.
	// "crash@FindSplitI:1:2" or "random:4:crash,straggle"). Only the
	// ScalParC algorithm has a recovery path, so faults require it; the
	// hang and socket kinds (e.g. "reset@FindSplitI:1:2:0") also require
	// a wire-backed world.
	Faults string
	// FaultSeed seeds "random:" fault specs; required non-zero for them.
	FaultSeed int64
	// CheckpointDir, when set, saves a level-boundary checkpoint into this
	// directory after every level (unset: no checkpointing; crashes then
	// recover by full replay).
	CheckpointDir string
	// Resume starts training from the last complete checkpoint in
	// CheckpointDir instead of from scratch (the TCP coordinator's respawn
	// path); the world may be smaller than the one that wrote it.
	Resume bool
}

func (c Config) splitterConfig() splitter.Config {
	return splitter.Config{
		MaxDepth:          c.MaxDepth,
		MinSplit:          c.MinSplit,
		CategoricalBinary: c.CategoricalBinary,
	}
}

// Metrics reports how a training run behaved.
type Metrics struct {
	// Algorithm and Processors echo the configuration.
	Algorithm  Algorithm
	Processors int
	// Levels is the number of tree levels induced.
	Levels int
	// ModeledSeconds is the deterministic modeled parallel runtime T_p
	// (zero for Serial).
	ModeledSeconds float64
	// PresortModeledSeconds is the modeled presort time (zero for Serial).
	PresortModeledSeconds float64
	// WallSeconds is host wall-clock time.
	WallSeconds float64
	// PeakMemoryPerRank is each simulated processor's peak tracked bytes
	// (nil for Serial).
	PeakMemoryPerRank []int64
	// BytesSent and BytesRecv total the simulated communication volume
	// over all processors (zero for Serial).
	BytesSent, BytesRecv int64
	// PrunedNodes counts internal nodes collapsed by pruning.
	PrunedNodes int
	// Trace breaks the modeled runtime and communication down by the
	// paper's four induction phases (plus presort), per processor and
	// tree level. Nil for Serial; SLIQ reports a one-rank modeled trace.
	Trace *trace.Trace
	// Recoveries is how many crash-recovery rounds training survived.
	Recoveries int
	// FinalRanks is the live processor count after recovery shrinks.
	FinalRanks int
	// Lost lists the physical ranks lost to injected crashes.
	Lost []int
	// Suspicions counts peer failures detected by timeout rather than an
	// observed connection close (wire transports with -detect-timeout;
	// always zero on the simulated machine, where every death is seen).
	Suspicions int64
}

// Model is a trained classifier.
type Model struct {
	Tree    *Tree
	Metrics Metrics
}

// engineOptions is the ScalParC engine's share of the configuration, its
// fault spec scheduled for a world of p ranks.
func (c Config) engineOptions(p int) (scalparc.Options, error) {
	opts := scalparc.Options{
		Split:         c.Split,
		Bins:          c.Bins,
		VoteK:         c.VoteK,
		CheckpointDir: c.CheckpointDir,
		Resume:        c.Resume,
	}
	if c.Faults != "" {
		schedule, err := faults.Parse(c.Faults, c.FaultSeed, p)
		if err != nil {
			return opts, err
		}
		opts.Faults = schedule
	}
	return opts, nil
}

// job is one training job as the unsupported table's predicates see it.
type job struct {
	cfg            Config
	forest         *ForestConfig // nil: one tree
	wire, wireOnly bool          // wireOnly: the fault spec schedules a hang or socket fault
}

// unsupported lists, in the order Check tries them, every combination of
// options across Config, ForestConfig and the world kind that training
// refuses, with the reason it gives. A rule about one option struct alone
// (a value range, Bins without a binned mode) is scalparc.CheckOptions's.
var unsupported = []struct {
	name, reason string
	when         func(j job) bool
}{
	{"split mode without ScalParC", "binned and vote split finding require the ScalParC algorithm (-algo scalparc)",
		func(j job) bool { return j.cfg.Algorithm != ScalParC && j.cfg.Split != SplitExact }},
	{"faults or checkpoint without ScalParC", "fault injection and checkpointing require the ScalParC algorithm (-algo scalparc)",
		func(j job) bool { return j.cfg.Algorithm != ScalParC && j.cfg.faultsOrCheckpoint() }},
	{"wire without a parallel algorithm", "a wire transport (-transport=tcp) requires a parallel algorithm (scalparc or sprint)",
		func(j job) bool { return j.wire && j.cfg.Algorithm != ScalParC && j.cfg.Algorithm != SPRINT }},
	{"wire without processors", "a wire transport runs one process per rank and needs Processors >= 1 (-procs)",
		func(j job) bool { return j.wire && j.cfg.Processors == 0 }},
	{"socket faults without a wire", "hang, reset, truncate and delay faults act on a live process's sockets and require a wire transport (-transport=tcp)",
		func(j job) bool { return j.wireOnly && !j.wire }},
	{"forest without ScalParC", "a forest is built from ScalParC trees (-algo scalparc)",
		func(j job) bool { return j.forest != nil && j.cfg.Algorithm != ScalParC }},
	{"forest pool on a wire or with faults", "a forest pool (Parallel > 1) trains several worlds at once, but a wire is one world and a fault schedule addresses one world's ranks",
		func(j job) bool { return j.forest != nil && j.forest.Parallel > 1 && (j.wire || j.cfg.Faults != "") }},
	{"forest with pruning", "pruning is a single-tree option (bagging relies on fully grown trees)",
		func(j job) bool { return j.forest != nil && j.cfg.Prune }},
}

// faultsOrCheckpoint reports whether a single run's fault injection or
// checkpointing is asked for.
func (c Config) faultsOrCheckpoint() bool {
	return c.Faults != "" || c.CheckpointDir != "" || c.Resume
}

// Check reports why training would refuse a job, or nil: cfg trains one
// tree, or every tree of forest when that is non-nil (its Engine is not
// read), on a wire-backed world when wire is set. Train, TrainWorld and
// TrainForest call it first; a caller can call it before building data.
func Check(cfg Config, forest *ForestConfig, wire bool) error {
	j := job{cfg: cfg, forest: forest, wire: wire}
	opts, err := cfg.engineOptions(max(cfg.Processors, 1))
	if err != nil {
		return err
	}
	if s, ok := opts.Faults.(*faults.Schedule); ok {
		j.wireOnly = s.NeedsWire()
	}
	for _, r := range unsupported {
		if r.when(j) {
			return fmt.Errorf("classify: %s: %s", r.name, r.reason)
		}
	}
	if cfg.Algorithm < ScalParC || cfg.Algorithm > SLIQ {
		return fmt.Errorf("classify: unknown algorithm %v", cfg.Algorithm)
	}
	if cfg.Processors < 0 {
		return fmt.Errorf("classify: negative processor count %d", cfg.Processors)
	}
	return scalparc.CheckOptions(opts, forest.options(cfg, opts), -1)
}

// Train builds a decision tree on the table under the configuration. The
// parallel algorithms run on a simulated world of cfg.Processors ranks.
func Train(tab *Table, cfg Config) (*Model, error) {
	if err := Check(cfg, nil, false); err != nil {
		return nil, err
	}
	if cfg.Algorithm == ScalParC || cfg.Algorithm == SPRINT {
		return TrainWorld(comm.NewWorld(max(cfg.Processors, 1), cfg.Machine), tab, cfg)
	}
	if tab == nil {
		return nil, fmt.Errorf("classify: nil table")
	}
	m := &Model{Metrics: Metrics{Algorithm: cfg.Algorithm, Processors: 1}}
	var err error
	if cfg.Algorithm == Serial {
		m.Tree, err = serial.Train(tab, cfg.splitterConfig())
	} else {
		m.Tree, m.Metrics.Trace, m.Metrics.ModeledSeconds, err = sliq.TrainTraced(tab, cfg.splitterConfig(), cfg.Machine)
	}
	if err != nil {
		return nil, err
	}
	m.Metrics.Levels = m.Tree.Depth() + 1
	if cfg.Prune {
		m.Metrics.PrunedNodes = m.Tree.Prune()
	}
	return m, nil
}

// TrainWorld trains on a caller-provided communication world instead of
// constructing a simulated one — the entry point for rank-worker
// processes driving a transport-backed World (cmd/scalparc
// -transport=tcp). The world defines the machine size, so cfg.Processors
// is ignored; Serial and SLIQ train on one machine and leave it unused.
func TrainWorld(w *comm.World, tab *Table, cfg Config) (*Model, error) {
	cfg.Processors = w.Size()
	if err := Check(cfg, nil, w.Distributed()); err != nil {
		return nil, err
	}
	if cfg.Algorithm != ScalParC && cfg.Algorithm != SPRINT {
		return Train(tab, cfg)
	}
	if tab == nil {
		return nil, fmt.Errorf("classify: nil table")
	}
	opts, err := cfg.engineOptions(w.Size())
	if err != nil {
		return nil, err
	}
	if cfg.Algorithm == SPRINT {
		opts.RecordMap = sprint.ReplicatedTable
	}
	res, err := scalparc.TrainOpts(w, tab, cfg.splitterConfig(), opts)
	if err != nil {
		return nil, err
	}
	m := &Model{Tree: res.Tree, Metrics: Metrics{
		Algorithm:             cfg.Algorithm,
		Processors:            w.Size(),
		Levels:                res.Levels,
		ModeledSeconds:        res.ModeledSeconds,
		PresortModeledSeconds: res.PresortModeledSeconds,
		WallSeconds:           res.WallSeconds,
		PeakMemoryPerRank:     res.PeakMemoryPerRank,
		Trace:                 res.Trace,
		Recoveries:            res.Recoveries,
		FinalRanks:            res.FinalRanks,
		Lost:                  res.Lost,
	}}
	for _, s := range res.Stats {
		m.Metrics.BytesSent += s.BytesSent
		m.Metrics.BytesRecv += s.BytesRecv
		m.Metrics.Suspicions += s.Suspicions
	}
	if cfg.Prune {
		m.Metrics.PrunedNodes = m.Tree.Prune()
	}
	return m, nil
}

// QuestConfig parameterises the synthetic Quest data generator the paper
// evaluates on.
type QuestConfig struct {
	// Function selects the Quest classification function, 1..10.
	Function int
	// Records is the number of records to generate.
	Records int
	// Seed makes generation deterministic.
	Seed int64
	// NineAttributes selects the full nine-attribute Quest schema instead
	// of the paper's seven-attribute projection.
	NineAttributes bool
	// LabelNoise flips each label with this probability.
	LabelNoise float64
	// Perturbation is the Quest generator's original noise mechanism:
	// continuous attribute values are perturbed by this factor of their
	// range after labeling (the Quest experiments use 0.05).
	Perturbation float64
}

// GenerateQuest produces a synthetic training table.
func GenerateQuest(cfg QuestConfig) (*Table, error) {
	set := datagen.Seven
	if cfg.NineAttributes {
		set = datagen.Nine
	}
	return datagen.Generate(datagen.Config{
		Function:     cfg.Function,
		Attrs:        set,
		Seed:         cfg.Seed,
		LabelNoise:   cfg.LabelNoise,
		Perturbation: cfg.Perturbation,
	}, cfg.Records)
}

// GenerateQuestMultiClass is GenerateQuest's multi-class extension: labels
// are income-score bands instead of the two-class Quest functions (the
// classifiers are fully multi-class; the original generator is not).
func GenerateQuestMultiClass(cfg QuestConfig, classes int) (*Table, error) {
	set := datagen.Seven
	if cfg.NineAttributes {
		set = datagen.Nine
	}
	return datagen.GenerateMultiClass(datagen.Config{
		Function:     cfg.Function,
		Attrs:        set,
		Seed:         cfg.Seed,
		LabelNoise:   cfg.LabelNoise,
		Perturbation: cfg.Perturbation,
	}, cfg.Records, classes)
}

// QuestSchema returns the generator's schema without generating records.
func QuestSchema(nineAttributes bool) *Schema {
	if nineAttributes {
		return datagen.Schema(datagen.Nine)
	}
	return datagen.Schema(datagen.Seven)
}

// NewTable creates an empty table for a schema with capacity for n rows.
func NewTable(s *Schema, n int) *Table { return dataset.NewTable(s, n) }

// ReadCSV parses a table (WriteCSV's format) against a schema.
func ReadCSV(r io.Reader, s *Schema) (*Table, error) { return dataset.ReadCSV(r, s) }

// WriteCSV writes a table with a header row.
func WriteCSV(w io.Writer, t *Table) error { return dataset.WriteCSV(w, t) }

// DecodeTree reads a JSON-encoded tree produced by Tree.Encode.
func DecodeTree(r io.Reader) (*Tree, error) { return tree.Decode(r) }

// DefaultMachine returns the default simulated machine model (T3D-like).
func DefaultMachine() Machine { return timing.T3D() }
