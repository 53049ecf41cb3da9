// Package scalparc implements the paper's primary contribution: ScalParC,
// the scalable parallel decision-tree classifier.
//
// The training set is fragmented vertically into attribute lists and
// horizontally into p equal blocks. Continuous lists are sorted exactly
// once (parallel sample sort + shift). Induction then proceeds level by
// level with the paper's four phases:
//
//	FindSplitI     — count matrices: a parallel exclusive prefix scan for
//	                 continuous attributes, reductions onto coordinator
//	                 processors for categorical ones.
//	FindSplitII    — termination tests, local gini scans over every
//	                 candidate split point, and a global reduction that
//	                 picks the winning split per node.
//	PerformSplitI  — the splitting attribute's lists assign every record a
//	                 child number, which is written into the distributed
//	                 node table via the parallel hashing paradigm in blocks
//	                 of at most ⌈N/p⌉ updates per round.
//	PerformSplitII — every other attribute list is split consistently by
//	                 enquiring the node table, one attribute at a time.
//
// All split decisions are pure functions of globally reduced integer
// counts with deterministic tie-breaking, so the induced tree is identical
// to the serial classifier's for every processor count.
//
// The splitting-phase record-to-child mapping is pluggable through the
// RecordMap interface: the default is the distributed node table (O(N/p)
// memory and communication per processor); package sprint substitutes the
// replicated hash table of parallel SPRINT (O(N) in both) for the paper's
// section 3.2 comparison.
package scalparc

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/nodetable"
	"repro/internal/psort"
	"repro/internal/splitter"
	"repro/internal/trace"
	"repro/internal/tree"
)

// RecordMap is the record-id to child-number mapping used by the splitting
// phase. Both methods are collectives: every rank calls them once per use,
// possibly with empty arguments.
type RecordMap interface {
	// Update stores this level's assignments.
	Update(assignments []nodetable.Assignment)
	// Lookup answers child numbers for rids, in input order.
	Lookup(rids []int32) []uint8
	// Free releases the map's memory accounting.
	Free()
}

// RecordMapFactory builds a rank's RecordMap for n global records.
type RecordMapFactory func(c *comm.Comm, n int) RecordMap

// DistributedNodeTable is the default factory: the paper's distributed
// node table.
func DistributedNodeTable(c *comm.Comm, n int) RecordMap {
	return nodetable.New(c, n)
}

// LevelStats describes one level of the induction — the granularity at
// which the paper analyses runtime and communication.
type LevelStats struct {
	// ActiveNodes and SplitNodes count the level's nodes and how many of
	// them split (the rest became leaves).
	ActiveNodes, SplitNodes int
	// Records is the number of training records still in play.
	Records int64
	// ModeledSeconds is the level's share of the modeled runtime.
	ModeledSeconds float64
}

// Result is the outcome of a parallel training run.
type Result struct {
	Tree *tree.Tree
	// Levels is the number of tree levels the induction loop processed.
	Levels int
	// PerLevel breaks the run down level by level.
	PerLevel []LevelStats
	// ModeledSeconds is the modeled parallel runtime T_p (maximum virtual
	// clock over ranks), including the presort.
	ModeledSeconds float64
	// PresortModeledSeconds is the modeled time of the presort phase only.
	PresortModeledSeconds float64
	// WallSeconds is the host wall-clock time of the run.
	WallSeconds float64
	// PeakMemoryPerRank is each rank's peak tracked bytes (attribute
	// lists, node table, communication buffers).
	PeakMemoryPerRank []int64
	// Stats are the per-rank communication counters.
	Stats []comm.Stats
	// Trace is the per-rank (phase, level) breakdown of the run: where
	// every picosecond of modeled time and every byte of communication
	// went. Per-rank bucket times sum exactly to that rank's final clock.
	Trace *trace.Trace
	// VoteFallbacks counts the need-split nodes SplitVote re-ran through
	// the full-layout reduce-scatter because the elected candidate set
	// yielded no split beating the node's gini (vote.go's re-vote
	// fallback). Zero for the other strategies. Best-effort across
	// recoveries: levels replayed after a crash count their fallbacks
	// again.
	VoteFallbacks int
	// Recoveries counts the recovery rounds the run survived (each round
	// is one world shrink plus a replay from the last checkpoint).
	Recoveries int
	// FinalRanks is the number of ranks still alive at the end; Lost
	// lists the physical ranks that failed, in ascending order.
	FinalRanks int
	Lost       []int
}

// SplitStrategy selects how FindSplit locates candidate split points.
type SplitStrategy int

const (
	// SplitExact evaluates every distinct attribute value as a candidate
	// threshold — the paper's algorithm. The induced tree is identical to
	// the serial classifier's for every processor count.
	SplitExact SplitStrategy = iota
	// SplitBinned quantizes each continuous attribute into at most Bins
	// quantile bins at presort time and evaluates only the bin boundaries,
	// exchanging dense (node, bin, class) count histograms with a single
	// reduce-scatter per level instead of prefix scans and per-attribute
	// reductions. The tree is an approximation of the exact tree (identical
	// when every attribute has at most Bins distinct equal-frequency
	// values) but is still invariant under the processor count, because the
	// cuts are sampled at fixed global quantile positions.
	SplitBinned
	// SplitVote rides the binned histograms but exchanges only a top-k
	// candidate subset of them (PV-Tree style): each rank scores its local
	// histograms and nominates its top VoteK attributes per node, one small
	// fixed-size vote collective selects the global candidate set of at
	// most 2·VoteK attributes, and only the candidates' histograms travel
	// through the reduce-scatter — cutting per-level FindSplit bytes from
	// O(attrs) to O(k). The winner is still chosen from fully fused global
	// statistics of the candidates with the same deterministic tie-breaking,
	// and with VoteK >= the attribute count the candidate set is every
	// attribute and the tree is bit-identical to SplitBinned's.
	SplitVote
)

// splitNames are the -split flag values, indexed by strategy.
var splitNames = [...]string{SplitExact: "exact", SplitBinned: "binned", SplitVote: "vote"}

func (s SplitStrategy) String() string {
	if s >= 0 && int(s) < len(splitNames) {
		return splitNames[s]
	}
	return fmt.Sprintf("SplitStrategy(%d)", int(s))
}

// ParseSplitStrategy converts a -split flag value to a SplitStrategy.
func ParseSplitStrategy(s string) (SplitStrategy, error) {
	for i, name := range splitNames {
		if s == name {
			return SplitStrategy(i), nil
		}
	}
	return 0, fmt.Errorf("scalparc: unknown split strategy %q (want exact, binned, or vote)", s)
}

// DefaultBins is the quantile bin cap SplitBinned uses when Options.Bins is
// zero.
const DefaultBins = 256

// DefaultVoteK is the per-rank nomination count SplitVote uses when
// Options.VoteK is zero.
const DefaultVoteK = 8

// Options tunes the parallel induction engine beyond the split-selection
// configuration.
type Options struct {
	// RecordMap supplies the splitting-phase mapping; nil selects the
	// distributed node table.
	RecordMap RecordMapFactory
	// PerNodeComms switches FindSplit reductions, record-map updates, and
	// enquiries from one batch per level to one batch per node — the
	// communication structure section 3.1 argues against. The induced
	// tree is identical; only the number (and size) of communication
	// steps changes. For the ABL-NODE ablation.
	PerNodeComms bool
	// RebalanceLevels redistributes every active node's list segments to
	// equal shares per rank after each level, preserving order — the
	// opposite of the paper's fixed data distribution (§3.1). Restores
	// per-node load balance on pathologically correlated data at the
	// cost of one extra all-to-all per attribute per level. For the
	// ABL-REBAL ablation; the induced tree is identical.
	RebalanceLevels bool
	// BatchedEnquiry merges PerformSplitII's per-attribute node-table
	// enquiries into a single enquiry per level — one of the
	// communication-overhead optimizations the paper defers to its
	// technical report [5]. Saves 2·(n_a - 2) all-to-all steps per level
	// at the cost of n_a-times larger enquiry buffers (the paper goes
	// one attribute at a time precisely to bound that memory). Mutually
	// exclusive with PerNodeComms.
	BatchedEnquiry bool
	// Split selects exact (default), histogram-binned, or top-k
	// attribute-voting split finding.
	Split SplitStrategy
	// Bins caps the per-attribute quantile bin count for SplitBinned and
	// SplitVote; zero selects DefaultBins. Setting it with SplitExact is an
	// error.
	Bins int
	// VoteK is the number of attributes each rank nominates per node under
	// SplitVote (the global candidate set keeps at most 2·VoteK); zero
	// selects DefaultVoteK. Setting it with any other strategy is an error.
	VoteK int
	// featureSample, when positive, evaluates only a per-node random
	// subset of that many attributes as split candidates — random-forest
	// feature subsampling. The subset is a pure function of (featureSeed,
	// level, active-node index), all replicated, so every rank masks
	// identically and the induced tree stays invariant under the processor
	// count. Zero evaluates every attribute. Only the forest layer sets
	// them: featureSample from ForestOptions.FeatureSample, featureSeed
	// from the tree's bootstrap seed.
	featureSample int
	featureSeed   uint64

	// Faults installs a fault injector on the world for the duration of
	// the run (nil: no injection). Fail-stop crashes are survived: the
	// remaining ranks detect the failure, shrink the world, and replay
	// from the last checkpoint (or from scratch when checkpointing is
	// off), producing the same tree as the fault-free run. Injected
	// collective corruption is a deterministic protocol violation and
	// surfaces as a *comm.ProtocolError instead.
	Faults comm.FaultInjector
	// CheckpointDir, when set, saves a level-boundary checkpoint after every
	// completed level into this directory, as per-rank frame files written
	// atomically and fsynced (one format for every world; see
	// CheckpointStore). Unset, there is no checkpointing and recovery
	// replays the whole induction. The directory is created if absent and
	// must be writable; a previous run's frames in it are removed unless
	// Resume is set.
	CheckpointDir string
	// Resume starts the run from the last complete checkpoint in
	// CheckpointDir instead of from scratch — the respawn path after a
	// wholesale failure. Any world may resume, at the writers' size or a
	// smaller one; requires CheckpointDir.
	Resume bool
}

// CheckOptions reports the first error in the engine's own options: a value
// out of range, or a field set without the options it needs. o is one
// engine run's options or, when fo is non-nil, the Engine every tree of
// that forest runs, and fo is checked too. attrs is the table's attribute
// count (negative before the table is known: FeatureSample's upper bound is
// then not checked).
// Zero values are valid everywhere: they select the defaults.
func CheckOptions(o Options, fo *ForestOptions, attrs int) error {
	if fo != nil {
		switch {
		case fo.Trees < 1:
			return fmt.Errorf("scalparc: forest needs Trees >= 1, got %d", fo.Trees)
		case fo.Procs < 0:
			return fmt.Errorf("scalparc: forest Procs %d out of range", fo.Procs)
		case fo.Parallel < 0:
			return fmt.Errorf("scalparc: forest Parallel %d out of range", fo.Parallel)
		case o.Resume || o.CheckpointDir != "":
			return fmt.Errorf("scalparc: per-tree checkpoint directories are owned by the forest layer; set ForestOptions.CheckpointDir")
		}
		o.featureSample = fo.FeatureSample
	}
	switch {
	case o.PerNodeComms && o.BatchedEnquiry:
		return fmt.Errorf("scalparc: PerNodeComms and BatchedEnquiry are mutually exclusive")
	case o.Split < SplitExact || o.Split > SplitVote:
		return fmt.Errorf("scalparc: unknown split strategy %d", int(o.Split))
	case o.Split == SplitExact && o.Bins != 0:
		return fmt.Errorf("scalparc: Bins is only meaningful with SplitBinned or SplitVote")
	case o.Bins != 0 && (o.Bins < 2 || o.Bins > 65536):
		return fmt.Errorf("scalparc: Bins %d out of range [2, 65536]", o.Bins)
	case o.Split != SplitVote && o.VoteK != 0:
		return fmt.Errorf("scalparc: VoteK is only meaningful with SplitVote")
	case o.VoteK < 0 || o.VoteK > 65536:
		return fmt.Errorf("scalparc: VoteK %d out of range [1, 65536]", o.VoteK)
	case o.featureSample < 0:
		return fmt.Errorf("scalparc: FeatureSample %d is negative", o.featureSample)
	case attrs >= 0 && o.featureSample > attrs:
		return fmt.Errorf("scalparc: FeatureSample %d out of range [0, %d attributes]", o.featureSample, attrs)
	case o.Resume && o.CheckpointDir == "":
		return fmt.Errorf("scalparc: Resume requires CheckpointDir (the frames to resume from)")
	}
	return nil
}

// TrainOpts runs ScalParC on the world's processors and returns the tree
// with run metrics — the engine's one entry point; the zero Options is the
// paper's algorithm. The world's clocks, stats, and memory meters are reset
// at the start of the run.
func TrainOpts(w *comm.World, tab *dataset.Table, cfg splitter.Config, opts Options) (*Result, error) {
	if err := CheckOptions(opts, nil, tab.Schema.NumAttrs()); err != nil {
		return nil, err
	}
	if opts.Split != SplitExact && opts.Bins == 0 {
		opts.Bins = DefaultBins
	}
	if opts.Split == SplitVote && opts.VoteK == 0 {
		opts.VoteK = DefaultVoteK
	}
	factory := opts.RecordMap
	if factory == nil {
		factory = DistributedNodeTable
	}
	if err := tab.Schema.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalize()
	if err := cfg.Validate(tab.Schema); err != nil {
		return nil, err
	}
	if tab.NumRows() == 0 {
		return nil, fmt.Errorf("scalparc: empty training set")
	}
	var store *CheckpointStore
	if opts.CheckpointDir != "" {
		var err error
		if store, err = NewCheckpointStore(opts.CheckpointDir); err != nil {
			return nil, err
		}
		if !opts.Resume {
			store.clearFrames()
		}
	}
	if opts.Faults != nil {
		w.SetFaultInjector(opts.Faults)
		defer w.SetFaultInjector(nil)
	}

	w.ResetClocks()
	w.ResetStats()
	w.ResetMemory()

	// Outcomes are indexed by physical rank: dense rank ids are renumbered
	// when the world shrinks after a crash, physical ids never move. Ranks
	// that crash leave their slots zero.
	outs := make([]rankOutcome, w.Size())
	start := time.Now()
	w.Run(func(c *comm.Comm) {
		out := &outs[c.Phys()]
		restarted := false
		for {
			err := trainAttempt(c, tab, cfg, factory, opts, store, restarted, out)
			if err == nil {
				return
			}
			var rf *comm.RankFailure
			if errors.As(err, &rf) && rf.Recoverable() {
				// A peer fail-stopped: shrink the world with the other
				// survivors and replay from the last checkpoint. Shrink
				// itself can fail — this rank may come out of the vote
				// evicted or without a quorum (orphaned) — and that is a
				// terminal error for the rank, not a crash.
				if out.err = c.TryShrink(); out.err != nil {
					return
				}
				out.recoveries++
				restarted = true
				continue
			}
			out.err = err
			return
		}
	})
	res := &Result{WallSeconds: time.Since(start).Seconds()}
	for _, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
	}
	if store != nil {
		if err := store.Err(); err != nil {
			return nil, err
		}
	}
	for _, out := range outs {
		// Dense rank 0 may have crashed; any survivor's tree is the tree.
		if res.Tree == nil && out.tree != nil {
			res.Tree, res.PerLevel, res.VoteFallbacks = out.tree, out.perLevel, out.fallbacks
		}
		res.Recoveries = max(res.Recoveries, out.recoveries)
		res.PresortModeledSeconds = max(res.PresortModeledSeconds, out.presort)
	}
	if res.Tree == nil {
		return nil, fmt.Errorf("scalparc: no surviving rank produced a tree")
	}
	res.Levels = len(res.PerLevel)
	res.FinalRanks = w.LiveRanks()
	res.Lost = w.Lost()
	res.ModeledSeconds = w.MaxClock()
	res.PeakMemoryPerRank = w.PeakMemory()
	res.Stats = w.Stats()
	res.Trace = w.Trace()
	return res, nil
}

// rankOutcome is what one physical rank reports back from a run.
type rankOutcome struct {
	tree       *tree.Tree
	perLevel   []LevelStats
	fallbacks  int
	presort    float64 // modeled clock after the first attempt's presort
	recoveries int
	err        error
}

// trainAttempt runs one rank's induction attempt end to end, converting the
// comm layer's failure panics into errors the retry loop above can act on.
// Fail-stop unwinds of this rank itself (comm.Crashed) re-panic: the world's
// runner absorbs them, modeling a rank that is simply gone.
func trainAttempt(c *comm.Comm, tab *dataset.Table, cfg splitter.Config,
	factory RecordMapFactory, opts Options, store *CheckpointStore, restarted bool,
	out *rankOutcome) (err error) {
	defer func() {
		switch e := recover().(type) {
		case nil:
		case *comm.RankFailure:
			err = e
		case *comm.ProtocolError:
			err = e
		default:
			panic(e)
		}
	}()
	wk := newWorker(c, tab, cfg, factory, opts)
	// Restore applies after an in-run shrink (restarted) and on the first
	// attempt of a respawned world (opts.Resume): both continue from the
	// last complete checkpoint rather than replaying the whole induction.
	var ck *Checkpoint
	if (restarted || opts.Resume) && store != nil {
		ck = store.Latest()
	}
	if ck != nil {
		if err = wk.restore(ck); err != nil {
			return err
		}
	} else {
		// First attempt, or no checkpoint to resume from: (re)build from
		// the input. The induced tree is invariant under the processor
		// count, so a full replay on the survivors converges to the same
		// tree a checkpointed resume does.
		wk.presort(tab)
		if !restarted {
			out.presort = c.Clock()
		}
	}
	wk.ckpt = store
	t := wk.induce()
	// Final consistency point: after this barrier no rank can fail (there
	// are no operations left), so either every survivor records a result
	// or every survivor unwinds into another recovery round together.
	c.SetPhase(trace.Other, wk.level)
	c.Barrier()
	out.tree, out.perLevel, out.fallbacks = t, wk.levelStats, wk.finder.fallbacks()
	wk.free()
	return nil
}

// seg is one active node's slice of an attribute list's local backing.
type seg struct{ off, n int }

// nodeState is one active node, replicated consistently on every rank.
type nodeState struct {
	node  *tree.Node
	depth int
}

// worker is one rank's induction state.
type worker struct {
	c      *comm.Comm
	schema *dataset.Schema
	cfg    splitter.Config
	n      int // global record count

	rm RecordMap

	// root is the tree under construction (replicated on every rank).
	root *tree.Node

	// Level-boundary checkpointing (nil: off). See checkpoint.go.
	ckpt *CheckpointStore

	// Attribute lists: cont[a] / cat[a] hold the local fragments of every
	// active node's list for attribute a, concatenated in node order;
	// segs[a][i] locates node i's segment.
	cont [][]dataset.ContEntry
	cat  [][]dataset.CatEntry
	segs [][]seg

	active []*nodeState

	listBytes  int64 // currently tracked attribute-list bytes
	perNode    bool  // ABL-NODE: per-node instead of per-level comms
	batched    bool  // tech-report optimization: one enquiry per level
	rebalance  bool  // ABL-REBAL: re-equalise list shares per level
	level      int   // current tree level, for phase attribution
	levelStats []LevelStats

	// finder is the split-finding strategy (Options.Split) with all of its
	// state; see finder.go.
	finder splitFinder

	// Per-node feature subsampling (forest mode; see features.go):
	// featSample attributes are drawn per active node per level from
	// featSeed. feat is the current level's flat mask, nil when off.
	featSample int
	featSeed   uint64
	feat       []bool
	featIdx    []int32

	// ar is the per-level scratch arena (see scratch.go).
	ar *scratch
}

// newWorker is the one constructor: it wires a rank's induction state from
// the run's inputs and leaves the lists, the tree, and the frontier empty.
// Exactly one of two post-steps fills them: presort on a fresh start,
// restore (checkpoint.go) on recovery.
func newWorker(c *comm.Comm, tab *dataset.Table, cfg splitter.Config, factory RecordMapFactory, opts Options) *worker {
	na := tab.Schema.NumAttrs()
	return &worker{
		c:          c,
		schema:     tab.Schema,
		cfg:        cfg,
		n:          tab.NumRows(),
		rm:         factory(c, tab.NumRows()),
		cont:       make([][]dataset.ContEntry, na),
		cat:        make([][]dataset.CatEntry, na),
		segs:       make([][]seg, na),
		perNode:    opts.PerNodeComms,
		batched:    opts.BatchedEnquiry,
		rebalance:  opts.RebalanceLevels,
		finder:     newSplitFinder(opts),
		featSample: opts.featureSample,
		featSeed:   opts.featureSeed,
		ar:         newScratch(na, opts.PerNodeComms),
	}
}

// presort distributes the table, builds this rank's attribute lists, runs
// the presort, and opens the tree with the root as the only active node.
func (wk *worker) presort(tab *dataset.Table) {
	c := wk.c
	lo, hi := dataset.BlockRange(wk.n, c.Size(), c.Rank())
	local := dataset.BuildLists(tab.Slice(lo, hi), lo)
	wk.cont, wk.cat = local.Cont, local.Cat

	// Sample sort + shift for every continuous attribute; the categorical
	// lists stay in record order. The finder then takes whatever it needs
	// off the freshly sorted lists (binned and vote: quantile cuts).
	c.SetPhase(trace.Sort, 0)
	for _, a := range wk.schema.ContIndices() {
		wk.cont[a] = psort.Sort(c, wk.cont[a])
	}
	wk.finder.prepare(wk)
	c.SetPhase(trace.Other, 0)

	// One segment per attribute (cont[a] or cat[a], whichever the attribute
	// has): the root owns everything.
	for a := range wk.segs {
		wk.segs[a] = []seg{{0, len(wk.cont[a]) + len(wk.cat[a])}}
	}
	wk.chargeLists()

	// The root's global class histogram.
	localHist := make([]int64, wk.schema.NumClasses())
	for _, cl := range tab.Class[lo:hi] {
		localHist[cl]++
	}
	wk.root = &tree.Node{Hist: comm.AllReduceSum(c, localHist)}
	wk.active = []*nodeState{{node: wk.root, depth: 0}}
}

// chargeLists meters the attribute lists and the finder's long-lived state
// once a post-step (presort or restore) has filled them; free releases both.
func (wk *worker) chargeLists() {
	wk.listBytes = 0
	for a := range wk.schema.Attrs {
		wk.listBytes += int64(len(wk.cont[a])) * dataset.ContEntrySize
		wk.listBytes += int64(len(wk.cat[a])) * dataset.CatEntrySize
	}
	wk.c.Mem().Alloc(wk.listBytes + wk.finder.tracked())
}

// induce runs the level loop and returns the finished tree. The levels it
// processed are wk.levelStats, counted from the start of the run, so a
// worker restored from a level-k checkpoint still reports the full count.
func (wk *worker) induce() *tree.Tree {
	for len(wk.active) > 0 {
		wk.runLevel()
	}
	return &tree.Tree{Schema: wk.schema, Root: wk.root}
}

// free releases the worker's tracked memory.
func (wk *worker) free() {
	wk.c.Mem().Free(wk.listBytes + wk.finder.tracked())
	wk.rm.Free()
}

// runLevel executes the four phases for the current set of active nodes
// and replaces them with the next level's.
func (wk *worker) runLevel() {
	wk.level = len(wk.levelStats)
	levelStart := wk.c.Clock()
	stats := LevelStats{ActiveNodes: len(wk.active)}
	for _, ns := range wk.active {
		stats.Records += ns.node.Size()
	}
	// Termination tests (FindSplitII's first half): replicated, no
	// communication — every rank has every node's global histogram.
	splitIdx := grabRaw(wk.ar, &wk.ar.splitIdx, len(wk.active)) // index among need-split nodes, or -1
	nNeed := 0
	for i, ns := range wk.active {
		splitIdx[i] = -1
		if wk.cfg.TrySplit(ns.node, ns.depth) {
			splitIdx[i] = nNeed
			nNeed++
		}
	}

	// Per-node feature subsampling (forest mode): replicated masks drawn
	// before FindSplit so every split path sees the same veto.
	wk.sampleFeatures()

	// FindSplit: winning candidate per need-split node (globally agreed),
	// by whichever strategy the finder implements.
	cands := wk.findSplits(splitIdx, nNeed)

	// Final split-or-leaf decision, replicated.
	doSplit := grabRaw(wk.ar, &wk.ar.doSplit, len(wk.active))
	for i, ns := range wk.active {
		cand := splitter.Invalid
		if splitIdx[i] >= 0 {
			cand = cands[splitIdx[i]]
		}
		doSplit[i] = splitter.Decide(ns.node, cand, wk.schema)
	}

	// PerformSplitI: assignments from the splitting attributes' lists into
	// the record map, plus global child histograms.
	splitChild, childHists := wk.performSplitI(doSplit, splitIdx, cands)

	// Build the next level's node set (replicated).
	nextActive, childStates := wk.buildChildren(doSplit, childHists)

	// PerformSplitII: split every attribute list consistently.
	wk.performSplitII(doSplit, splitIdx, cands, splitChild, nextActive, childStates)

	wk.active = nextActive
	if wk.rebalance {
		// The extra all-to-alls are outside the paper's four phases.
		wk.c.SetPhase(trace.Other, wk.level)
		wk.rebalanceLists()
	}

	for _, split := range doSplit {
		if split {
			stats.SplitNodes++
		}
	}
	stats.ModeledSeconds = wk.c.Clock() - levelStart
	wk.levelStats = append(wk.levelStats, stats)

	if wk.ckpt != nil && len(wk.active) > 0 {
		wk.saveCheckpoint()
	}
}
