package scalparc

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/tcptransport"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/serial"
	"repro/internal/sliq"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
)

// The oracle matrix. The paper's claim is that ScalParC builds the serial
// classifier's tree at every processor count. Every check of that claim is
// a cell of one table over dataset × split mode × transport × p × fault ×
// schedule, held to one rule (cell.oracle):
//
//   - the p-invariant modes (exact, binned, vote with k ≥ attrs, forests)
//     reproduce the fault-free bytes: SLIQ's tree for exact (checked to be
//     the serial classifier's), the p = 1 simulated run for binned and
//     forests, the binned tree for vote k ≥ attrs;
//   - a run that replays without a checkpoint reproduces the fault-free run
//     at its surviving size. Vote k < attrs may depend on p, so that is its
//     only oracle; after a checkpointed crash it has none, and only its
//     books are checked.
//
// Every cell also checks the books its fault implies (checkBooks), and on
// the TCP mesh that a crashed rank reports comm.ErrCrashed. A row names the
// test that runs its cells: the older tests are row selectors (runMatrix),
// and TestOracleMatrix runs the rest and lists every cell, run or deferred.

// data is the dataset axis: a table and the stopping rules it is induced
// under. The name keys the caches, so it spells out both.
type data struct {
	name string
	cfg  splitter.Config
	tab  func(testing.TB) *dataset.Table
}

// quest is a Quest table; noise > 0 pads it with that many noise attributes.
func quest(gc datagen.Config, n, noise int, cfg splitter.Config) data {
	name := fmt.Sprintf("F%d-%dattrs-s%d-n%d", gc.Function, datagen.Schema(gc.Attrs).NumAttrs(), gc.Seed, n)
	if gc.LabelNoise > 0 {
		name += fmt.Sprintf("-flip%g", gc.LabelNoise)
	}
	if noise > 0 {
		name += fmt.Sprintf("-wide%d", noise)
	}
	return data{name: name + cfgName(cfg), cfg: cfg, tab: func(t testing.TB) *dataset.Table {
		tab, err := datagen.GenerateWide(gc, n, noise)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}}
}

func quest7(fn int, seed int64, n int, cfg splitter.Config) data {
	return quest(datagen.Config{Function: fn, Attrs: datagen.Seven, Seed: seed}, n, 0, cfg)
}

func quest9(fn int, seed int64, n int, cfg splitter.Config) data {
	return quest(datagen.Config{Function: fn, Attrs: datagen.Nine, Seed: seed}, n, 0, cfg)
}

// built is a table a builder makes.
func built(name string, tab func() *dataset.Table, cfg splitter.Config) data {
	return data{name: name + cfgName(cfg), cfg: cfg, tab: func(testing.TB) *dataset.Table { return tab() }}
}

// cfgName names the stopping rules that differ from the defaults. Names
// stay short: a subtest's name is its t.TempDir's.
func cfgName(c splitter.Config) string {
	name := ""
	if c.MaxDepth > 0 {
		name += fmt.Sprintf("-depth%d", c.MaxDepth)
	}
	if c.MinSplit > 0 {
		name += fmt.Sprintf("-min%d", c.MinSplit)
	}
	if c.CategoricalBinary {
		name += "-subsets"
	}
	return name
}

// mode is the split-mode axis: a split finder, or a forest of binned trees.
type mode struct {
	split SplitStrategy
	bins  int
	voteK int // allAttrs: every rank nominates the whole schema
	trees int // > 0: a forest; its fault strikes tree forestFaultTree
}

const (
	allAttrs        = -1
	forestFaultTree = 1
)

var (
	exact   = mode{}
	binned  = binnedB(16)
	voteAll = voteB(16, allAttrs)
	bagged  = forestT(3)
)

func binnedB(bins int) mode  { return mode{split: SplitBinned, bins: bins} }
func voteB(bins, k int) mode { return mode{split: SplitVote, bins: bins, voteK: k} }
func forestT(trees int) mode { return mode{split: SplitBinned, bins: 16, trees: trees} }

func (m mode) String() string {
	switch {
	case m.trees > 0:
		return fmt.Sprintf("forest-T%d", m.trees)
	case m.split == SplitVote && m.voteK == allAttrs:
		return fmt.Sprintf("vote-B%d-kall", m.bins)
	case m.split == SplitVote:
		return fmt.Sprintf("vote-B%d-k%d", m.bins, m.voteK)
	case m.split == SplitBinned:
		return fmt.Sprintf("binned-B%d", m.bins)
	}
	return "exact"
}

// fault is the fault axis.
type fault struct {
	events []faults.Event
	ckpt   bool // checkpoint every level into a fresh directory; a forest keeps its finished trees there instead
	sweep  bool // a cell per (phase, level) the fault-free run communicates at, each crashing a rank there
	random bool // a drawn schedule (of seed) whose crashes may not fire: only the tree is checked
	seed   int64
	resume bool // checkpoint a fault-free run to completion, then resume it on p − fewer ranks
	fewer  int
}

func crashAt(phase trace.Phase, level, rank int, ckpt bool) fault {
	return fault{events: []faults.Event{{Rank: rank, Phase: phase, Level: level, Kind: faults.Crash}}, ckpt: ckpt}
}

func tearAt(kind faults.Kind, phase trace.Phase, level, rank, peer int, ckpt bool) fault {
	return fault{events: []faults.Event{{Rank: rank, Phase: phase, Level: level, Kind: kind, Peer: peer}}, ckpt: ckpt}
}

func (f fault) String() string {
	var parts []string
	switch {
	case f.sweep:
		parts = append(parts, "crash@every-site")
	case f.resume:
		parts = append(parts, fmt.Sprintf("resume@p-%d", f.fewer))
	case f.random:
		parts = append(parts, fmt.Sprintf("random#%d", f.seed))
	default:
		for _, e := range f.events {
			parts = append(parts, e.String())
		}
	}
	if f.ckpt {
		parts = append(parts, "ckpt")
	}
	return cmp.Or(strings.Join(parts, "+"), "fault-free")
}

func (f fault) faulted() bool { return len(f.events) > 0 || f.sweep || f.resume }

// victims are the ranks the schedule crashes, ascending.
func (f fault) victims() []int {
	var out []int
	for _, e := range f.events {
		if e.Kind == faults.Crash {
			out = append(out, e.Rank)
		}
	}
	slices.Sort(out)
	return out
}

// lost is the set rank must report lost: the crashed ranks, or across a
// torn link at p = 2 the other end.
func (f fault) lost(rank int) []int {
	out := f.victims()
	for _, e := range f.events {
		if e.Kind == faults.Reset || e.Kind == faults.Truncate {
			out = append(out, e.Rank+e.Peer-rank)
		}
	}
	return out
}

// injector returns a fresh copy of the schedule.
func (f fault) injector(p int) comm.FaultInjector {
	if len(f.events) == 0 {
		return nil
	}
	return faults.NewSchedule(p, f.events...)
}

// schedule is the communication-schedule axis: the engine's ablation knobs,
// and how many trees a simulated forest trains at once.
type schedule struct {
	perNode, batched, rebalance bool
	pool                        int
}

func (s schedule) String() string {
	var parts []string
	if s.perNode {
		parts = append(parts, "per-node")
	}
	if s.batched {
		parts = append(parts, "batched")
	}
	if s.rebalance {
		parts = append(parts, "rebalance")
	}
	if s.pool > 1 {
		parts = append(parts, fmt.Sprintf("pool%d", s.pool))
	}
	return cmp.Or(strings.Join(parts, "+"), "default")
}

// row is a block of the table, the product of its axes, plus the checks
// only some blocks make.
type row struct {
	test   string // the test that runs the row; "" is TestOracleMatrix
	data   []data
	modes  []mode
	tcp    bool // an in-process TCP mesh instead of the simulated machine
	ps     []int
	faults []fault
	scheds []schedule

	pinned bool  // vote k < attrs in a regime pinned p-invariant: the p = 1 tree is its oracle, and its root splits
	also   *mode // the tree is also this mode's oracle tree (a degeneracy anchor)
	repeat bool  // a second run on the same world: same tree, same modeled seconds

	draw  func(seed int64) cell // property rows: quick.Check draws count cells
	count int

	deferred string // the cells do not run: why, and the ROADMAP item that owns them
}

// cell is one run of the table.
type cell struct {
	*row
	data  data
	mode  mode
	p     int
	fault fault
	sched schedule
}

func (c cell) String() string {
	f := c.fault.String()
	if c.mode.trees > 0 {
		f = strings.Replace(f, "ckpt", "treedir", 1) // a forest's crashed tree replays from its input
	}
	return fmt.Sprintf("%s %v p=%d %s %v %s", map[bool]string{false: "sim", true: "tcp"}[c.tcp], c.mode, c.p, f, c.sched, c.data.name)
}

func (r *row) cells() []cell {
	fs, scheds := r.faults, r.scheds
	if fs == nil {
		fs = []fault{{}}
	}
	if scheds == nil {
		scheds = []schedule{{}}
	}
	var out []cell
	for _, d := range r.data {
		for _, md := range r.modes {
			for _, p := range r.ps {
				for _, f := range fs {
					for _, s := range scheds {
						out = append(out, cell{row: r, data: d, mode: md, p: p, fault: f, sched: s})
					}
				}
			}
		}
	}
	return out
}

// oracle names the fault-free simulated run whose bytes c must reproduce
// (exact mode's is SLIQ's), or says why c has none.
func (c cell) oracle() (md mode, p int, why string) {
	switch {
	case c.mode.split == SplitVote && c.mode.voteK == allAttrs:
		return binnedB(c.mode.bins), 1, ""
	case c.mode.split != SplitVote, c.pinned:
		return c.mode, 1, ""
	case c.fault.ckpt && len(c.fault.victims()) > 0:
		return mode{}, 0, "vote k < attrs after a checkpointed crash ran levels on p and on p-1 ranks, so no fault-free run is its oracle (ROADMAP item 11, after 15b)"
	}
	return c.mode, c.p - len(c.fault.victims()), ""
}

// outcome is what one run reports: the whole run's on the simulated
// machine, one rank's on the mesh.
type outcome struct {
	rank   int
	bytes  []byte // the encoded tree or forest
	res    *Result
	forest *ForestResult
	err    error
	twin   *outcome // the checkpointed run a resume continued, or a second run on the same world
}

func (c cell) options(tab *dataset.Table) Options {
	o := Options{Split: c.mode.split, Bins: c.mode.bins, VoteK: c.mode.voteK,
		PerNodeComms: c.sched.perNode, BatchedEnquiry: c.sched.batched, RebalanceLevels: c.sched.rebalance}
	if o.VoteK == allAttrs {
		o.VoteK = tab.Schema.NumAttrs()
	}
	return o
}

// train runs c once on w (a simulated forest opens its own pool of worlds),
// with a fresh copy of c's fault schedule when faulty.
func (c cell) train(tab *dataset.Table, w *comm.World, faulty bool, dir string, resume bool) *outcome {
	opts := c.options(tab)
	opts.CheckpointDir, opts.Resume = dir, resume
	o := &outcome{}
	var enc interface{ Encode(io.Writer) error }
	if c.mode.trees == 0 {
		if faulty {
			opts.Faults = c.fault.injector(c.p)
		}
		if o.res, o.err = TrainOpts(w, tab, c.data.cfg, opts); o.err == nil {
			enc = o.res.Tree
		}
	} else {
		fo := ForestOptions{Trees: c.mode.trees, Seed: 42, FeatureSample: 3, Procs: c.p, Parallel: c.sched.pool, Engine: opts}
		if faulty && len(c.fault.events) > 0 {
			fo.FaultsFor = func(i int) comm.FaultInjector {
				if i != forestFaultTree {
					return nil
				}
				return c.fault.injector(c.p)
			}
		}
		if c.tcp {
			o.forest, o.err = TrainForestWorld(w, tab, c.data.cfg, fo)
		} else {
			o.forest, o.err = TrainForest(tab, c.data.cfg, fo)
		}
		if o.err == nil {
			enc = o.forest.Forest
		}
	}
	if enc != nil {
		var b bytes.Buffer
		o.err = enc.Encode(&b)
		o.bytes = b.Bytes()
	}
	return o
}

// The caches: tables by data name, shared by every test (tests run one at
// a time); oracle runs by refKey, which each matrix test starts afresh.
var (
	tables  = map[string]*dataset.Table{}
	oracles map[string]*outcome
)

func table(t testing.TB, d data) *dataset.Table {
	if tables[d.name] == nil {
		tables[d.name] = d.tab(t)
	}
	return tables[d.name]
}

func refKey(d data, md mode, p int) string { return fmt.Sprint(d.name, md, p) }

// ref is the fault-free simulated run of md at p under the default
// schedule: an oracle, or a cell's own run.
func ref(t *testing.T, d data, md mode, p int) *outcome {
	key := refKey(d, md, p)
	if oracles[key] == nil {
		o := runSim(t, cell{row: &row{}, data: d, mode: md, p: p})
		if o.err != nil {
			t.Fatalf("oracle run %v at p=%d: %v", md, p, o.err)
		}
		oracles[key] = o
	}
	return oracles[key]
}

// want is the oracle's bytes: ref's, or for exact mode SLIQ's tree.
func want(t *testing.T, d data, md mode, p int) []byte {
	if md != exact {
		return ref(t, d, md, p).bytes
	}
	key := "sliq " + d.name
	if oracles[key] == nil {
		tab := table(t, d)
		st, _, _, err := sliq.TrainTraced(tab, d.cfg, timing.T3D())
		if err != nil {
			t.Fatal(err)
		}
		if ser, err := serial.Train(tab, d.cfg); err != nil || !st.Equal(ser) {
			t.Fatalf("%s: SLIQ's tree is not the serial classifier's (%v)", d.name, err)
		}
		oracles[key] = &outcome{bytes: encoded(t, st)}
	}
	return oracles[key].bytes
}

// runMatrix runs the rows that name the calling test.
func runMatrix(t *testing.T) {
	oracles = map[string]*outcome{}
	ran := false
	for i := range oracleRows {
		if r := &oracleRows[i]; r.test == t.Name() {
			runRow(t, r, nil)
			ran = true
		}
	}
	if !ran {
		t.Fatal("no row of the oracle matrix names this test")
	}
}

// runRow runs the row's cells that keep selects (nil: all) as subtests.
func runRow(t *testing.T, r *row, keep func(cell) bool) {
	if r.draw != nil {
		check := func(seed int64) bool {
			c := r.draw(seed)
			c.row = r
			return t.Run(c.String(), func(t *testing.T) { runCell(t, c) })
		}
		if err := quick.Check(check, &quick.Config{MaxCount: r.count}); err != nil {
			t.Error(err)
		}
		return
	}
	for _, c := range r.cells() {
		switch {
		case keep != nil && !keep(c):
		case r.deferred != "":
			t.Run(c.String(), func(t *testing.T) { t.Skip("deferred: " + r.deferred) })
		case c.fault.sweep:
			sweep(t, c)
		default:
			t.Run(c.String(), func(t *testing.T) { runCell(t, c) })
		}
	}
}

// sweep expands a crash sweep: a fault-free run records the (phase, level)
// sites where ranks communicate, then one cell per site crashes rank
// (level + phase) mod p there if it communicates at the site, else the
// lowest rank that does.
func sweep(t *testing.T, c cell) {
	tab := table(t, c.data)
	rec := &siteRecorder{ranks: map[trace.Key][]int{}}
	opts := c.options(tab)
	opts.Faults = rec
	if c.fault.ckpt {
		opts.CheckpointDir = t.TempDir() // the barrier before each save is a site too
	}
	if o := await(t, c, func() *outcome {
		_, err := TrainOpts(comm.NewWorld(c.p, timing.T3D()), tab, c.data.cfg, opts)
		return &outcome{err: err}
	})[0]; o.err != nil {
		t.Fatalf("%v: fault-free run: %v", c, o.err)
	}
	keys := make([]trace.Key, 0, len(rec.ranks))
	for k := range rec.ranks {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b trace.Key) int { return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.Phase, b.Phase)) })
	for _, k := range keys {
		ranks := rec.ranks[k]
		victim := slices.Min(ranks)
		if want := (k.Level + int(k.Phase)) % c.p; slices.Contains(ranks, want) {
			victim = want
		}
		site := c
		site.fault = crashAt(k.Phase, k.Level, victim, c.fault.ckpt)
		t.Run(site.String(), func(t *testing.T) { runCell(t, site) })
	}
	t.Logf("%v: %d crash sites", c, len(keys))
}

// siteRecorder is a passive injector recording which ranks communicate at
// each (phase, level).
type siteRecorder struct {
	mu    sync.Mutex
	ranks map[trace.Key][]int
}

func (r *siteRecorder) Act(at comm.Site) comm.FaultAction {
	r.mu.Lock()
	defer r.mu.Unlock()
	if k := (trace.Key{Phase: at.Phase, Level: at.Level}); !slices.Contains(r.ranks[k], at.Rank) {
		r.ranks[k] = append(r.ranks[k], at.Rank)
	}
	return comm.FaultAction{}
}

func runCell(t *testing.T, c cell) {
	var outs []*outcome
	if c.tcp {
		outs = runTCP(t, c)
	} else if c.fault.faulted() || c.fault.ckpt || c.sched != (schedule{}) || c.repeat {
		outs = []*outcome{runSim(t, c)}
	} else {
		outs = []*outcome{ref(t, c.data, c.mode, c.p)} // the cell is its own reference run
	}
	for _, o := range outs {
		check(t, c, o)
	}
	if t.Failed() && c.fault.faulted() {
		for _, o := range outs {
			dumpChaosTrace(t, o.res, fmt.Sprintf("%v-r%d", c, o.rank))
		}
	}
}

func runSim(t *testing.T, c cell) *outcome {
	tab := table(t, c.data)
	var dir string
	if c.fault.ckpt || c.fault.resume {
		dir = t.TempDir()
	}
	train := func(w *comm.World, faulty, resume bool) *outcome {
		return await(t, c, func() *outcome { return c.train(tab, w, faulty, dir, resume) })[0]
	}
	w := comm.NewWorld(c.p, timing.T3D())
	if c.fault.resume {
		full := train(w, false, false)
		if full.err != nil || full.res.Levels < 3 {
			t.Fatalf("checkpointed run: %v, or fewer than 3 levels for the resume to restore", full.err)
		}
		o := train(comm.NewWorld(c.p-c.fault.fewer, timing.T3D()), false, true)
		o.twin = full
		return o
	}
	o := train(w, true, false)
	if c.repeat {
		o.twin = train(w, false, false)
	}
	return o
}

// cellDeadline fails a cell whose runs have not finished, rather than let
// it hang the test binary.
const cellDeadline = 2 * time.Minute

// await returns the outcomes of runs, started at once, or fails the test at
// the cell deadline.
func await(t *testing.T, c cell, runs ...func() *outcome) []*outcome {
	outs := make([]*outcome, len(runs))
	done := make(chan int, len(runs))
	for i, run := range runs {
		go func() { outs[i] = run(); done <- i }()
	}
	deadline := time.After(cellDeadline)
	for range runs {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("%v: still running after %v", c, cellDeadline)
		}
	}
	return outs
}

// runTCP runs c on an in-process TCP mesh, one transport-backed world per
// rank. Each rank's transport closes as soon as its run returns, as the
// rank's process exiting would.
func runTCP(t *testing.T, c cell) []*outcome {
	tab := table(t, c.data)
	var dir string
	if c.fault.ckpt {
		dir = t.TempDir()
	}
	ts, err := tcptransport.ConnectLocal(c.p)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]func() *outcome, c.p)
	for i, tr := range ts {
		w := comm.NewTransportWorld(tr, timing.T3D())
		runs[i] = func() *outcome {
			defer tr.Close()
			o := c.train(tab, w, true, dir, false)
			o.rank = i
			return o
		}
	}
	return await(t, c, runs...)
}

// check holds one outcome of c to the oracle rule and to the row's checks.
func check(t *testing.T, c cell, o *outcome) {
	t.Helper()
	who := ""
	if c.tcp {
		who = fmt.Sprintf("rank %d: ", o.rank)
		if slices.Contains(c.fault.victims(), o.rank) {
			if !errors.Is(o.err, comm.ErrCrashed) {
				t.Errorf("%sthe crashed rank returned %v, want an error wrapping comm.ErrCrashed", who, o.err)
			}
			return
		}
	}
	if o.err != nil {
		t.Errorf("%s%v", who, o.err)
		return
	}
	if md, p, why := c.oracle(); why != "" {
		t.Log("tree unchecked: " + why)
	} else if !bytes.Equal(o.bytes, want(t, c.data, md, p)) {
		t.Errorf("%stree bytes differ from the oracle's (%v, p=%d)", who, md, p)
	}
	if c.also != nil && !bytes.Equal(o.bytes, want(t, c.data, *c.also, 1)) {
		t.Errorf("%stree bytes differ from %v's oracle", who, *c.also)
	}
	if tw := o.twin; tw != nil && (tw.err != nil || !bytes.Equal(o.bytes, tw.bytes) || c.repeat && o.res.ModeledSeconds != tw.res.ModeledSeconds) {
		t.Errorf("%sthe tree or modeled runtime differs from the twin run's (%v)", who, tw.err)
	}
	if c.pinned && o.res.Tree.Root.Leaf {
		t.Errorf("the vote tree's root is a leaf at p=%d: the pinned regime elected no split", c.p)
	}
	if !c.fault.random {
		checkBooks(t, c, o, who)
	}
}

// checkBooks: the run reports the recoveries, surviving size and lost set
// its fault implies, and the fault's instants are on its trace — every
// victim's crash once on the simulated machine, whose trace holds every
// rank, and the detection and shrink on a mesh rank's own timeline.
func checkBooks(t *testing.T, c cell, o *outcome, who string) {
	t.Helper()
	lost := c.fault.lost(o.rank)
	if f := o.forest; f != nil {
		recoveries := 0
		for _, run := range f.PerTree {
			recoveries += run.Recoveries
		}
		if recoveries != len(lost) || len(f.LostTrees) != 0 || f.Forest.NumTrees() != c.mode.trees {
			t.Errorf("%srecoveries %d, lost trees %v, %d trees; want %d, none and %d",
				who, recoveries, f.LostTrees, f.Forest.NumTrees(), len(lost), c.mode.trees)
		}
		return
	}
	res := o.res
	if size := c.p - c.fault.fewer - len(lost); res.Recoveries != len(lost) || res.FinalRanks != size || !slices.Equal(res.Lost, lost) {
		t.Errorf("%sRecoveries=%d FinalRanks=%d Lost=%v, want %d, %d and %v",
			who, res.Recoveries, res.FinalRanks, res.Lost, len(lost), size, lost)
	}
	if c.fault.resume && res.PresortModeledSeconds != 0 {
		t.Errorf("resumed run presorted (%.3gs modeled): it replayed instead of restoring", res.PresortModeledSeconds)
	}
	if len(lost) == 0 {
		return
	}
	events := map[int]map[string]int{}
	for r, rt := range res.Trace.Ranks {
		events[r] = map[string]int{}
		for _, e := range rt.Events() {
			events[r][e.Name]++
		}
	}
	if !c.tcp {
		for _, v := range lost {
			if n := events[v]["fault:crash"]; n != 1 {
				t.Errorf("victim rank %d has %d fault:crash events, want 1", v, n)
			}
		}
	}
	for _, name := range []string{"fault:detected", "recovery:shrink"} {
		n := 0
		for r, ev := range events {
			if !c.tcp || r == o.rank {
				n += ev[name]
			}
		}
		if n == 0 {
			t.Errorf("%strace has no %q event", who, name)
		}
	}
}

// dumpChaosTrace writes a failing run's Chrome trace into the directory
// named by $CHAOS_ARTIFACT_DIR (set by `make chaos`; CI uploads it).
func dumpChaosTrace(t *testing.T, res *Result, label string) {
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" || res == nil || res.Trace == nil {
		return
	}
	path := filepath.Join(dir, strings.NewReplacer("/", "_", ":", "_", " ", "_").Replace(label)+".trace.json")
	var b bytes.Buffer
	err := res.Trace.WriteChrome(&b)
	if err == nil {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			err = os.WriteFile(path, b.Bytes(), 0o644)
		}
	}
	t.Logf("chaos trace %s: %v", path, err)
}

// The datasets and faults several rows share.
var (
	faultData        = quest9(3, 31, 160, splitter.Config{})
	forestData       = quest9(1, 7, 240, splitter.Config{MinSplit: 8})
	wideData         = quest(datagen.Config{Function: 3, Attrs: datagen.Seven, Seed: 31}, 240, 24, splitter.Config{})
	f2s3             = quest7(2, 3, 700, splitter.Config{MinSplit: 4})
	blindData        = built("blind", blindVoteTable, splitter.Config{MinSplit: 2})
	categoricalHeavy = built("categorical-heavy", func() *dataset.Table { return categoricalHeavyDataset(12_500, 8) }, splitter.Config{MinSplit: 16})
	wideVote         = func(noise int) data {
		return quest(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 3}, 1600, noise, splitter.Config{MinSplit: 40, MaxDepth: 3})
	}

	crashCkpt   = crashAt(trace.FindSplitI, 1, 1, true)
	crashReplay = crashAt(trace.FindSplitI, 1, 1, false)
	tears       = []fault{tearAt(faults.Reset, trace.FindSplitI, 1, 0, 1, false), tearAt(faults.Truncate, trace.PerformSplitII, 1, 1, 0, false)}
	// The histogram modes' PerformSplitII is a local relabel that sends
	// nothing, so their PerformSplit link is torn in PerformSplitI's
	// reduction instead.
	histTears  = []fault{tears[0], tearAt(faults.Truncate, trace.PerformSplitI, 1, 1, 0, false)}
	resumes    = []fault{{resume: true}, {resume: true, fewer: 1}}
	simPs      = []int{1, 2, 3, 5, 8}
	sevenQuest = []data{quest7(1, 7, 300, splitter.Config{}), quest7(2, 14, 300, splitter.Config{}),
		quest7(3, 21, 300, splitter.Config{}), quest7(6, 42, 300, splitter.Config{}), quest7(7, 49, 300, splitter.Config{})}
)

// oracleRows is the table. Rows that name a test are that test's cells;
// the rest are TestOracleMatrix's.
var oracleRows = []row{
	{test: "TestExactMatchesSLIQByteIdentical", modes: []mode{exact}, ps: simPs, data: []data{
		quest7(1, 7, 600, f2s3.cfg), quest7(1, 8, 600, f2s3.cfg), quest7(2, 7, 600, f2s3.cfg),
		quest7(2, 8, 600, f2s3.cfg), quest7(6, 7, 600, f2s3.cfg), quest7(6, 8, 600, f2s3.cfg)}},
	{test: "TestBinnedTreeProcessorInvariant", data: []data{f2s3}, modes: []mode{binned}, ps: simPs},
	{test: "TestBinnedDegeneratesToExact", draw: drawDegenerate, count: 30, also: &exact},
	{test: "TestBinnedDegeneratesToExact", data: []data{categoricalHeavy}, modes: []mode{binnedB(8)}, ps: []int{8}, also: &exact},
	{test: "TestOracleProperty", draw: drawOracle, count: 40},
	{test: "TestOracleQuestFunctions", data: sevenQuest, modes: []mode{exact}, ps: []int{1, 2, 3, 4, 7}},
	{test: "TestOracleNineAttributesWithCategoricals", data: []data{quest9(3, 12, 400, splitter.Config{})}, modes: []mode{exact}, ps: []int{1, 2, 5, 8}},
	{test: "TestOracleWithLabelNoise", modes: []mode{exact}, ps: []int{1, 3, 4},
		data: []data{quest(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 5, LabelNoise: 0.15}, 250, 0, splitter.Config{})}},
	{test: "TestOracleSubsetSplits", data: []data{quest9(3, 21, 300, splitter.Config{CategoricalBinary: true})}, modes: []mode{exact}, ps: []int{1, 2, 4}},
	{test: "TestOracleDepthAndMinSplitLimits", modes: []mode{exact}, ps: []int{1, 3, 8},
		data: []data{quest7(2, 9, 400, splitter.Config{MaxDepth: 4}), quest7(2, 9, 400, splitter.Config{MinSplit: 50})}},
	{test: "TestOracleDuplicateValuesAcrossRankBoundaries", data: []data{built("duplicate-runs", duplicateRunsTable, splitter.Config{})},
		modes: []mode{exact}, ps: []int{1, 2, 3, 4, 7, 8}},
	{test: "TestOracleConstantAttribute", data: []data{built("constant", constantTable, splitter.Config{})}, modes: []mode{exact}, ps: []int{1, 2, 4}},
	{test: "TestOracleFewerRecordsThanProcessors", data: []data{quest7(1, 3, 5, splitter.Config{})}, modes: []mode{exact}, ps: []int{7, 8}},
	{test: "TestOracleSingleRecord", data: []data{quest7(1, 3, 1, splitter.Config{})}, modes: []mode{exact}, ps: []int{1, 2, 3}},
	{test: "TestOracleCategoricalOnly", data: []data{built("categorical-only", categoricalOnlyTable, splitter.Config{})}, modes: []mode{exact}, ps: []int{1, 2, 3, 5}},
	{test: "TestDeterministicAcrossRuns", data: []data{quest7(6, 77, 300, splitter.Config{})}, modes: []mode{exact}, ps: []int{4}, repeat: true},
	{test: "TestTrainOptsDefaultsMatchTrain", data: []data{quest7(1, 2, 200, splitter.Config{})}, modes: []mode{exact}, ps: []int{3}, repeat: true},
	{test: "TestPerNodeModeSameTree", data: []data{quest9(3, 31, 300, splitter.Config{})}, modes: []mode{exact}, ps: []int{1, 2, 4, 7},
		scheds: []schedule{{perNode: true}}},
	{test: "TestBatchedEnquirySameTree", data: []data{quest9(3, 77, 300, splitter.Config{})}, modes: []mode{exact}, ps: []int{1, 2, 4, 7},
		scheds: []schedule{{batched: true}}},
	{test: "TestRebalanceSameTree", data: []data{quest9(3, 4, 300, splitter.Config{})}, modes: []mode{exact}, ps: []int{1, 2, 4, 7},
		scheds: []schedule{{rebalance: true}}},
	{test: "TestRebalanceComposesWithOtherOptions", data: []data{quest7(2, 6, 200, splitter.Config{})}, modes: []mode{exact}, ps: []int{3},
		scheds: []schedule{{rebalance: true, batched: true}}},
	{test: "TestVoteDegeneratesToBinned", data: []data{f2s3}, modes: []mode{voteAll}, ps: simPs},
	{test: "TestVoteTreeProcessorInvariant", data: []data{wideVote(60), wideVote(193)}, modes: []mode{voteB(32, 3)}, ps: []int{1, 2, 4, 8}, pinned: true},
	{test: "TestVoteSmallNodePInvariance", data: []data{built("region", regionVoteTable, splitter.Config{MinSplit: 2})},
		modes: []mode{voteB(4, 1)}, ps: []int{1, 2, 4, 8}, pinned: true, also: &mode{split: SplitBinned, bins: 4}},
	{test: "TestVoteFallbackRescuesBlindElection", data: []data{blindData}, modes: []mode{voteB(4, 1)}, ps: []int{1, 2, 4},
		pinned: true, also: &mode{split: SplitBinned, bins: 4}},
	{test: "TestVoteCrashRecovery", data: []data{wideData}, modes: []mode{voteAll}, ps: []int{4},
		faults: []fault{crashAt(trace.FindSplitI, 1, 1, true), crashAt(trace.FindSplitII, 1, 1, true)}},
	{test: "TestVoteCrashRecovery", data: []data{wideData}, modes: []mode{voteB(16, 2)}, ps: []int{4}, faults: []fault{crashAt(trace.FindSplitI, 1, 2, true)}},
	{test: "TestCrashRecoverySweep", data: []data{faultData}, modes: []mode{exact}, ps: []int{2, 3, 5, 8}, faults: []fault{{sweep: true, ckpt: true}}},
	{test: "TestCrashRecoveryWithoutCheckpoint", data: []data{faultData}, modes: []mode{exact}, ps: []int{2}, faults: []fault{crashAt(trace.FindSplitII, 1, 1, false)}},
	{test: "TestCrashRecoveryWithoutCheckpoint", data: []data{faultData}, modes: []mode{exact}, ps: []int{4}, faults: []fault{crashAt(trace.FindSplitII, 1, 3, false)}},
	{test: "TestDoubleCrashRecovery", data: []data{faultData}, modes: []mode{exact}, ps: []int{5}, faults: []fault{{ckpt: true, events: []faults.Event{
		{Rank: 1, Phase: trace.FindSplitI, Level: 1, Kind: faults.Crash}, {Rank: 3, Phase: trace.PerformSplitII, Level: 2, Kind: faults.Crash}}}}},
	{test: "TestRandomRecoverableSchedules", draw: drawChaos, count: 12},
	{test: "TestResumeOnSimulatedWorld", data: []data{faultData}, modes: []mode{exact, binned}, ps: []int{3}, faults: resumes},
	{test: "TestResumeOnSimulatedWorld", data: []data{wideData}, modes: []mode{voteAll}, ps: []int{3}, faults: resumes},
	{test: "TestForestDeterministicAcrossProcsAndPool", data: []data{forestData}, modes: []mode{forestT(4)}, ps: []int{1, 2, 4},
		scheds: []schedule{{pool: 1}, {pool: 4}}},

	// TCP twins of the p-invariant modes, and a torn link at p = 2, after
	// which both ends go on as 1-rank worlds.
	{data: []data{faultData}, modes: []mode{exact, binned, voteAll}, tcp: true, ps: []int{2, 3, 4}, faults: []fault{{}, crashCkpt, crashReplay}},
	{data: []data{forestData}, modes: []mode{bagged}, tcp: true, ps: []int{2, 3, 4}, faults: []fault{{}, crashCkpt, crashReplay}},
	{data: []data{faultData}, modes: []mode{exact}, tcp: true, ps: []int{2}, faults: tears},
	{data: []data{faultData}, modes: []mode{binned, voteAll}, tcp: true, ps: []int{2}, faults: histTears},
	// Replays on the survivors, vote k < attrs's oracle; forests crash
	// inside a tree on the simulated machine too.
	{data: []data{wideData}, modes: []mode{voteB(16, 2)}, ps: []int{3, 4, 5}, faults: []fault{crashReplay}},
	{data: []data{forestData}, modes: []mode{bagged}, ps: []int{3}, faults: []fault{crashCkpt, crashReplay}},

	{deferred: "torn links at p >= 3: survivors leave with different lost sets (ROADMAP item 9 makes these its gate rows)",
		data: []data{faultData}, modes: []mode{exact, binned, voteAll}, tcp: true, ps: []int{3, 4}, faults: tears},
	{deferred: "a torn link at p = 2 with a checkpoint: both halves go on as 1-rank worlds writing one directory, and one can fail a checkpoint rename (ROADMAP item 9)",
		data: []data{faultData}, modes: []mode{exact, binned, voteAll}, tcp: true, ps: []int{2},
		faults: []fault{tearAt(faults.Reset, trace.FindSplitI, 1, 0, 1, true), tearAt(faults.Truncate, trace.PerformSplitII, 1, 1, 0, true)}},
	{deferred: "a hung rank needs wall-clock detection: make chaos-tcp runs hangs over worker processes (ROADMAP item 10)",
		data: []data{faultData}, modes: []mode{exact}, tcp: true, ps: []int{2, 4}, faults: []fault{{events: []faults.Event{{Rank: 1, Phase: trace.FindSplitI, Level: 1, Kind: faults.Hang}}}}},
}

// drawOracle is TestOracleProperty's cell: a random schema and table,
// stopping rules, processor count and schedule.
func drawOracle(seed int64) cell {
	rng := rand.New(rand.NewSource(seed))
	tab := randomDataset(rng)
	cfg := splitter.Config{MaxDepth: rng.Intn(6), MinSplit: rng.Intn(8)}
	p := 1 + rng.Intn(7)
	s := schedule{perNode: rng.Intn(4) == 0, rebalance: rng.Intn(3) == 0}
	s.batched = !s.perNode && rng.Intn(3) == 0
	return cell{data: built(fmt.Sprintf("random#%d", seed), func() *dataset.Table { return tab }, cfg), mode: exact, p: p, sched: s}
}

// drawDegenerate is TestBinnedDegeneratesToExact's cell: continuous
// attributes with d distinct values in equal frequency and B = 2d bins, so
// the cuts enumerate the values and the binned tree is the exact one.
func drawDegenerate(seed int64) cell {
	rng := rand.New(rand.NewSource(seed))
	d := []int{2, 4, 8}[rng.Intn(3)]
	n := d * (8 + rng.Intn(30))
	tab := balancedDataset(rng, n, d)
	cfg := splitter.Config{MinSplit: 2 + rng.Intn(6)}
	p := simPs[rng.Intn(len(simPs))]
	return cell{data: built(fmt.Sprintf("balanced#%d", seed), func() *dataset.Table { return tab }, cfg), mode: binnedB(2 * d), p: p}
}

// drawChaos is TestRandomRecoverableSchedules's cell: a random crash, drop
// and straggle schedule at p in 3..5, recovering from checkpoints.
func drawChaos(seed int64) cell {
	p := 3 + int(uint64(seed)%3)
	s := faults.Random(seed, p, 4, 4, faults.Crash, faults.Drop, faults.Straggle)
	return cell{data: faultData, mode: exact, p: p, fault: fault{events: s.Events(), ckpt: true, random: true, seed: seed}}
}

// TestOracleMatrix runs the rows no other test names, grouped by transport
// and by whether a fault strikes (make tcp and make chaos select those
// groups), then lists every cell of the table: the test that runs it, or
// why it is deferred.
func TestOracleMatrix(t *testing.T) {
	oracles = map[string]*outcome{}
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "sim", true: "tcp"}[tcp], func(t *testing.T) {
			for _, faulted := range []bool{false, true} {
				t.Run(map[bool]string{false: "fault-free", true: "faulted"}[faulted], func(t *testing.T) {
					for i := range oracleRows {
						if r := &oracleRows[i]; r.test == "" && r.tcp == tcp {
							runRow(t, r, func(c cell) bool { return c.fault.faulted() == faulted })
						}
					}
				})
			}
		})
	}
	var b strings.Builder
	for i := range oracleRows {
		r := &oracleRows[i]
		owner := "run by " + cmp.Or(r.test, "TestOracleMatrix")
		if r.draw != nil {
			fmt.Fprintf(&b, "%-100s %s\n", fmt.Sprintf("%d drawn cells", r.count), owner)
		}
		for _, c := range r.cells() {
			status := owner
			if _, _, why := c.oracle(); r.deferred != "" {
				status = "deferred: " + r.deferred
			} else if why != "" {
				status += "; tree deferred: " + why
			}
			fmt.Fprintf(&b, "%-100v %s\n", c, status)
		}
	}
	t.Logf("every cell of the oracle matrix:\n%s", b.String())
}

// handTable builds an n-row table over schema; row(i) is row i.
func handTable(schema *dataset.Schema, n int, row func(i int) ([]float64, int)) *dataset.Table {
	tab := dataset.NewTable(schema, n)
	for i := 0; i < n; i++ {
		if err := tab.AppendRow(row(i)); err != nil {
			panic(err)
		}
	}
	return tab
}

var oneContinuous = &dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Kind: dataset.Continuous}}, Classes: []string{"A", "B"}}

// duplicateRunsTable has long runs of equal values that straddle processor
// boundaries: the boundary-value exchange must suppress split candidates
// inside runs.
func duplicateRunsTable() *dataset.Table {
	rng := rand.New(rand.NewSource(2))
	return handTable(oneContinuous, 40, func(i int) ([]float64, int) {
		v := float64(rng.Intn(3)) // only 3 distinct values over 40 records
		if v == 1 || v == 2 && i%3 == 0 {
			return []float64{v}, 1
		}
		return []float64{v}, 0
	})
}

func constantTable() *dataset.Table {
	return handTable(oneContinuous, 10, func(i int) ([]float64, int) { return []float64{5}, i % 2 })
}

func categoricalOnlyTable() *dataset.Table {
	schema := &dataset.Schema{Classes: []string{"A", "B", "C"}, Attrs: []dataset.Attribute{
		{Name: "c1", Kind: dataset.Categorical, Values: []string{"a", "b", "c"}},
		{Name: "c2", Kind: dataset.Categorical, Values: []string{"x", "y"}}}}
	rng := rand.New(rand.NewSource(4))
	return handTable(schema, 60, func(int) ([]float64, int) {
		v1, v2 := rng.Intn(3), rng.Intn(2)
		cls := (v1 + v2) % 3
		if rng.Intn(5) == 0 {
			cls = rng.Intn(3)
		}
		return []float64{float64(v1), float64(v2)}, cls
	})
}

// The tests below run the rows that name them.

// findSplitICost totals the FindSplitI traffic of md's fault-free run on d
// at p over every rank and level: bytes sent (the bandwidth term) and
// communication operations (the latency term).
func findSplitICost(t *testing.T, d data, md mode, p int) (sent, ops int64) {
	for _, rt := range ref(t, d, md, p).res.Trace.Ranks {
		for _, b := range rt.Buckets() {
			if b.Phase == trace.FindSplitI {
				sent, ops = sent+b.BytesSent, ops+b.Ops
			}
		}
	}
	return sent, ops
}

// The exact tree is SLIQ's, byte for byte, at every processor count.
func TestExactMatchesSLIQByteIdentical(t *testing.T) { runMatrix(t) }

// The binned cuts sit at fixed global positions of the sorted lists, so the
// binned tree does not depend on p; with at most B distinct values in equal
// frequency it is the exact tree — and on a categorical-heavy table it
// costs fewer FindSplitI bytes and collectives.
func TestBinnedTreeProcessorInvariant(t *testing.T) { runMatrix(t) }

func TestBinnedDegeneratesToExact(t *testing.T) {
	runMatrix(t)
	bSent, bOps := findSplitICost(t, categoricalHeavy, binnedB(8), 8)
	eSent, eOps := findSplitICost(t, categoricalHeavy, exact, 8)
	if bSent >= eSent || bOps >= eOps {
		t.Errorf("categorical-heavy table: binned FindSplitI sent %d bytes in %d collectives, exact %d in %d", bSent, bOps, eSent, eOps)
	}
}

// Random schemas, data, stopping rules, processor counts and schedules, and
// shapes chosen by hand — Quest functions, wide categoricals, label noise,
// subset splits, depth and size limits, value runs across rank boundaries,
// a constant attribute, fewer records than ranks, one record, a
// categorical-only schema — induce the serial tree.
func TestOracleProperty(t *testing.T)                            { runMatrix(t) }
func TestOracleQuestFunctions(t *testing.T)                      { runMatrix(t) }
func TestOracleNineAttributesWithCategoricals(t *testing.T)      { runMatrix(t) }
func TestOracleWithLabelNoise(t *testing.T)                      { runMatrix(t) }
func TestOracleSubsetSplits(t *testing.T)                        { runMatrix(t) }
func TestOracleDepthAndMinSplitLimits(t *testing.T)              { runMatrix(t) }
func TestOracleDuplicateValuesAcrossRankBoundaries(t *testing.T) { runMatrix(t) }
func TestOracleConstantAttribute(t *testing.T)                   { runMatrix(t) }
func TestOracleFewerRecordsThanProcessors(t *testing.T)          { runMatrix(t) }
func TestOracleSingleRecord(t *testing.T)                        { runMatrix(t) }
func TestOracleCategoricalOnly(t *testing.T)                     { runMatrix(t) }

// Two runs on one world agree on the tree and the modeled runtime, and the
// schedule ablations change the communication, never the tree.
func TestDeterministicAcrossRuns(t *testing.T)           { runMatrix(t) }
func TestTrainOptsDefaultsMatchTrain(t *testing.T)       { runMatrix(t) }
func TestPerNodeModeSameTree(t *testing.T)               { runMatrix(t) }
func TestBatchedEnquirySameTree(t *testing.T)            { runMatrix(t) }
func TestRebalanceSameTree(t *testing.T)                 { runMatrix(t) }
func TestRebalanceComposesWithOtherOptions(t *testing.T) { runMatrix(t) }

// Voting: with k ≥ attrs it is binned mode. Local nominations depend on the
// data partition, so p-invariance is not structural; it holds in the
// regimes pinned here — a depth-capped wide sparsely informative schema
// (the 193-noise table is EXP-VOTE's scenario, where the ballot pays: at
// most half binned mode's FindSplitI bytes), the small-node region family,
// and the blind election the re-vote fallback rescues. A rank crashed
// mid-level leaves survivors that recover from the checkpoint.
func TestVoteDegeneratesToBinned(t *testing.T)  { runMatrix(t) }
func TestVoteSmallNodePInvariance(t *testing.T) { runMatrix(t) }
func TestVoteCrashRecovery(t *testing.T)        { runMatrix(t) }

func TestVoteTreeProcessorInvariant(t *testing.T) {
	runMatrix(t)
	assertVoteHalvesBinned(t, wideVote(60))
	assertVoteHalvesBinned(t, wideVote(193))
}

func assertVoteHalvesBinned(t *testing.T, d data) {
	vote, _ := findSplitICost(t, d, voteB(32, 3), 4)
	if binned, _ := findSplitICost(t, d, binnedB(32), 4); 2*vote > binned {
		t.Errorf("%s: vote FindSplitI bytes %d > half of binned's %d", d.name, vote, binned)
	}
}

func TestVoteFallbackRescuesBlindElection(t *testing.T) {
	runMatrix(t)
	if ref(t, blindData, voteB(4, 1), 2).res.VoteFallbacks == 0 || ref(t, blindData, voteB(4, 1), 4).res.VoteFallbacks == 0 {
		t.Error("a multi-rank run reported no re-vote fallback: the scenario no longer exercises the rescue path")
	}
}

// Fail-stop recovery: a crash at every (phase, level) site resuming from
// checkpoints, a crash replayed from the input, two crashes in one run, and
// random recoverable schedules all end in the oracle tree.
func TestCrashRecoverySweep(t *testing.T)             { runMatrix(t) }
func TestCrashRecoveryWithoutCheckpoint(t *testing.T) { runMatrix(t) }
func TestDoubleCrashRecovery(t *testing.T)            { runMatrix(t) }
func TestRandomRecoverableSchedules(t *testing.T)     { runMatrix(t) }

// A simulated world resumes from the frame files like a respawned TCP job,
// at the writers' size and a smaller one, without presorting, under each
// split finder.
func TestResumeOnSimulatedWorld(t *testing.T) {
	runMatrix(t)
	if _, err := TrainOpts(comm.NewWorld(2, timing.T3D()), faultData.tab(t), splitter.Config{}, Options{Resume: true}); err == nil {
		t.Error("Resume without a CheckpointDir accepted")
	}
}

// One seed gives one forest at any processor count and pool width.
func TestForestDeterministicAcrossProcsAndPool(t *testing.T) { runMatrix(t) }
