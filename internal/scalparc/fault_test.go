package scalparc

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/tree"
)

// TestStragglerConservation injects virtual-clock skew and checks the
// accounting invariants survive it exactly: every rank's per-bucket times
// still sum to its final clock (integer picoseconds, == not ~=), the skew
// shows up in the modeled runtime, and the tree is untouched.
func TestStragglerConservation(t *testing.T) {
	tab := faultData.tab(t)
	cfg := splitter.Config{}.Normalize()
	p := 4
	w0 := comm.NewWorld(p, timing.T3D())
	free, err := TrainOpts(w0, tab, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const skew = int64(2_000_000_000) // 2ms of virtual time
	sched := faults.NewSchedule(p,
		faults.Event{Rank: 2, Phase: trace.FindSplitI, Level: 1, Kind: faults.Straggle, Picos: skew},
		faults.Event{Rank: 0, Phase: trace.Sort, Level: 0, Kind: faults.Straggle, Picos: skew},
	)
	w := comm.NewWorld(p, timing.T3D())
	res, err := TrainOpts(w, tab, cfg, Options{Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tree.Equal(free.Tree) {
		t.Fatal("straggler skew changed the induced tree")
	}
	for r, rt := range res.Trace.Ranks {
		if got, want := rt.TotalPicos(), res.Trace.FinalPicos[r]; got != want {
			t.Fatalf("rank %d: bucket sum %d != final clock %d under skew", r, got, want)
		}
	}
	if res.Trace.TotalPicos() < free.Trace.TotalPicos()+skew {
		t.Fatalf("modeled runtime %d did not absorb the %d skew (fault-free %d)",
			res.Trace.TotalPicos(), skew, free.Trace.TotalPicos())
	}
	var straggles int64
	for _, st := range res.Stats {
		straggles += st.Straggles
	}
	if straggles != 2 {
		t.Fatalf("Straggles = %d, want 2", straggles)
	}
}

// TestDropAndCorruptRetries: transport faults on the wire heal via modeled
// retransmission — counted, traced, and invisible in the tree.
func TestDropAndCorruptRetries(t *testing.T) {
	tab := faultData.tab(t)
	cfg := splitter.Config{}.Normalize()
	p := 3
	w0 := comm.NewWorld(p, timing.T3D())
	free, err := TrainOpts(w0, tab, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.NewSchedule(p,
		faults.Event{Rank: 1, Phase: trace.FindSplitI, Level: 0, Kind: faults.Drop},
		faults.Event{Rank: 2, Phase: trace.FindSplitII, Level: 1, Kind: faults.Drop},
	)
	w := comm.NewWorld(p, timing.T3D())
	res, err := TrainOpts(w, tab, cfg, Options{Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tree.Equal(free.Tree) {
		t.Fatal("dropped-message retransmission changed the induced tree")
	}
	var drops, retries int64
	for _, st := range res.Stats {
		drops += st.Drops
		retries += st.Retries
	}
	if drops != 2 || retries != 2 {
		t.Fatalf("Drops=%d Retries=%d, want 2 and 2", drops, retries)
	}
	if res.Trace.TotalPicos() <= free.Trace.TotalPicos() {
		t.Fatal("retransmissions should cost modeled time")
	}
	if res.Recoveries != 0 || res.FinalRanks != p {
		t.Fatalf("transient faults must not trigger recovery: Recoveries=%d FinalRanks=%d", res.Recoveries, res.FinalRanks)
	}
}

// TestCollectiveCorruptionIsTypedError: corrupting a collective is a
// deterministic protocol violation — it must surface as a *comm.ProtocolError
// from TrainOpts, never panic and never loop retrying.
func TestCollectiveCorruptionIsTypedError(t *testing.T) {
	tab := faultData.tab(t)
	cfg := splitter.Config{}.Normalize()
	p := 3
	sched := faults.NewSchedule(p,
		faults.Event{Rank: 1, Phase: trace.FindSplitI, Level: 0, Kind: faults.Corrupt})
	w := comm.NewWorld(p, timing.T3D())
	_, err := TrainOpts(w, tab, cfg, Options{Faults: sched})
	if err == nil {
		t.Fatal("corrupted collective did not fail the run")
	}
	var pe *comm.ProtocolError
	var rf *comm.RankFailure
	if !errors.As(err, &pe) && !errors.As(err, &rf) {
		t.Fatalf("error %v (%T) is neither *comm.ProtocolError nor *comm.RankFailure", err, err)
	}
	if rf != nil && rf.Recoverable() {
		t.Fatalf("corruption-caused failure %v must not be recoverable", rf)
	}
}

// TestCheckpointRoundTrip: decoding a checkpoint and re-encoding it must
// reproduce the original bytes — the codec loses nothing a resume needs —
// the decoded frontier must be the active set the writer held, and a torn
// frame must be an error, not a panic.
func TestCheckpointRoundTrip(t *testing.T) {
	// Quest F5 at this size leaves empty m-way children at the depth of the
	// last checkpoint (the chaos table's F3 leaves none there).
	tab, err := datagen.Generate(datagen.Config{Function: 5, Attrs: datagen.Nine, Seed: 31}, 160)
	if err != nil {
		t.Fatal(err)
	}
	ck, held := captureCheckpoint(t, tab, splitter.Config{}.Normalize(), 3, Options{})
	st := &frameState{}
	sh, err := decodeShared(ck.Shared, tab.Schema, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.levelStats) != ck.Level {
		t.Fatalf("shared frame level %d != checkpoint level %d", len(sh.levelStats), ck.Level)
	}
	// Re-encode the decoded shared frame through a scratch worker.
	wk := &worker{schema: tab.Schema, n: sh.n, root: sh.root, active: sh.active}
	wk.levelStats = sh.levelStats
	re := wk.encodeShared(st)
	if string(re) != string(ck.Shared) {
		t.Fatalf("shared frame round-trip mismatch: %d bytes -> %d bytes", len(ck.Shared), len(re))
	}

	// The reopened frontier is the writer's active set: same count, order
	// and histograms. An empty leaf beside it at the same depth shows the
	// reopening rule tells the two kinds of leaf apart.
	active := sh.active
	want := held[ck.Level]
	if len(active) == 0 || len(active) != len(want) {
		t.Fatalf("decoded frontier has %d nodes, the writer held %d", len(active), len(want))
	}
	for i, n := range active {
		if fmt.Sprint(n.Hist) != fmt.Sprint(want[i]) {
			t.Fatalf("frontier node %d: histogram %v, the writer held %v", i, n.Hist, want[i])
		}
	}
	if emptyLeavesAt(sh.root, ck.Level) == 0 {
		t.Fatalf("level %d has no empty leaf beside its open nodes; the reopening rule goes unexercised", ck.Level)
	}

	// Corruption must be detected, not silently absorbed.
	for _, cut := range []int{1, len(ck.Shared) / 2, len(ck.Shared) - 1} {
		if _, err := decodeShared(ck.Shared[:cut], tab.Schema, st); err == nil {
			t.Fatalf("truncation at %d bytes went undetected", cut)
		}
	}
}

// TestRestoredListsMatchFreshRun: a checkpoint written by three ranks and
// resumed on another world size leaves each rank the records a fresh run
// on that size holds at the same level: in exact mode the attribute lists,
// segment for segment, and in the histogram modes the row store's node
// index per row. A restore routes every record down the checkpointed tree
// to its frontier node, loads the survivors' blocks and files the records
// under the frontier, as that run's levels did, and under RebalanceLevels
// rebalances the lists as the level did. Vote at k < attrs elects splits
// from per-rank evidence, so its tree depends on the world size and its
// row resumes on the writers' own.
func TestRestoredListsMatchFreshRun(t *testing.T) {
	tab := faultData.tab(t)
	depth4 := splitter.Config{MaxDepth: 4}.Normalize()
	for _, tc := range []struct {
		name string
		cfg  splitter.Config
		opts Options
		to   int  // the resuming world's size
		mway bool // the frontier must sit under an m-way categorical split
	}{
		{"exact", depth4, Options{}, 2, true},
		{"rebalance", depth4, Options{RebalanceLevels: true}, 2, false},
		{"binned", depth4, Options{Split: SplitBinned, Bins: 16}, 2, false},
		{"vote k=2", depth4, Options{Split: SplitVote, Bins: 16, VoteK: 2}, 3, false},
		{"categorical binary", splitter.Config{MaxDepth: 4, CategoricalBinary: true}.Normalize(), Options{}, 2, false},
		{"larger world", depth4, Options{}, 5, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck, _ := captureCheckpoint(t, tab, tc.cfg, 3, tc.opts)
			if ck.Level < 2 {
				t.Fatalf("checkpoint at level %d; the test needs a frontier below the root's children", ck.Level)
			}
			restored, fresh := make([]records, tc.to), make([]records, tc.to)
			comm.NewWorld(tc.to, timing.T3D()).Run(func(c *comm.Comm) {
				wk := newWorker(c, tab, tc.cfg, DistributedNodeTable, tc.opts)
				if err := wk.restore(tab, ck); err != nil {
					t.Error(err)
					return
				}
				if c.Rank() == 0 && tc.mway && !underMway(wk.root, ck.Level, false) {
					t.Errorf("no frontier node at level %d sits under an m-way split", ck.Level)
				}
				restored[c.Rank()] = wk.recs
			})
			comm.NewWorld(tc.to, timing.T3D()).Run(func(c *comm.Comm) {
				wk := newWorker(c, tab, tc.cfg, DistributedNodeTable, tc.opts)
				wk.presort(tab)
				for len(wk.levelStats) < ck.Level {
					wk.runLevel()
				}
				fresh[c.Rank()] = wk.recs
			})
			if slices.Contains(restored, nil) {
				return
			}
			for r := range tc.to {
				if got, ok := restored[r].(*lists); ok {
					want := fresh[r].(*lists)
					for a := range tab.Schema.Attrs {
						if !slices.Equal(got.segs[a], want.segs[a]) {
							t.Errorf("rank %d attribute %d: restored segments %v, a fresh run's %v", r, a, got.segs[a], want.segs[a])
						}
						if !slices.Equal(got.cont[a], want.cont[a]) || !slices.Equal(got.cat[a], want.cat[a]) {
							t.Errorf("rank %d attribute %d: restored entries differ from a fresh run's", r, a)
						}
					}
					continue
				}
				if got, want := rowsOf(restored[r]).node, rowsOf(fresh[r]).node; !slices.Equal(got, want) {
					t.Errorf("rank %d: restored row nodes %v, a fresh run's %v", r, got, want)
				}
			}
		})
	}
}

// rowsOf is the row store of a histogram mode's records.
func rowsOf(recs records) *rowStore {
	if vs, ok := recs.(*voteStore); ok {
		return &vs.rowStore
	}
	return recs.(*rowStore)
}

// underMway reports whether an open node at depth below n sits under an
// m-way categorical split; below says whether n itself does.
func underMway(n *tree.Node, depth int, below bool) bool {
	if depth == 0 {
		return below && !n.Leaf
	}
	for _, ch := range n.Children {
		if underMway(ch, depth-1, below || n.Kind == dataset.Categorical && n.Subset == nil) {
			return true
		}
	}
	return false
}

// TestRestoreRejectsAnotherTable: a canonical frame restored over a table of
// the same size and schema drawn from another seed fails on every rank with
// the class-count error, before any collective: the frame's tree routes
// that table's records into counts its frontier histograms do not hold.
func TestRestoreRejectsAnotherTable(t *testing.T) {
	tab := faultData.tab(t)
	other, err := datagen.Generate(datagen.Config{Function: 3, Attrs: datagen.Nine, Seed: 32}, tab.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	cfg := splitter.Config{MaxDepth: 4}.Normalize()
	const p = 3
	for _, opts := range frameFinders {
		t.Run(opts.Split.String(), func(t *testing.T) {
			ck, _ := captureCheckpoint(t, tab, cfg, p, opts)
			w := comm.NewWorld(p, timing.T3D())
			errs := make([]error, p)
			w.Run(func(c *comm.Comm) {
				errs[c.Rank()] = newWorker(c, other, cfg, DistributedNodeTable, opts).restore(other, ck)
			})
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "class counts") {
					t.Errorf("rank %d: restore error %v, want the class-count error", r, err)
				}
			}
			for r, st := range w.Stats() {
				if st != (comm.Stats{}) {
					t.Errorf("rank %d: communicated before failing: %+v", r, st)
				}
			}
		})
	}
}

// badSharedFrame is a shared frame decodeShared must refuse under
// frameFinders[which], with the error it must give.
type badSharedFrame struct {
	which uint8
	frame []byte
	want  string
}

// badSharedFrames rewrites the shared frame of a three-level run on two
// ranks with one cut vector broken in each of the ways a presort never
// writes one.
func badSharedFrames(tb testing.TB, tab *dataset.Table) map[string]badSharedFrame {
	tb.Helper()
	cont, cat := tab.Schema.ContIndices()[0], tab.Schema.CatIndices()[0]
	// rewrite returns the frame of a run under frameFinders[which], its
	// cuts edited by edit.
	rewrite := func(which uint8, edit func(cuts [][]float64)) []byte {
		opts := frameFinders[which]
		ck, _ := captureCheckpoint(tb, tab, splitter.Config{MaxDepth: 3}.Normalize(), 2, opts)
		st := &frameState{tag: opts.Split, bins: opts.Bins}
		sh, err := decodeShared(ck.Shared, tab.Schema, st)
		if err != nil {
			tb.Fatal(err)
		}
		edit(st.cuts)
		return (&worker{schema: tab.Schema, n: sh.n, levelStats: sh.levelStats, root: sh.root, active: sh.active}).encodeShared(st)
	}
	return map[string]badSharedFrame{
		"cuts not increasing": {1, rewrite(1, func(cuts [][]float64) {
			cuts[cont][0], cuts[cont][1] = cuts[cont][1], cuts[cont][0]
		}), fmt.Sprintf("cuts of attribute %d not strictly increasing at cut 1", cont)},
		"more cuts than bins allow": {1, rewrite(1, func(cuts [][]float64) {
			for len(cuts[cont]) < frameFinders[1].Bins {
				cuts[cont] = append(cuts[cont], cuts[cont][len(cuts[cont])-1]+1)
			}
		}), fmt.Sprintf("%d cuts of attribute %d, more than %d bins allow", frameFinders[1].Bins, cont, frameFinders[1].Bins)},
		"cut on a categorical attribute": {1, rewrite(1, func(cuts [][]float64) {
			cuts[cat] = []float64{0.5}
		}), fmt.Sprintf("1 cuts of categorical attribute %d", cat)},
		"cut in an exact frame": {0, rewrite(0, func(cuts [][]float64) {
			cuts[cont] = []float64{1}
		}), fmt.Sprintf("exact frame holds 1 cuts of attribute %d", cont)},
	}
}

// TestSharedCutRejections: each named bad shared frame fails to decode
// with its own error, and a run resuming from a frame set around it fails
// with that error instead of training under the broken cuts.
func TestSharedCutRejections(t *testing.T) {
	tab := faultData.tab(t)
	for name, b := range badSharedFrames(t, tab) {
		opts := frameFinders[b.which]
		if _, err := decodeShared(b.frame, tab.Schema, &frameState{tag: opts.Split, bins: opts.Bins}); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, b.want)
		}
		ck, _ := captureCheckpoint(t, tab, splitter.Config{MaxDepth: 3}.Normalize(), 2, opts)
		store, err := NewCheckpointStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		store.put(ck.Level, b.frame)
		opts.CheckpointDir, opts.Resume = store.dir, true
		if _, err := TrainOpts(comm.NewWorld(2, timing.T3D()), tab, splitter.Config{MaxDepth: 3}, opts); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: resume error %v, want one containing %q", name, err, b.want)
		}
	}
}

// emptyLeavesAt counts the leaves at depth that no training record reached.
func emptyLeavesAt(n *tree.Node, depth int) int {
	if depth == 0 {
		if n.Leaf && n.Size() == 0 {
			return 1
		}
		return 0
	}
	count := 0
	for _, ch := range n.Children {
		count += emptyLeavesAt(ch, depth-1)
	}
	return count
}

// captureCheckpoint trains under opts with checkpointing into a fresh
// directory and returns the newest complete checkpoint, plus the active
// sets' histograms dense rank 0 held after each level, by level count.
func captureCheckpoint(t testing.TB, tab *dataset.Table, cfg splitter.Config, p int, opts Options) (*Checkpoint, map[int][][]int64) {
	t.Helper()
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(p, timing.T3D())
	held := map[int][][]int64{}
	w.Run(func(c *comm.Comm) {
		wk := newWorker(c, tab, cfg, DistributedNodeTable, opts)
		wk.presort(tab)
		wk.ckpt = store
		for len(wk.active) > 0 {
			wk.runLevel()
			if c.Rank() == 0 {
				for _, n := range wk.active {
					held[len(wk.levelStats)] = append(held[len(wk.levelStats)], n.Hist)
				}
			}
		}
		wk.free()
	})
	if err := store.Err(); err != nil {
		t.Fatal(err)
	}
	ck := store.Latest()
	if ck == nil {
		t.Fatalf("%v run left no complete checkpoint", opts.Split)
	}
	return ck, held
}

// TestCheckpointRestoreRejectsMismatchedOptions: a checkpoint written under
// one split strategy or bin count must not restore into a worker built for
// another — that would silently continue as a hybrid nobody asked for — and
// the error names both sides.
func TestCheckpointRestoreRejectsMismatchedOptions(t *testing.T) {
	tab := faultData.tab(t)
	cfg := splitter.Config{}.Normalize()
	ck, _ := captureCheckpoint(t, tab, cfg, 2, Options{Split: SplitBinned, Bins: 16})
	restore := func(tab *dataset.Table, opts Options) error {
		w := comm.NewWorld(1, timing.T3D())
		return newWorker(w.Rank(0), tab, cfg, DistributedNodeTable, opts).restore(tab, ck)
	}
	if err := restore(tab, Options{Split: SplitBinned, Bins: 16}); err != nil {
		t.Fatalf("matching options rejected: %v", err)
	}
	half, _ := tab.Split(0.5)
	for name, tc := range map[string]struct {
		tab  *dataset.Table
		opts Options
		want []string // what the error must name
	}{
		"exact":       {tab, Options{}, []string{"binned", "16 bins", "exact", "0 bins"}},
		"vote":        {tab, Options{Split: SplitVote, Bins: 16, VoteK: 3}, []string{"binned", "vote"}},
		"other bins":  {tab, Options{Split: SplitBinned, Bins: 32}, []string{"16 bins", "32 bins"}},
		"other table": {half, Options{Split: SplitBinned, Bins: 16}, []string{"records"}},
	} {
		err := restore(tc.tab, tc.opts)
		if err == nil {
			t.Errorf("%s: binned checkpoint restored without error", name)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", name, err, want)
			}
		}
	}
}

// TestCheckpointDirPersistence: a simulated run with a CheckpointDir leaves
// the frame file a wire-backed run writes — the one on-disk format — and it
// reloads through the same scan, bit-identical.
func TestCheckpointDirPersistence(t *testing.T) {
	tab := faultData.tab(t)
	cfg := splitter.Config{}.Normalize()
	dir := t.TempDir()
	w := comm.NewWorld(3, timing.T3D())
	if _, err := TrainOpts(w, tab, cfg, Options{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	ck := (&CheckpointStore{dir: dir}).Latest()
	if ck == nil {
		t.Fatal("no frame on disk")
	}
	sh, err := decodeShared(ck.Shared, tab.Schema, &frameState{})
	if err != nil {
		t.Fatal(err)
	}
	if sh.n != tab.NumRows() || len(sh.levelStats) != ck.Level {
		t.Fatalf("persisted checkpoint n=%d level=%d, want n=%d level=%d", sh.n, len(sh.levelStats), tab.NumRows(), ck.Level)
	}
	// Nothing but the one frame file: no temp litter, no second format.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != sharedName(ck.Level) {
		t.Fatalf("checkpoint dir holds %d files (first %s), want only %s", len(entries), entries[0].Name(), sharedName(ck.Level))
	}
	// A truncated frame file on disk still reads back but must be rejected
	// at decode, never restored from.
	path := filepath.Join(dir, sharedName(ck.Level))
	if err := os.WriteFile(path, ck.Shared[:len(ck.Shared)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	torn := (&CheckpointStore{dir: dir}).Latest()
	if torn == nil || torn.Level != ck.Level {
		t.Fatalf("torn frame not read back: %+v", torn)
	}
	if _, err := decodeShared(torn.Shared, tab.Schema, &frameState{}); err == nil {
		t.Fatal("truncated on-disk frame decoded without error")
	}
}

// TestCheckpointStoreUnwritableDir: an unusable directory fails up front;
// a merely missing one is created. The unusable path nests under a regular
// file so MkdirAll fails even when the test runs as root.
func TestCheckpointStoreUnwritableDir(t *testing.T) {
	base := t.TempDir()
	blocker := filepath.Join(base, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCheckpointStore(filepath.Join(blocker, "sub")); err == nil {
		t.Fatal("checkpoint dir under a regular file accepted")
	}
	missing := filepath.Join(base, "does", "not", "exist")
	if _, err := NewCheckpointStore(missing); err != nil {
		t.Fatalf("missing checkpoint dir not created: %v", err)
	}
	if fi, err := os.Stat(missing); err != nil || !fi.IsDir() {
		t.Fatalf("stat %s: fi=%v err=%v", missing, fi, err)
	}
}

// TestCheckpointOptionsValidation: an unusable CheckpointDir fails the run
// before any training.
func TestCheckpointOptionsValidation(t *testing.T) {
	tab := faultData.tab(t)
	cfg := splitter.Config{}
	w := comm.NewWorld(2, timing.T3D())
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := TrainOpts(w, tab, cfg, Options{CheckpointDir: filepath.Join(blocker, "sub")}); err == nil {
		t.Fatal("unwritable CheckpointDir accepted")
	}
}
