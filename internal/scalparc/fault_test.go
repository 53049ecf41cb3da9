package scalparc

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/tree"
)

// siteRecorder is a passive injector that records every distinct
// (rank, phase, level) site the run's communication operations touch, so
// the chaos sweep can aim crashes only at sites that exist. Per-rank site
// sets keep Act race-free.
type siteRecorder struct {
	mu    sync.Mutex
	sites map[comm.Site]bool
}

func (r *siteRecorder) Act(at comm.Site) comm.FaultAction {
	key := comm.Site{Rank: at.Rank, Phase: at.Phase, Level: at.Level}
	r.mu.Lock()
	r.sites[key] = true
	r.mu.Unlock()
	return comm.FaultAction{}
}

func faultTestTable(t testing.TB) *dataset.Table {
	t.Helper()
	tab, err := datagen.Generate(datagen.Config{Function: 3, Attrs: datagen.Nine, Seed: 31}, 160)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// recordSites trains fault-free and returns every (rank, phase, level)
// communication site plus the oracle result.
func recordSites(t *testing.T, tab *dataset.Table, cfg splitter.Config, p int, opts Options) (map[comm.Site]bool, *Result) {
	t.Helper()
	rec := &siteRecorder{sites: make(map[comm.Site]bool)}
	opts.Faults = rec
	w := comm.NewWorld(p, timing.T3D())
	res, err := TrainOpts(w, tab, cfg, opts)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	return rec.sites, res
}

// TestCrashRecoverySweep is the chaos sweep at the heart of the fault
// model's acceptance criterion: for every (phase, level) the induction
// visits, fail-stop one rank at that site and require the survivors to
// recover a tree identical to the fault-free oracle — at several processor
// counts, resuming from level-boundary checkpoints.
func TestCrashRecoverySweep(t *testing.T) {
	tab := faultTestTable(t)
	cfg := splitter.Config{}.Normalize()
	oracle, err := serial.Train(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := []int{2, 3, 5, 8}
	if testing.Short() {
		ps = []int{3}
	}
	dir := t.TempDir()
	for _, p := range ps {
		sites, _ := recordSites(t, tab, cfg, p, Options{CheckpointDir: dir})

		// One crash per (phase, level), rotating the victim rank; prefer
		// rank (level+phase) mod p when it communicates at the site.
		byPL := make(map[trace.Key][]int)
		for s := range sites {
			k := trace.Key{Phase: s.Phase, Level: s.Level}
			byPL[k] = append(byPL[k], s.Rank)
		}
		for k, ranks := range byPL {
			victim := ranks[0]
			want := (k.Level + int(k.Phase)) % p
			for _, r := range ranks {
				if r == want {
					victim = r
					break
				}
			}
			ev := faults.Event{Rank: victim, Phase: k.Phase, Level: k.Level, Kind: faults.Crash}
			w := comm.NewWorld(p, timing.T3D())
			opts := Options{CheckpointDir: dir, Faults: faults.NewSchedule(p, ev)}
			res, err := TrainOpts(w, tab, cfg, opts)
			if err != nil {
				t.Fatalf("p=%d crash@%v: %v", p, ev, err)
			}
			preFailed := t.Failed()
			if !res.Tree.Equal(oracle) {
				dumpChaosTrace(t, res, fmt.Sprintf("p%d-%v-L%d-r%d", p, ev.Phase, ev.Level, victim))
				t.Fatalf("p=%d crash@%v: recovered tree differs from fault-free oracle", p, ev)
			}
			if res.Recoveries != 1 {
				t.Errorf("p=%d crash@%v: Recoveries = %d, want 1", p, ev, res.Recoveries)
			}
			if res.FinalRanks != p-1 {
				t.Errorf("p=%d crash@%v: FinalRanks = %d, want %d", p, ev, res.FinalRanks, p-1)
			}
			if len(res.Lost) != 1 || res.Lost[0] != victim {
				t.Errorf("p=%d crash@%v: Lost = %v, want [%d]", p, ev, res.Lost, victim)
			}
			assertFaultEvents(t, res, victim)
			if t.Failed() && !preFailed {
				dumpChaosTrace(t, res, fmt.Sprintf("p%d-%v-L%d-r%d", p, ev.Phase, ev.Level, victim))
			}
		}
	}
}

// dumpChaosTrace writes a failing run's Chrome trace into the directory
// named by $CHAOS_ARTIFACT_DIR (set by `make chaos` in CI), so the
// timeline of a failed chaos case survives as a build artifact.
func dumpChaosTrace(t *testing.T, res *Result, label string) {
	t.Helper()
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" || res == nil || res.Trace == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos trace dir: %v", err)
		return
	}
	path := filepath.Join(dir, label+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Logf("chaos trace: %v", err)
		return
	}
	defer f.Close()
	if err := res.Trace.WriteChrome(f); err != nil {
		t.Logf("chaos trace: %v", err)
		return
	}
	t.Logf("wrote chaos trace to %s", path)
}

// assertFaultEvents checks the crash, detection, and recovery instants are
// visible on the run's trace timelines.
func assertFaultEvents(t *testing.T, res *Result, victim int) {
	t.Helper()
	names := make(map[string]int)
	for _, rt := range res.Trace.Ranks {
		for _, e := range rt.Events() {
			names[e.Name]++
		}
	}
	for _, want := range []string{"fault:crash", "fault:detected", "recovery:shrink"} {
		if names[want] == 0 {
			t.Errorf("trace events %v missing %q", names, want)
		}
	}
	crashEvents := 0
	for _, e := range res.Trace.Ranks[victim].Events() {
		if e.Name == "fault:crash" {
			crashEvents++
		}
	}
	if crashEvents != 1 {
		t.Errorf("victim rank %d has %d fault:crash events, want 1", victim, crashEvents)
	}
}

// TestCrashRecoveryWithoutCheckpoint exercises the full-replay path: with
// checkpointing off, survivors rebuild from the input and still converge to
// the oracle tree, because the tree is invariant under the processor count.
func TestCrashRecoveryWithoutCheckpoint(t *testing.T) {
	tab := faultTestTable(t)
	cfg := splitter.Config{}.Normalize()
	oracle, err := serial.Train(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		ev := faults.Event{Rank: p - 1, Phase: trace.FindSplitII, Level: 1, Kind: faults.Crash}
		w := comm.NewWorld(p, timing.T3D())
		res, err := TrainOpts(w, tab, cfg, Options{Faults: faults.NewSchedule(p, ev)})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !res.Tree.Equal(oracle) {
			t.Fatalf("p=%d: full-replay recovery tree differs from oracle", p)
		}
		if res.Recoveries != 1 || res.FinalRanks != p-1 {
			t.Fatalf("p=%d: Recoveries=%d FinalRanks=%d, want 1 and %d", p, res.Recoveries, res.FinalRanks, p-1)
		}
	}
}

// TestDoubleCrashRecovery loses two ranks at different levels of one run.
func TestDoubleCrashRecovery(t *testing.T) {
	tab := faultTestTable(t)
	cfg := splitter.Config{}.Normalize()
	oracle, err := serial.Train(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := 5
	sched := faults.NewSchedule(p,
		faults.Event{Rank: 1, Phase: trace.FindSplitI, Level: 1, Kind: faults.Crash},
		faults.Event{Rank: 3, Phase: trace.PerformSplitII, Level: 2, Kind: faults.Crash},
	)
	w := comm.NewWorld(p, timing.T3D())
	res, err := TrainOpts(w, tab, cfg, Options{CheckpointDir: t.TempDir(), Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tree.Equal(oracle) {
		t.Fatal("double-crash recovery tree differs from oracle")
	}
	if res.FinalRanks != p-2 {
		t.Fatalf("FinalRanks = %d, want %d", res.FinalRanks, p-2)
	}
	if len(res.Lost) != 2 {
		t.Fatalf("Lost = %v, want two ranks", res.Lost)
	}
}

// TestStragglerConservation injects virtual-clock skew and checks the
// accounting invariants survive it exactly: every rank's per-bucket times
// still sum to its final clock (integer picoseconds, == not ~=), the skew
// shows up in the modeled runtime, and the tree is untouched.
func TestStragglerConservation(t *testing.T) {
	tab := faultTestTable(t)
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
	tab := faultTestTable(t)
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
	tab := faultTestTable(t)
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

// TestRandomRecoverableSchedules drives randomized crash/drop/straggle
// schedules through quick.Check: whatever recoverable chaos the seed draws,
// the tree must equal the oracle.
func TestRandomRecoverableSchedules(t *testing.T) {
	tab := faultTestTable(t)
	cfg := splitter.Config{}.Normalize()
	oracle, err := serial.Train(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	check := func(seed int64) bool {
		p := 3 + int(uint64(seed)%3) // 3..5
		sched := faults.Random(seed, p, 4, 4, faults.Crash, faults.Drop, faults.Straggle)
		w := comm.NewWorld(p, timing.T3D())
		res, err := TrainOpts(w, tab, cfg, Options{CheckpointDir: dir, Faults: sched})
		if err != nil {
			t.Logf("seed %d p=%d: %v (schedule %v)", seed, p, err, sched.Events())
			return false
		}
		if !res.Tree.Equal(oracle) {
			t.Logf("seed %d p=%d: tree differs (schedule %v)", seed, p, sched.Events())
			return false
		}
		return true
	}
	cfgq := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfgq.MaxCount = 4
	}
	if err := quick.Check(check, cfgq); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRoundTrip: decoding a checkpoint and re-encoding it must
// reproduce the original bytes — the codec loses nothing a resume needs —
// the decoded frontier must be the active set the writer held, and a frame
// that is well-formed but wrong must be an error, not a panic.
func TestCheckpointRoundTrip(t *testing.T) {
	// Quest F5 at this size leaves empty m-way children at the depth of the
	// last checkpoint (the chaos table's F3 leaves none there).
	tab, err := datagen.Generate(datagen.Config{Function: 5, Attrs: datagen.Nine, Seed: 31}, 160)
	if err != nil {
		t.Fatal(err)
	}
	cfg := splitter.Config{}.Normalize()
	p := 3
	ck, held := captureCheckpoint(t, tab, cfg, p, Options{})
	finder := newSplitFinder(Options{})
	sh, err := decodeShared(ck.Shared, tab.Schema, finder)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.levelStats) != ck.Level {
		t.Fatalf("shared frame level %d != checkpoint level %d", len(sh.levelStats), ck.Level)
	}
	// Re-encode the decoded shared frame through a scratch worker.
	wk := &worker{schema: tab.Schema, n: sh.n, root: sh.root, active: sh.active, finder: finder}
	wk.levelStats = sh.levelStats
	re := wk.encodeShared()
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
	for i, ns := range active {
		if fmt.Sprint(ns.node.Hist) != fmt.Sprint(want[i]) {
			t.Fatalf("frontier node %d: histogram %v, the writer held %v", i, ns.node.Hist, want[i])
		}
	}
	if emptyLeavesAt(sh.root, ck.Level) == 0 {
		t.Fatalf("level %d has no empty leaf beside its open nodes; the reopening rule goes unexercised", ck.Level)
	}

	for w, frag := range ck.Frags {
		if _, err := decodeFrag(frag, tab.Schema, len(active)); err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	// Corruption must be detected, not silently absorbed.
	for _, cut := range []int{1, len(ck.Shared) / 2, len(ck.Shared) - 1} {
		if _, err := decodeShared(ck.Shared[:cut], tab.Schema, finder); err == nil {
			t.Fatalf("truncation at %d bytes went undetected", cut)
		}
	}
	if _, err := decodeFrag(ck.Frags[0][:len(ck.Frags[0])-2], tab.Schema, len(active)); err == nil {
		t.Fatal("fragment truncation went undetected")
	}

	// Well-formed but wrong fragments: each edit is re-encoded into writer
	// 0's frame. A class id or categorical value out of range fails the
	// fragment decode; a segment one entry short fails restore's count
	// check against the node's histogram.
	edits := map[string]func(fr *fragFrame){
		"class id": func(fr *fragFrame) {
			a, i := firstSegment(t, tab.Schema, fr, dataset.Continuous)
			fr.cont[a][i][0].Cid = uint8(tab.Schema.NumClasses())
		},
		"categorical value": func(fr *fragFrame) {
			a, i := firstSegment(t, tab.Schema, fr, dataset.Categorical)
			fr.cat[a][i][0].Val = int32(tab.Schema.Attrs[a].Cardinality())
		},
		"segment total": func(fr *fragFrame) {
			a, i := firstSegment(t, tab.Schema, fr, dataset.Continuous)
			fr.cont[a][i] = fr.cont[a][i][1:]
		},
	}
	for name, edit := range edits {
		fr, err := decodeFrag(ck.Frags[0], tab.Schema, len(active))
		if err != nil {
			t.Fatal(err)
		}
		edit(fr)
		bad := *ck
		bad.Frags = append([][]byte(nil), ck.Frags...)
		bad.Frags[0], _ = fragWorker(tab.Schema, fr, len(active)).encodeFrag()
		w := comm.NewWorld(p, timing.T3D())
		if err := newWorker(w.Rank(0), tab, cfg, DistributedNodeTable, Options{}).restore(&bad); err == nil {
			t.Errorf("%s: restored from a wrong fragment", name)
		}
	}
}

// firstSegment locates fr's first non-empty segment of an attribute of kind.
func firstSegment(t *testing.T, schema *dataset.Schema, fr *fragFrame, kind dataset.Kind) (a, i int) {
	t.Helper()
	for a, attr := range schema.Attrs {
		for i, n := range fr.lens[a] {
			if attr.Kind == kind && n > 0 {
				return a, i
			}
		}
	}
	t.Fatalf("fragment has no %v entry", kind)
	return 0, 0
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
	w.ResetClocks()
	w.ResetStats()
	w.ResetMemory()
	held := map[int][][]int64{}
	w.Run(func(c *comm.Comm) {
		wk := newWorker(c, tab, cfg, DistributedNodeTable, opts)
		wk.presort(tab)
		wk.ckpt = store
		for len(wk.active) > 0 {
			wk.runLevel()
			if c.Rank() == 0 {
				for _, ns := range wk.active {
					held[len(wk.levelStats)] = append(held[len(wk.levelStats)], ns.node.Hist)
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
	tab := faultTestTable(t)
	cfg := splitter.Config{}.Normalize()
	ck, _ := captureCheckpoint(t, tab, cfg, 2, Options{Split: SplitBinned, Bins: 16})
	restore := func(tab *dataset.Table, opts Options) error {
		w := comm.NewWorld(1, timing.T3D())
		return newWorker(w.Rank(0), tab, cfg, DistributedNodeTable, opts).restore(ck)
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
// the same per-rank frame files a wire-backed run writes — the one on-disk
// format — and they reload through the same scan, bit-identical.
func TestCheckpointDirPersistence(t *testing.T) {
	tab := faultTestTable(t)
	cfg := splitter.Config{}.Normalize()
	dir := t.TempDir()
	p := 3
	w := comm.NewWorld(p, timing.T3D())
	if _, err := TrainOpts(w, tab, cfg, Options{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	ck := (&CheckpointStore{dir: dir}).Latest()
	if ck == nil {
		t.Fatal("no complete frame set on disk")
	}
	if ck.Writers != p || len(ck.Frags) != p {
		t.Fatalf("persisted checkpoint has %d writers / %d fragments, want %d", ck.Writers, len(ck.Frags), p)
	}
	finder := newSplitFinder(Options{})
	sh, err := decodeShared(ck.Shared, tab.Schema, finder)
	if err != nil {
		t.Fatal(err)
	}
	if sh.n != tab.NumRows() || len(sh.levelStats) != ck.Level {
		t.Fatalf("persisted checkpoint n=%d level=%d, want n=%d level=%d", sh.n, len(sh.levelStats), tab.NumRows(), ck.Level)
	}
	active := sh.active
	for w, frag := range ck.Frags {
		if _, err := decodeFrag(frag, tab.Schema, len(active)); err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	// Nothing but frame files: no temp litter, no second format.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); !strings.HasPrefix(name, "ck-L") || !(strings.HasSuffix(name, ".frag") || strings.HasSuffix(name, ".shared")) {
			t.Fatalf("unexpected file %s in the checkpoint dir", name)
		}
	}
	// A truncated frame file on disk still assembles (the set is complete by
	// name) but must be rejected at decode, never restored from.
	path := filepath.Join(dir, fragName(ck.Level, ck.Writers, 1))
	if err := os.WriteFile(path, ck.Frags[1][:len(ck.Frags[1])/2], 0o644); err != nil {
		t.Fatal(err)
	}
	torn := (&CheckpointStore{dir: dir}).Latest()
	if torn == nil || torn.Level != ck.Level {
		t.Fatalf("frame set with a torn fragment not assembled: %+v", torn)
	}
	if _, err := decodeFrag(torn.Frags[1], tab.Schema, len(active)); err == nil {
		t.Fatal("truncated on-disk fragment decoded without error")
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
	tab := faultTestTable(t)
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
