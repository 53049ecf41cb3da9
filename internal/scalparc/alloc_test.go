package scalparc

import (
	"testing"
	"unsafe"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/nodetable"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/tree"
)

// allocWorker builds a single-rank worker under opts over a generated
// table, Quest F2 with 5 % label noise so that deep levels hold many
// need-split nodes (train-deep-exact's shape). With p = 1 every collective
// completes synchronously from the calling goroutine, so phase methods can
// be driven directly, without World.Run.
func allocWorker(t *testing.T, rows int, opts Options) *worker {
	t.Helper()
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 1, LabelNoise: 0.05}, rows)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(1, timing.T3D())
	cfg := splitter.Config{MinSplit: 2}.Normalize()
	wk := newWorker(w.Rank(0), tab, cfg, DistributedNodeTable, opts)
	wk.presort(tab)
	return wk
}

// findSplitsAllocs measures the steady-state allocations of one full
// FindSplit pass under opts (exact: prefix scan, gini scans of every
// attribute, categorical reductions, candidate all-reduce; binned and vote:
// the row pass, the election, the reduce-scatter) after an arena warmup
// run, at the first level with at least nodes need-split nodes. It returns
// that level's need-split count beside the allocations.
func findSplitsAllocs(t *testing.T, rows, nodes int, opts Options) (float64, int) {
	t.Helper()
	wk := allocWorker(t, rows, opts)
	for {
		splitIdx := make([]int, len(wk.active))
		nNeed := 0
		for i, n := range wk.active {
			splitIdx[i] = -1
			if wk.cfg.TrySplit(n, len(wk.levelStats)) {
				splitIdx[i] = nNeed
				nNeed++
			}
		}
		if nNeed >= nodes {
			wk.findSplits(splitIdx, nNeed) // warmup: grows the arena to high-water size
			return testing.AllocsPerRun(10, func() {
				wk.findSplits(splitIdx, nNeed)
			}), nNeed
		}
		if len(wk.active) == 0 {
			t.Fatalf("%v: no level of the %d-row tree has %d need-split nodes", opts.Split, rows, nodes)
		}
		wk.runLevel()
	}
}

// TestFindSplitsSteadyStateAllocs pins the arena property in every split
// mode: after the first level grows the arena, a FindSplit pass allocates
// O(1) — a small constant (boxed collective deposits and per-attribute
// reduction outputs) that grows neither with the record count nor with the
// number of need-split nodes: a deep level's pass allocates exactly what
// the root's does. Each mode's ceiling is its count per pass, so nothing
// rebuilt per pass (such as the schema's attribute index lists) slips in.
func TestFindSplitsSteadyStateAllocs(t *testing.T) {
	for _, mode := range []struct {
		opts    Options
		ceiling float64
	}{{Options{}, 5}, {Options{Split: SplitBinned, Bins: 64}, 5}, {Options{Split: SplitVote, Bins: 64, VoteK: 2}, 8}} {
		opts := mode.opts
		small, _ := findSplitsAllocs(t, 1_000, 1, opts)
		large, _ := findSplitsAllocs(t, 8_000, 1, opts)
		deep, nNeed := findSplitsAllocs(t, 8_000, 16, opts)
		t.Logf("%v: %.1f allocations per pass at 1k rows, %.1f at 8k rows, %.1f at %d need-split nodes", opts.Split, small, large, deep, nNeed)
		if small != large {
			t.Errorf("%v: steady-state FindSplit allocations scale with data: %.1f at 1k rows, %.1f at 8k rows", opts.Split, small, large)
		}
		if deep != large {
			t.Errorf("%v: steady-state FindSplit allocations scale with nodes: %.1f at the root, %.1f at %d need-split nodes", opts.Split, large, deep, nNeed)
		}
		// Function-2 seven-attribute data has one categorical attribute
		// (elevel), so exact mode makes one categorical reduction.
		if large > mode.ceiling {
			t.Errorf("%v: steady-state FindSplit allocations too high: %.1f per pass, ceiling %.0f", opts.Split, large, mode.ceiling)
		}
	}
}

// TestNodeTableSteadyStateAllocs pins the pooled node-table paths: after
// warmup, Update and Lookup allocate a constant independent of the batch
// size.
func TestNodeTableSteadyStateAllocs(t *testing.T) {
	measure := func(n int) float64 {
		w := comm.NewWorld(1, timing.T3D())
		nt := nodetable.New(w.Rank(0), n)
		defer nt.Free()
		assigns := make([]nodetable.Assignment, n)
		rids := make([]int32, n)
		for i := range assigns {
			assigns[i] = nodetable.Assignment{Rid: int32(i), Child: uint8(i % 2)}
			rids[i] = int32(n - 1 - i)
		}
		nt.Update(assigns)
		nt.Lookup(rids) // warmup
		return testing.AllocsPerRun(10, func() {
			nt.Update(assigns)
			nt.Lookup(rids)
		})
	}
	small := measure(1_000)
	large := measure(16_000)
	if small != large {
		t.Errorf("steady-state node-table allocations scale with batch: %.1f at 1k, %.1f at 16k", small, large)
	}
	if large > 16 {
		t.Errorf("steady-state node-table allocations too high: %.1f per Update+Lookup", large)
	}
}

// TestLevelLoopSteadyStateAllocs smokes the arena across a full multi-level
// induction at p > 1. It pins no count: per-level O(1) is pinned only for
// FindSplit and the node table by the tests above (a full level
// legitimately allocates per new tree node), and PerformSplitII's double
// buffer by TestDoubleBufferIsTwoArrays.
func TestLevelLoopSteadyStateAllocs(t *testing.T) {
	induce := func(rows int) {
		tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 1}, rows)
		if err != nil {
			t.Fatal(err)
		}
		w := comm.NewWorld(2, timing.T3D())
		if _, err := TrainOpts(w, tab, splitter.Config{MinSplit: 2}, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Smoke the arena across a real multi-level run at p > 1 under the
	// race detector build tags used in CI; correctness (identical trees)
	// is pinned by the differential harness.
	induce(2_000)
}

// inductionAllocsBaseline is the allocations of one induction (Quest F2,
// 20k records, p = 4) in the last run BENCH_induction.json recorded:
// "generic presort (slices.SortFunc)", 2026-08-05. A count is the same on
// every host.
const inductionAllocsBaseline = 2971

// TestInductionAllocs is GUARD-HOTPATH's allocation gate: a whole
// induction may allocate at most 20% more often than the recorded run.
func TestInductionAllocs(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 1}, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(4, timing.T3D())
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := TrainOpts(w, tab, splitter.Config{}, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per induction (recorded %d, gate +20%%)", allocs, inductionAllocsBaseline)
	if allocs > 1.2*inductionAllocsBaseline {
		t.Errorf("induction allocation regression: %.0f allocs/op vs recorded %d (>20%%)", allocs, inductionAllocsBaseline)
	}
}

// TestDoubleBufferIsTwoArrays: with the arena on (default options, p = 2),
// PerformSplitII scatters every attribute's list into its spare backing
// and retires the live one into the spare's place, so level after level
// each list alternates between exactly two backing arrays. With
// PerNodeComms the arena is off (fresh arrays every level), and the tree
// must still equal the oracle's.
func TestDoubleBufferIsTwoArrays(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 1}, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := splitter.Config{MinSplit: 2}.Normalize()
	want, err := serial.Train(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	na := tab.Schema.NumAttrs()
	for _, opts := range []Options{{}, {PerNodeComms: true}} {
		const p = 2
		// backs[r][l][a]: rank r's backing array of attribute a after level l.
		backs := make([][][]unsafe.Pointer, p)
		trees := make([]*tree.Tree, p)
		w := comm.NewWorld(p, timing.T3D())
		w.Run(func(c *comm.Comm) {
			wk := newWorker(c, tab, cfg, DistributedNodeTable, opts)
			wk.presort(tab)
			for len(wk.active) > 0 {
				wk.runLevel()
				level := make([]unsafe.Pointer, na)
				l := wk.recs.(*lists)
				for a := range level {
					level[a] = unsafe.Pointer(unsafe.SliceData(l.cont[a]))
					if l.cont[a] == nil {
						level[a] = unsafe.Pointer(unsafe.SliceData(l.cat[a]))
					}
				}
				backs[c.Rank()] = append(backs[c.Rank()], level)
			}
			trees[c.Rank()] = &tree.Tree{Schema: tab.Schema, Root: wk.root}
			wk.free()
		})
		for r := range trees {
			if !trees[r].Equal(want) {
				t.Fatalf("%+v: rank %d's tree differs from the oracle's", opts, r)
			}
		}
		if opts.PerNodeComms {
			continue
		}
		for r, levels := range backs {
			if len(levels) < 4 {
				t.Fatalf("rank %d: only %d levels; the check needs a deeper tree", r, len(levels))
			}
			for a := 0; a < na; a++ {
				for l := 1; l < len(levels); l++ {
					if levels[l][a] == levels[l-1][a] || (l >= 2 && levels[l][a] != levels[l-2][a]) {
						t.Fatalf("rank %d attribute %d: level %d's list does not alternate between two backing arrays", r, a, l)
					}
				}
			}
		}
	}
}
