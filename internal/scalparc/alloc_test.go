package scalparc

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/nodetable"
	"repro/internal/splitter"
	"repro/internal/timing"
)

// allocWorker builds a single-rank worker over a generated table. With
// p = 1 every collective completes synchronously from the calling
// goroutine, so phase methods can be driven directly, without World.Run.
func allocWorker(t *testing.T, rows int) *worker {
	t.Helper()
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 1}, rows)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(1, timing.T3D())
	cfg := splitter.Config{MinSplit: 2}.Normalize()
	wk := newWorker(w.Rank(0), tab, cfg, DistributedNodeTable, Options{})
	wk.presort(tab)
	return wk
}

// findSplitsAllocs measures the steady-state allocations of one full
// FindSplit pass (prefix scan, gini scans of every attribute, categorical
// reductions, candidate all-reduce) after an arena warmup run.
func findSplitsAllocs(t *testing.T, rows int) float64 {
	t.Helper()
	wk := allocWorker(t, rows)
	splitIdx := []int{0}
	wk.findSplits(splitIdx, 1) // warmup: grows the arena to high-water size
	return testing.AllocsPerRun(10, func() {
		wk.findSplits(splitIdx, 1)
	})
}

// TestFindSplitsSteadyStateAllocs pins the tentpole property: after the
// first level grows the arena, a FindSplit pass allocates O(1) — a small
// constant (boxed collective deposits and per-attribute reduction outputs)
// that does not grow with the record count.
func TestFindSplitsSteadyStateAllocs(t *testing.T) {
	small := findSplitsAllocs(t, 1_000)
	large := findSplitsAllocs(t, 8_000)
	if small != large {
		t.Errorf("steady-state FindSplit allocations scale with data: %.1f at 1k rows, %.1f at 8k rows", small, large)
	}
	// A loose ceiling: one boxed deposit per collective plus one reduction
	// output per categorical attribute. Function-2 seven-attribute data has
	// 3 categorical attributes; anything near the record count means a hot
	// path regressed.
	if large > 32 {
		t.Errorf("steady-state FindSplit allocations too high: %.1f per pass", large)
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

// TestLevelLoopSteadyStateAllocs runs full inductions at two sizes and
// checks the per-level allocation overhead beyond the unavoidable
// per-tree-node work stays modest — the end-to-end shape of the arena win.
// (Exact per-level O(1) is pinned by the phase-level tests above; a full
// level legitimately allocates per new tree node.)
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
