// Package repro's benchmark harness: one testing.B benchmark per row of
// DESIGN.md's per-experiment index. Each benchmark reports, besides the
// host ns/op, the simulated machine's figures as custom metrics —
// modeled-s (the paper's runtime axis), peakMB/rank (the memory axis), and
// MB-recv/rank (the communication volume behind the scalability claims).
//
// cmd/benchrunner prints the same experiments as full tables at the
// paper's (scaled) sizes; these benchmarks are the quick, `go test -bench`
// entry point at a fixed small size.
package repro_test

import (
	"fmt"
	"testing"

	"repro/classify"
	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/nodetable"
	"repro/internal/scalparc"
	"repro/internal/splitter"
	"repro/internal/sprint"
	"repro/internal/timing"
)

const benchRecords = 20_000

func benchTable(b *testing.B) *dataset.Table {
	b.Helper()
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 1}, benchRecords)
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

func reportRun(b *testing.B, res *scalparc.Result, p int) {
	b.Helper()
	b.ReportMetric(res.ModeledSeconds, "modeled-s")
	var peak, recv int64
	for _, m := range res.PeakMemoryPerRank {
		if m > peak {
			peak = m
		}
	}
	for _, s := range res.Stats {
		if s.BytesRecv > recv {
			recv = s.BytesRecv
		}
	}
	b.ReportMetric(float64(peak)/1e6, "peakMB/rank")
	b.ReportMetric(float64(recv)/1e6, "MB-recv/rank")
}

// BenchmarkFig3aRuntime is FIG3a: ScalParC induction runtime across
// processor counts at fixed N (modeled-s is the figure's y axis).
func BenchmarkFig3aRuntime(b *testing.B) {
	tab := benchTable(b)
	for _, p := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			w := comm.NewWorld(p, timing.T3D())
			for i := 0; i < b.N; i++ {
				res, err := scalparc.TrainOpts(w, tab, splitter.Config{}, scalparc.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					reportRun(b, res, p)
				}
			}
		})
	}
}

// BenchmarkFig3bMemory is FIG3b: the peakMB/rank metric across processor
// counts (one induction per iteration; the metric is the figure's y axis).
func BenchmarkFig3bMemory(b *testing.B) {
	tab := benchTable(b)
	for _, p := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			w := comm.NewWorld(p, timing.T3D())
			for i := 0; i < b.N; i++ {
				res, err := scalparc.TrainOpts(w, tab, splitter.Config{MaxDepth: 8}, scalparc.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					reportRun(b, res, p)
				}
			}
		})
	}
}

// BenchmarkSpeedupTrend is TXT-SPD: the same induction at two sizes on
// p=32; the ratio of modeled-s across sizes against the 8x record ratio
// shows the size-dependence of the speedup curves.
func BenchmarkSpeedupTrend(b *testing.B) {
	for _, n := range []int{benchRecords / 4, benchRecords * 2} {
		tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 1}, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/p=32", n), func(b *testing.B) {
			w := comm.NewWorld(32, timing.T3D())
			for i := 0; i < b.N; i++ {
				res, err := scalparc.TrainOpts(w, tab, splitter.Config{}, scalparc.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					reportRun(b, res, 32)
				}
			}
		})
	}
}

// BenchmarkSprintComparison is CMP-SPRINT: identical induction under both
// splitting-phase formulations; compare peakMB/rank and MB-recv/rank.
func BenchmarkSprintComparison(b *testing.B) {
	tab := benchTable(b)
	algos := map[string]func(*comm.World) (*scalparc.Result, error){
		"scalparc": func(w *comm.World) (*scalparc.Result, error) {
			return scalparc.TrainOpts(w, tab, splitter.Config{MaxDepth: 8}, scalparc.Options{})
		},
		"sprint": func(w *comm.World) (*scalparc.Result, error) {
			return sprint.Train(w, tab, splitter.Config{MaxDepth: 8})
		},
	}
	for _, name := range []string{"scalparc", "sprint"} {
		b.Run(name+"/p=16", func(b *testing.B) {
			w := comm.NewWorld(16, timing.T3D())
			for i := 0; i < b.N; i++ {
				res, err := algos[name](w)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					reportRun(b, res, 16)
				}
			}
		})
	}
}

// BenchmarkBlockedUpdates is ABL-BLOCK: node-table updates under total
// skew, blocked vs unblocked.
func BenchmarkBlockedUpdates(b *testing.B) {
	const n, p = 50_000, 8
	for _, mode := range []struct {
		name  string
		block int
	}{{"blocked", n / p}, {"unblocked", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			w := comm.NewWorld(p, timing.T3D())
			as := make([]nodetable.Assignment, n)
			for rid := range as {
				as[rid] = nodetable.Assignment{Rid: int32(rid), Child: uint8(rid % 3)}
			}
			for i := 0; i < b.N; i++ {
				w.Reset()
				w.Run(func(c *comm.Comm) {
					nt := nodetable.NewWithBlock(c, n, mode.block)
					defer nt.Free()
					if c.Rank() == 0 {
						nt.Update(as)
					} else {
						nt.Update(nil)
					}
				})
				if i == b.N-1 {
					b.ReportMetric(float64(w.PeakMemory()[0])/1e6, "peakMB/sender")
				}
			}
		})
	}
}

// BenchmarkAllToAll is MICRO: the all-to-all personalized exchange at the
// heart of the parallel hashing paradigm.
func BenchmarkAllToAll(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			w := comm.NewWorld(p, timing.T3D())
			payload := make([]int64, 1024)
			b.SetBytes(int64(p * len(payload) * 8))
			for i := 0; i < b.N; i++ {
				w.Run(func(c *comm.Comm) {
					send := make([][]int64, p)
					for d := range send {
						send[d] = payload
					}
					comm.AllToAllInto(c, send, nil)
				})
			}
		})
	}
}

// BenchmarkInduction is one full exact-split induction (Quest F2, 20k
// records, p=4) with allocation reporting: the body `make profile`
// profiles. TestInductionAllocs (internal/scalparc) gates the same
// induction's allocation count.
func BenchmarkInduction(b *testing.B) {
	tab := benchTable(b)
	w := comm.NewWorld(4, timing.T3D())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scalparc.TrainOpts(w, tab, splitter.Config{}, scalparc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// deepRecords is BenchmarkInductionDeep's row count: a fifth of the
// benchmark module's train-deep-exact table, so one induction takes a few
// hundred milliseconds and `make profile` stays short.
const deepRecords = 60_000

// BenchmarkInductionDeep is one exact-split induction of train-deep-exact's
// shape at deepRecords rows: Quest F2 with 5 % label noise, p=2, unlimited
// depth, so the tree grows 39 levels (65 at 300k rows) of mostly small
// nodes. It is the deep body `make profile` profiles, where PerformSplitII
// (the node table's Lookup and partition), the gini scan and FindSplitI's
// class counts carry the work.
func BenchmarkInductionDeep(b *testing.B) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 1, LabelNoise: 0.05}, deepRecords)
	if err != nil {
		b.Fatal(err)
	}
	w := comm.NewWorld(2, timing.T3D())
	var res *scalparc.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = scalparc.TrainOpts(w, tab, splitter.Config{}, scalparc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Levels), "levels")
}

// BenchmarkInductionBinned is one binned induction (B = 64, MaxDepth 8,
// p=2) of a wide table with allocation reporting: the seven Quest
// attributes plus 57 continuous noise columns, 20k records. It is the
// binned body `make profile` profiles, where the presort — each rank's
// local key sorts of 63 continuous columns and the cut selection — coding
// the rows, and the histogram kernel carry the work.
func BenchmarkInductionBinned(b *testing.B) {
	tab, err := datagen.GenerateWide(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 1}, benchRecords, 57)
	if err != nil {
		b.Fatal(err)
	}
	w := comm.NewWorld(2, timing.T3D())
	opts := scalparc.Options{Split: scalparc.SplitBinned, Bins: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scalparc.TrainOpts(w, tab, splitter.Config{MaxDepth: 8}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd is the library-level path a user takes: generate,
// train, evaluate.
func BenchmarkEndToEnd(b *testing.B) {
	tab := benchTable(b)
	for i := 0; i < b.N; i++ {
		model, err := classify.Train(tab, classify.Config{Processors: 8, MaxDepth: 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := classify.Evaluate(model.Tree, tab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialBaseline measures the serial classifier for host-level
// speedup comparisons.
func BenchmarkSerialBaseline(b *testing.B) {
	tab := benchTable(b)
	for i := 0; i < b.N; i++ {
		if _, err := classify.Train(tab, classify.Config{Algorithm: classify.Serial, MaxDepth: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchGridSmoke keeps the bench package exercised under plain go test
// (shape assertions live in internal/bench's own tests).
func TestBenchGridSmoke(t *testing.T) {
	cfg := bench.SweepConfig{
		Function: 2, Seed: 1, MaxDepth: 6,
		Sizes: []int{2000, 8000},
		Procs: []int{2, 8},
		Algo:  classify.ScalParC,
	}
	pts, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	g := bench.NewGrid(pts)
	if len(g.Sizes) != 2 || len(g.Procs) != 2 {
		t.Fatalf("grid shape: %v %v", g.Sizes, g.Procs)
	}
	if g.MustAt(8000, 2).ModeledSeconds <= g.MustAt(8000, 8).ModeledSeconds {
		t.Fatal("more processors should reduce the modeled runtime at this size")
	}
}
