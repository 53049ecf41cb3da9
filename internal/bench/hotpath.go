// GUARD-HOTPATH: the allocation-free hot paths' benchmark bodies and their
// CI regression gate.
//
// The benchmark bodies live here (exported, parameterized over size and
// processor count) so the root bench_test.go benchmarks and the guard
// measure exactly the same code. HotpathGuard re-measures quickly and fails
// CI when the gini kernel loses its lead over the frozen naive scan or the
// induction's allocation count regresses against the archived
// BENCH_induction.json. How fast these paths run on a host is benchmark/'s
// to measure (train-deep-exact and train-wide-binned: gini.scan_ns_per_entry,
// psort.sort_s, nodetable.*, scalparc.allocs_per_train).
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/gini"
	"repro/internal/nodetable"
	"repro/internal/psort"
	"repro/internal/scalparc"
	"repro/internal/splitter"
	"repro/internal/timing"
)

// The fixed workloads GUARD-HOTPATH measures — the ones the archived runs
// measured, so the allocation counts stay comparable.
const (
	HotpathRecords = 20_000  // induction records (Quest function 2, seven attrs)
	HotpathProcs   = 4       // induction processor count
	ScanEntries    = 100_000 // gini scan attribute-list length
)

// inductionArchive is the frozen file whose latest run is the guard's
// allocation baseline.
const inductionArchive = "BENCH_induction.json"

// sink defeats dead-code elimination of the benchmarked scans.
var sink float64

// BenchInduction measures one full ScalParC induction (presort + four
// phases, every level) of n Quest records on p simulated ranks — the
// end-to-end figure the arena work targets. Allocation figures are the real
// point: steady-state levels must not allocate per record.
func BenchInduction(b *testing.B, n, p int) {
	tab, err := quest(2, 1, n, 0)
	if err != nil {
		b.Fatal(err)
	}
	w := comm.NewWorld(p, timing.T3D())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scalparc.TrainOpts(w, tab, splitter.Config{}, scalparc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// scanFixture builds the two-class sorted-attribute workload both scan
// benchmarks walk.
func scanFixture(n int) ([]dataset.ContEntry, []int64) {
	rng := rand.New(rand.NewSource(1))
	list := make([]dataset.ContEntry, n)
	hist := []int64{0, 0}
	for i := range list {
		cid := uint8(rng.Intn(2))
		list[i] = dataset.ContEntry{Val: rng.Float64(), Rid: int32(i), Cid: cid}
		hist[cid]++
	}
	return list, hist
}

// BenchGiniScanIncremental measures the production split-point scan: the
// incremental Matrix keeps running partition sizes and integer sums of
// squared class counts, so each candidate is one O(1) BinarySplit.
func BenchGiniScanIncremental(b *testing.B, n int) {
	list, hist := scanFixture(n)
	b.SetBytes(int64(len(list)) * dataset.ContEntrySize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := gini.NewMatrix(hist, nil)
		best := 1.0
		for _, e := range list {
			m.Move(e.Cid)
			if g := m.Split(); g < best {
				best = g
			}
		}
		sink = best
	}
}

// BenchGiniScanNaive measures the formulation the incremental kernel
// replaced — an O(classes) re-summation with per-class divisions at every
// candidate — and is deliberately frozen: its ratio to the incremental scan,
// both measured in one process, is the host-independent kernel speedup.
func BenchGiniScanNaive(b *testing.B, n int) {
	list, hist := scanFixture(n)
	below := make([]int64, len(hist))
	above := make([]int64, len(hist))
	b.SetBytes(int64(len(list)) * dataset.ContEntrySize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range below {
			below[j] = 0
		}
		copy(above, hist)
		best := 1.0
		for _, e := range list {
			below[e.Cid]++
			above[e.Cid]--
			if g := gini.SplitIndex(below, above); g < best {
				best = g
			}
		}
		sink = best
	}
}

// BenchNodeTable measures the distributed node table's update + enquiry
// round trip (the parallel hashing paradigm) for n records on p ranks.
func BenchNodeTable(b *testing.B, n, p int) {
	w := comm.NewWorld(p, timing.T3D())
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *comm.Comm) {
			nt := nodetable.New(c, n)
			defer nt.Free()
			lo, hi := dataset.BlockRange(n, p, c.Rank())
			as := make([]nodetable.Assignment, 0, hi-lo)
			rids := make([]int32, 0, hi-lo)
			for rid := lo; rid < hi; rid++ {
				as = append(as, nodetable.Assignment{Rid: int32(rid), Child: uint8(rid % 2)})
				rids = append(rids, int32(n-1-rid))
			}
			nt.Update(as)
			nt.Lookup(rids)
		})
	}
}

// BenchParallelSort measures the presort (sample sort + block shift) of n
// entries on p ranks.
func BenchParallelSort(b *testing.B, n, p int) {
	rng := rand.New(rand.NewSource(1))
	entries := make([]dataset.ContEntry, n)
	for i := range entries {
		entries[i] = dataset.ContEntry{Val: rng.Float64(), Rid: int32(i)}
	}
	w := comm.NewWorld(p, timing.T3D())
	b.SetBytes(int64(n) * dataset.ContEntrySize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		locals := make([][]dataset.ContEntry, p)
		for r := 0; r < p; r++ {
			lo, hi := dataset.BlockRange(n, p, r)
			locals[r] = append([]dataset.ContEntry(nil), entries[lo:hi]...)
		}
		b.StartTimer()
		w.Run(func(c *comm.Comm) {
			psort.Sort(c, locals[c.Rank()])
		})
	}
}

// BenchMeasure is one benchmark's figures, fresh or in an archived run.
type BenchMeasure struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	NsPerEntry  float64 `json:"ns_per_entry,omitempty"` // scans: NsPerOp / entries
}

// BenchRun is the part of an archived BENCH_induction.json run the guard
// reads: every benchmark's figures, by name.
type BenchRun struct {
	Benchmarks map[string]BenchMeasure `json:"benchmarks"`
}

// measure converts a testing.Benchmark result; entries > 0 adds the
// per-entry figure for scan benchmarks.
func measure(r testing.BenchmarkResult, entries int) BenchMeasure {
	m := BenchMeasure{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if entries > 0 {
		m.NsPerEntry = m.NsPerOp / float64(entries)
	}
	return m
}

// hotpathRun is one fresh measurement of what the guard gates.
type hotpathRun struct {
	induction BenchMeasure
	scanInc   BenchMeasure
	scanNaive BenchMeasure
}

// measureHotpath runs the suite in-process via testing.Benchmark (the
// standard auto-scaling ~1s per benchmark).
func measureHotpath(w io.Writer) hotpathRun {
	var r hotpathRun
	step := func(name string, m *BenchMeasure, entries int, f func(*testing.B)) {
		*m = measure(testing.Benchmark(f), entries)
		if entries > 0 {
			fmt.Fprintf(w, "  %-20s %10.2f ns/entry  %6d B/op  %5d allocs/op\n",
				name, m.NsPerEntry, m.BytesPerOp, m.AllocsPerOp)
		} else {
			fmt.Fprintf(w, "  %-20s %10.0f ns/op  %9d B/op  %7d allocs/op\n",
				name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
		}
	}
	step("Induction", &r.induction, 0, func(b *testing.B) { BenchInduction(b, HotpathRecords, HotpathProcs) })
	step("GiniScanIncremental", &r.scanInc, ScanEntries, func(b *testing.B) { BenchGiniScanIncremental(b, ScanEntries) })
	step("GiniScanNaive", &r.scanNaive, ScanEntries, func(b *testing.B) { BenchGiniScanNaive(b, ScanEntries) })
	return r
}

// Guard thresholds: the kernel must stay >= 2x the naive formulation; a
// fresh induction may allocate at most 20% more often than the archived
// latest run did (allocations are a property of the code, not the host);
// and the archive itself must still show the recorded win over its
// pre-optimization baseline (>= 25% ns, >= 50% allocs — both recorded on
// one host, so directly comparable).
const (
	guardKernelRatio = 2.0
	guardRegress     = 1.20
	guardNsWin       = 0.75
	guardAllocsWin   = 0.50
)

// hotpathChecks applies the guard gates to a fresh measurement against the
// archived induction runs, returning every violated gate. No gate compares
// fresh nanoseconds with archived ones: how fast a different machine was in
// August 2026 says nothing about this code.
func hotpathChecks(fresh hotpathRun, ind *archive[BenchRun]) []error {
	var g gates

	// Gate 1 (host-independent): the incremental kernel beats the frozen
	// naive formulation in this very process.
	if fresh.scanInc.NsPerEntry <= 0 || fresh.scanNaive.NsPerEntry/fresh.scanInc.NsPerEntry < guardKernelRatio {
		g.fail("gini kernel regression: incremental %.2f ns/entry vs naive %.2f ns/entry — ratio %.2fx < %.1fx",
			fresh.scanInc.NsPerEntry, fresh.scanNaive.NsPerEntry,
			fresh.scanNaive.NsPerEntry/fresh.scanInc.NsPerEntry, guardKernelRatio)
	}

	if len(ind.Runs) == 0 {
		g.fail("missing trajectory: %s has no runs", inductionArchive)
		return g.errs
	}
	base, okBase := ind.Runs[0].Benchmarks["Induction"]
	latest, ok := ind.Runs[len(ind.Runs)-1].Benchmarks["Induction"]
	if !ok {
		g.fail("latest archived run lacks Induction figures")
		return g.errs
	}

	// Gate 2 (host-independent): steady-state allocations.
	if float64(fresh.induction.AllocsPerOp) > float64(latest.AllocsPerOp)*guardRegress {
		g.fail("induction allocation regression: %d allocs/op vs recorded %d (>%.0f%%)",
			fresh.induction.AllocsPerOp, latest.AllocsPerOp, (guardRegress-1)*100)
	}

	// Gate 3: the archive itself must still show the win over the
	// pre-optimization baseline (first run in the file).
	if okBase && len(ind.Runs) > 1 {
		if latest.NsPerOp > base.NsPerOp*guardNsWin {
			g.fail("trajectory lost the induction ns win: latest %.0f > %.0f%% of baseline %.0f",
				latest.NsPerOp, guardNsWin*100, base.NsPerOp)
		}
		if float64(latest.AllocsPerOp) > float64(base.AllocsPerOp)*guardAllocsWin {
			g.fail("trajectory lost the induction allocs win: latest %d > %.0f%% of baseline %d",
				latest.AllocsPerOp, guardAllocsWin*100, base.AllocsPerOp)
		}
	}
	return g.errs
}

// HotpathGuard runs and prints GUARD-HOTPATH, the CI regression gate for
// the allocation-free hot paths. It re-measures the suite and returns an
// error — failing CI — when any gate trips; see hotpathChecks.
func HotpathGuard(e *Env) error {
	w := e.Out
	fmt.Fprintln(w, "GUARD-HOTPATH — incremental gini kernel and allocation discipline")
	ind, err := loadArchive[BenchRun](e.BenchDir, inductionArchive)
	if err != nil {
		return err
	}
	fresh := measureHotpath(w)
	if err := guardError(hotpathChecks(fresh, ind), nil); err != nil {
		return err
	}
	fmt.Fprintf(w, "ok: kernel %.2fx naive (gate %.1fx), %d allocs/op (archived %d, gate +%.0f%%)\n",
		fresh.scanNaive.NsPerEntry/fresh.scanInc.NsPerEntry, guardKernelRatio,
		fresh.induction.AllocsPerOp, ind.Runs[len(ind.Runs)-1].Benchmarks["Induction"].AllocsPerOp,
		(guardRegress-1)*100)
	return nil
}
