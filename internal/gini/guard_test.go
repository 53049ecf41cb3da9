package gini

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/dataset"
)

// scanEntries is the length of the sorted attribute list both scans walk.
const scanEntries = 100_000

// scanKernelRatio is GUARD-HOTPATH's kernel gate: the incremental scan must
// stay at least this many times faster than the frozen naive scan.
const scanKernelRatio = 2.0

// sink defeats dead-code elimination of the benchmarked scans.
var sink float64

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

// BenchmarkGiniScan is the production FindSplitII split-point scan: the
// running partition sizes and integer sums of squared class counts live in
// a local Sums that Step advances past each entry, so each candidate is
// one O(1) Sums.Split.
func BenchmarkGiniScan(b *testing.B) {
	list, hist := scanFixture(scanEntries)
	b.SetBytes(int64(len(list)) * dataset.ContEntrySize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMatrix(hist, nil)
		s := m.Sums()
		best := 1.0
		for _, e := range list {
			s = m.Step(s, e.Cid)
			if g := s.Split(); g < best {
				best = g
			}
		}
		sink = best
	}
}

// BenchmarkGiniScanNaive is the formulation the incremental kernel
// replaced — an O(classes) re-summation with per-class divisions at every
// candidate — and is deliberately frozen: its ratio to BenchmarkGiniScan,
// both measured in one process, is the host-independent kernel speedup.
func BenchmarkGiniScanNaive(b *testing.B) {
	list, hist := scanFixture(scanEntries)
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
			if g := SplitIndex(below, above); g < best {
				best = g
			}
		}
		sink = best
	}
}

// TestGuardScanKernel is GUARD-HOTPATH's kernel gate (make guard): both
// scans timed in this process, the incremental one at least scanKernelRatio
// times faster. It needs a clock, so it skips unless GUARD=1.
func TestGuardScanKernel(t *testing.T) {
	if os.Getenv("GUARD") != "1" {
		t.Skip("clock gate: runs under GUARD=1 (make guard)")
	}
	nsPerEntry := func(f func(*testing.B)) float64 {
		r := testing.Benchmark(f)
		return float64(r.T.Nanoseconds()) / float64(r.N) / scanEntries
	}
	inc, naive := nsPerEntry(BenchmarkGiniScan), nsPerEntry(BenchmarkGiniScanNaive)
	t.Logf("incremental %.2f ns/entry, naive %.2f ns/entry: %.2fx (gate %.1fx)", inc, naive, naive/inc, scanKernelRatio)
	if inc <= 0 || naive/inc < scanKernelRatio {
		t.Fatalf("gini kernel regression: incremental %.2f ns/entry vs naive %.2f ns/entry — ratio %.2fx < %.1fx",
			inc, naive, naive/inc, scanKernelRatio)
	}
}
