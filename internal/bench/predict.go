// GUARD-PREDICT: the compiled batch-inference engine's benchmark bodies and
// their CI regression gate.
//
// Mirrors hotpath.go's pattern: the benchmark bodies are exported so the
// root bench_test.go benchmarks and the guard (-exp predictguard) measure
// exactly the same code. The frozen naive body reproduces the pre-engine
// tree.PredictTable — per row, every attribute re-gathered through
// Table.Value, then a pointer walk — and is the baseline the >= 4x gate
// holds the compiled engine to, both measured in one process. The engine's
// speed on a host is benchmark/'s to measure (infer.table_ns_per_row,
// infer.rows_ns_per_row).
package bench

import (
	"fmt"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/tree"
)

// The fixed GUARD-PREDICT workload: a tree trained on PredictTrainRows noisy
// Quest records classifies a PredictRows-row table (generated with a
// different seed, so the tree routes genuinely unseen rows). The label
// noise matters: it grows the tree to production scale (~160k nodes, depth
// ~85, a ~3.9MB flat table vs ~30MB of scattered pointer nodes) where the
// working set no longer fits in cache and layout decides throughput — a
// noise-free Quest tree has ~27 nodes and measures nothing.
const (
	PredictRows       = 1_000_000
	PredictTrainRows  = 400_000
	PredictTrainNoise = 0.2
)

// sinkInt defeats dead-code elimination of the benchmarked predictions.
var sinkInt int

type predictFixture struct {
	tree  *tree.Tree
	model *infer.Model
	tab   *dataset.Table
}

// The fixture is expensive (train 400k records, generate 1M) and immutable;
// build it once per process regardless of how many benchmarks sample it.
var getPredictFixture = sync.OnceValues(func() (*predictFixture, error) {
	tr, err := questTree(2, 1, PredictTrainRows, PredictTrainNoise)
	if err != nil {
		return nil, err
	}
	m, err := infer.Compile(tr)
	if err != nil {
		return nil, err
	}
	tab, err := quest(2, 2, PredictRows, 0)
	if err != nil {
		return nil, err
	}
	return &predictFixture{tree: tr, model: m, tab: tab}, nil
})

// mustPredictFixture returns the fixture for a benchmark over its first
// rows rows.
func mustPredictFixture(b *testing.B, rows int) *predictFixture {
	b.Helper()
	fix, err := getPredictFixture()
	if err != nil {
		b.Fatal(err)
	}
	if rows > fix.tab.NumRows() {
		b.Fatalf("fixture has %d rows; %d requested", fix.tab.NumRows(), rows)
	}
	return fix
}

// BenchPredictNaive measures the frozen pre-engine PredictTable body. It is
// deliberately never optimized: its ratio to the compiled engine is the
// host-independent speedup GUARD-PREDICT pins.
func BenchPredictNaive(b *testing.B, rows int) {
	fix := mustPredictFixture(b, rows)
	tab := fix.tab
	out := make([]int, rows)
	row := make([]float64, tab.Schema.NumAttrs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range out {
			for a := range row {
				row[a] = tab.Value(a, r)
			}
			out[r] = fix.tree.Predict(row)
		}
	}
	sinkInt = out[0]
}

// BenchPredictWalk measures the hoisted pointer walker — the differential
// oracle — with columns hoisted once per table.
func BenchPredictWalk(b *testing.B, rows int) {
	fix := mustPredictFixture(b, rows)
	tab := fix.tab.Slice(0, rows)
	out := make([]int, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fix.tree.PredictTableWalk(tab, out)
	}
	sinkInt = out[0]
}

// BenchPredictCompiled measures the production path: the flat
// struct-of-arrays table walked in record batches across the worker pool.
func BenchPredictCompiled(b *testing.B, rows int) {
	fix := mustPredictFixture(b, rows)
	tab := fix.tab.Slice(0, rows)
	out := make([]int, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fix.model.PredictTableInto(tab, out); err != nil {
			b.Fatal(err)
		}
	}
	sinkInt = out[0]
}

// predictGuardRatio is GUARD-PREDICT's threshold: the compiled engine must
// classify the 1M-row table >= 4x faster than the frozen pre-engine walk.
const predictGuardRatio = 4.0

// measurePredict times the frozen naive body and the compiled engine over
// the whole fixture table and returns their ns/row.
func measurePredict(w io.Writer) (naive, compiled float64) {
	step := func(name string, f func(*testing.B)) float64 {
		m := measure(testing.Benchmark(f), PredictRows)
		fmt.Fprintf(w, "  %-16s %8.2f ns/row  %8.2f Mrows/s  %9d B/op  %5d allocs/op\n",
			name, m.NsPerEntry, 1e3/m.NsPerEntry, m.BytesPerOp, m.AllocsPerOp)
		return m.NsPerEntry
	}
	naive = step("PredictNaive", func(b *testing.B) { BenchPredictNaive(b, PredictRows) })
	compiled = step("PredictCompiled", func(b *testing.B) { BenchPredictCompiled(b, PredictRows) })
	return naive, compiled
}

// predictDifferential verifies bit-identical labels: the full 1M-row table
// through the batch engine vs the pointer walker, plus adversarial rows
// (NaN, ±Inf, out-of-domain categorical codes) through the single-row
// paths.
func predictDifferential(w io.Writer) error {
	fix, err := getPredictFixture()
	if err != nil {
		return err
	}
	want := make([]int, fix.tab.NumRows())
	fix.tree.PredictTableWalk(fix.tab, want)
	got := make([]int, fix.tab.NumRows())
	if err := fix.model.PredictTableInto(fix.tab, got); err != nil {
		return err
	}
	for r := range want {
		if got[r] != want[r] {
			return fmt.Errorf("label mismatch at row %d: compiled=%d walker=%d", r, got[r], want[r])
		}
	}
	nattrs := fix.tab.Schema.NumAttrs()
	adversarial := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -7.5, 1e18, 254, 255, 3.7}
	row := make([]float64, nattrs)
	for i, v := range adversarial {
		for a := 0; a < nattrs; a++ {
			row[a] = fix.tab.Value(a, i)
		}
		for a := 0; a < nattrs; a++ {
			row[a] = v
			if cw, ww := fix.model.Predict(row), fix.tree.Predict(row); cw != ww {
				return fmt.Errorf("adversarial value %v at attr %d: compiled=%d walker=%d", v, a, cw, ww)
			}
		}
	}
	fmt.Fprintf(w, "  labels identical: %d rows + %d adversarial probes\n",
		len(want), len(adversarial)*nattrs)
	return nil
}

// PredictGuard runs and prints GUARD-PREDICT, the CI regression gate for
// the compiled batch-inference engine. It verifies bit-identical labels and
// then measures the engine against the frozen naive walk in this process,
// returning an error — failing CI — when the speedup falls under the gate.
func PredictGuard(e *Env) error {
	w := e.Out
	fmt.Fprintln(w, "GUARD-PREDICT — compiled batch inference vs the pointer walk")
	if err := predictDifferential(w); err != nil {
		return err
	}
	naive, compiled := measurePredict(w)
	if compiled <= 0 || naive/compiled < predictGuardRatio {
		return fmt.Errorf("compiled predictor regression: %.2f ns/row vs naive %.2f ns/row — %.2fx < %.1fx",
			compiled, naive, naive/compiled, predictGuardRatio)
	}
	fmt.Fprintf(w, "ok: compiled %.2fx the frozen naive walk at %d rows (gate %.1fx), labels identical\n",
		naive/compiled, PredictRows, predictGuardRatio)
	return nil
}
