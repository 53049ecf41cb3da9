// EXP-PREDICT: the compiled batch-inference engine's benchmarks and their
// JSON perf trajectory.
//
// Mirrors hotpath.go's pattern: the benchmark bodies are exported so the
// root bench_test.go benchmarks, the BENCH_predict.json emitter
// (benchrunner -exp predict), and the CI regression guard (-exp
// predictguard, GUARD-PREDICT) all measure exactly the same code. The
// frozen naive body reproduces the pre-engine tree.PredictTable — per row,
// every attribute re-gathered through Table.Value, then a pointer walk —
// and is the baseline the >= 4x gate holds the compiled engine to.
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

// The fixed EXP-PREDICT workload: a tree trained on PredictTrainRows noisy
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

// predictFile is the checked-in EXP-PREDICT trajectory.
var predictFile = trajectoryFile{"BENCH_predict.json", "EXP-PREDICT", "EXP-PREDICT trajectory: classify a 1M-row Quest table with a ~160k-node tree trained on 400k noisy records — the frozen pre-engine PredictTable (naive), the hoisted pointer walker (the oracle), and the compiled flat-table batch engine. Append-only; the compiled/naive ratio is the recorded speedup GUARD-PREDICT pins."}

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
// deliberately never optimized: like BenchGiniScanNaive it doubles as the
// guard's host-speed probe, and its ratio to the compiled engine is the
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

// predictRun is one fresh measurement of the EXP-PREDICT suite.
type predictRun struct {
	naive    BenchMeasure
	walk     BenchMeasure
	compiled BenchMeasure
}

func (r predictRun) speedup() float64 {
	if r.compiled.NsPerEntry <= 0 {
		return 0
	}
	return r.naive.NsPerEntry / r.compiled.NsPerEntry
}

func measurePredict(w io.Writer) (predictRun, error) {
	if _, err := getPredictFixture(); err != nil {
		return predictRun{}, err
	}
	var r predictRun
	step := func(name string, m *BenchMeasure, f func(*testing.B)) {
		*m = measure(testing.Benchmark(f), PredictRows)
		fmt.Fprintf(w, "  %-16s %8.2f ns/row  %8.2f Mrows/s  %9d B/op  %5d allocs/op\n",
			name, m.NsPerEntry, 1e3/m.NsPerEntry, m.BytesPerOp, m.AllocsPerOp)
	}
	step("PredictNaive", &r.naive, func(b *testing.B) { BenchPredictNaive(b, PredictRows) })
	step("PredictWalk", &r.walk, func(b *testing.B) { BenchPredictWalk(b, PredictRows) })
	step("PredictCompiled", &r.compiled, func(b *testing.B) { BenchPredictCompiled(b, PredictRows) })
	return r, nil
}

// Predict runs and records EXP-PREDICT: it measures the suite and appends
// a labeled run to e.BenchDir's BENCH_predict.json, printing the trajectory.
func Predict(e *Env) error {
	w := e.Out
	fmt.Fprintln(w, "EXP-PREDICT — compiled batch inference (appending to BENCH_predict.json)")
	run, err := measurePredict(w)
	if err != nil {
		return err
	}
	_, err = record(w, e.BenchDir, predictFile, BenchRun{newHostMeta(e.Label), map[string]BenchMeasure{
		"PredictNaive":    run.naive,
		"PredictWalk":     run.walk,
		"PredictCompiled": run.compiled,
	}}, fmt.Sprintf("compiled speedup this run: %.2fx over the frozen naive walk\ntrajectory (ns/row naive|walk|compiled):", run.speedup()),
		func(_ int, r *BenchRun) string {
			bm := r.Benchmarks
			return fmt.Sprintf("  %6.2f|%6.2f|%6.2f ns/row",
				bm["PredictNaive"].NsPerEntry, bm["PredictWalk"].NsPerEntry, bm["PredictCompiled"].NsPerEntry)
		})
	return err
}

// GUARD-PREDICT thresholds: the compiled engine must classify the 1M-row
// table >= 4x faster than the frozen pre-engine walk with bit-identical
// labels; a fresh measurement may regress at most 20% against the
// checked-in latest run (host-normalized by the frozen naive probe); and
// the checked-in trajectory itself must preserve the recorded >= 4x win.
const (
	predictGuardRatio   = 4.0
	predictGuardRegress = 1.20
)

func predictChecks(fresh predictRun, f *trajectory[BenchRun]) []error {
	var g gates

	// Gate 1 (host-independent): fresh compiled vs fresh frozen naive.
	if s := fresh.speedup(); s < predictGuardRatio {
		g.fail("compiled predictor regression: %.2f ns/row vs naive %.2f ns/row — %.2fx < %.1fx",
			fresh.compiled.NsPerEntry, fresh.naive.NsPerEntry, s, predictGuardRatio)
	}

	latest := f.Latest()
	if latest == nil {
		g.fail("missing trajectory: %s has no runs", predictFile.name)
		return g.errs
	}
	recNaive, okN := latest.Benchmarks["PredictNaive"]
	recCompiled, okC := latest.Benchmarks["PredictCompiled"]
	if !okN || !okC {
		g.fail("latest trajectory run lacks PredictNaive or PredictCompiled figures")
		return g.errs
	}

	// Gate 2: the checked-in trajectory must itself record the win.
	if recCompiled.NsPerEntry <= 0 || recNaive.NsPerEntry/recCompiled.NsPerEntry < predictGuardRatio {
		g.fail("trajectory lost the predict win: recorded %.2fx < %.1fx",
			recNaive.NsPerEntry/recCompiled.NsPerEntry, predictGuardRatio)
	}

	// Gate 3: ns/row vs the recorded latest run, normalized by how fast
	// this host runs the frozen naive body relative to the recording host.
	g.withinHost("compiled predictor", "ns/row", fresh.compiled.NsPerEntry, recCompiled.NsPerEntry,
		hostFactor(fresh.naive.NsPerEntry, recNaive.NsPerEntry), predictGuardRegress, false)
	return g.errs
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
// the compiled batch-inference engine. It verifies bit-identical labels
// and re-measures the suite, returning an error — failing CI — when any
// gate trips; see predictChecks.
func PredictGuard(e *Env) error {
	w := e.Out
	fmt.Fprintln(w, "GUARD-PREDICT — compiled batch inference vs the pointer walk")
	f, err := loadTrajectory[BenchRun](e.BenchDir, predictFile)
	if err != nil {
		return err
	}
	if err := predictDifferential(w); err != nil {
		return err
	}
	fresh, err := measurePredict(w)
	if err != nil {
		return err
	}
	if err := guardError(predictChecks(fresh, f), nil); err != nil {
		return err
	}
	fmt.Fprintf(w, "ok: compiled %.2fx the frozen naive walk at %d rows (gate %.1fx), labels identical\n",
		fresh.speedup(), PredictRows, predictGuardRatio)
	return nil
}
