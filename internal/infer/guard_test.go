package infer

import (
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/tree"
)

// The GUARD-PREDICT workload: a tree trained on predictTrainRows noisy
// Quest records classifies a predictRows-row table generated with another
// seed, so the tree routes unseen rows. The label noise grows the tree to
// production scale (~160k nodes, depth ~85, a ~3.9MB flat table vs ~30MB
// of scattered pointer nodes), where the working set no longer fits in
// cache and layout decides throughput; a noise-free Quest tree has ~27
// nodes and measures nothing.
const (
	predictRows       = 1_000_000
	predictTrainRows  = 400_000
	predictTrainNoise = 0.2
	// predictRatio is GUARD-PREDICT's gate: the compiled engine classifies
	// the table at least this many times faster than the frozen naive walk.
	predictRatio = 4.0
)

// sinkInt defeats dead-code elimination of the benchmarked predictions.
var sinkInt int

type predictFixture struct {
	tree  *tree.Tree
	model *Model
	tab   *dataset.Table
}

// The fixture is expensive (train 400k records, generate 1M) and immutable;
// it is built once per process however many benchmarks sample it.
var getPredictFixture = sync.OnceValues(func() (*predictFixture, error) {
	quest := func(seed int64, n int, noise float64) (*dataset.Table, error) {
		return datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: seed, LabelNoise: noise}, n)
	}
	train, err := quest(1, predictTrainRows, predictTrainNoise)
	if err != nil {
		return nil, err
	}
	tr, err := serial.Train(train, splitter.Config{})
	if err != nil {
		return nil, err
	}
	m, err := Compile(tr)
	if err != nil {
		return nil, err
	}
	tab, err := quest(2, predictRows, 0)
	if err != nil {
		return nil, err
	}
	return &predictFixture{tree: tr, model: m, tab: tab}, nil
})

func mustPredictFixture(tb testing.TB) *predictFixture {
	tb.Helper()
	fix, err := getPredictFixture()
	if err != nil {
		tb.Fatal(err)
	}
	return fix
}

// BenchmarkPredictNaive is the frozen pre-engine tree.PredictTable body:
// per row, every attribute re-gathered through Table.Value, then a pointer
// walk. It is never optimized: its ratio to BenchmarkPredict is the
// host-independent speedup GUARD-PREDICT pins.
func BenchmarkPredictNaive(b *testing.B) {
	fix := mustPredictFixture(b)
	tab := fix.tab
	out := make([]int, tab.NumRows())
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

// BenchmarkPredictWalk is the hoisted pointer walker — the engine's
// differential oracle — with columns hoisted once per table.
func BenchmarkPredictWalk(b *testing.B) {
	fix := mustPredictFixture(b)
	out := make([]int, fix.tab.NumRows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fix.tree.PredictTableWalk(fix.tab, out)
	}
	sinkInt = out[0]
}

// BenchmarkPredict is the production path: the flat struct-of-arrays table
// walked in record batches across the worker pool.
func BenchmarkPredict(b *testing.B) {
	fix := mustPredictFixture(b)
	out := make([]int, fix.tab.NumRows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fix.model.PredictTableInto(fix.tab, out); err != nil {
			b.Fatal(err)
		}
	}
	sinkInt = out[0]
}

// TestGuardPredict is GUARD-PREDICT (make guard). First the labels: the
// whole 1M-row table through the batch engine vs the pointer walker, plus
// adversarial rows (NaN, ±Inf, out-of-domain categorical codes) through the
// single-row paths, all bit-identical. Then the clock: the compiled engine
// at least predictRatio times the frozen naive walk, both timed in this
// process. It skips unless GUARD=1.
func TestGuardPredict(t *testing.T) {
	if os.Getenv("GUARD") != "1" {
		t.Skip("clock gate: runs under GUARD=1 (make guard)")
	}
	fix := mustPredictFixture(t)
	want := make([]int, fix.tab.NumRows())
	fix.tree.PredictTableWalk(fix.tab, want)
	got := make([]int, fix.tab.NumRows())
	if err := fix.model.PredictTableInto(fix.tab, got); err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("label mismatch at row %d: compiled=%d walker=%d", r, got[r], want[r])
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
				t.Fatalf("adversarial value %v at attr %d: compiled=%d walker=%d", v, a, cw, ww)
			}
		}
	}
	t.Logf("labels identical: %d rows + %d adversarial probes", len(want), len(adversarial)*nattrs)

	nsPerRow := func(f func(*testing.B)) float64 {
		r := testing.Benchmark(f)
		return float64(r.T.Nanoseconds()) / float64(r.N) / predictRows
	}
	naive, compiled := nsPerRow(BenchmarkPredictNaive), nsPerRow(BenchmarkPredict)
	t.Logf("naive %.2f ns/row, compiled %.2f ns/row: %.2fx (gate %.1fx)", naive, compiled, naive/compiled, predictRatio)
	if compiled <= 0 || naive/compiled < predictRatio {
		t.Fatalf("compiled predictor regression: %.2f ns/row vs naive %.2f ns/row — %.2fx < %.1fx",
			compiled, naive, naive/compiled, predictRatio)
	}
}
