package infer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/splitter"
)

// TestPredictRowsMatchesWalker checks the row-major serving kernel against
// the pointer walker on a trained tree, across batch-boundary row counts.
func TestPredictRowsMatchesWalker(t *testing.T) {
	tr, tab := trainedFixture(t, 5000, splitter.Config{})
	m, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 37, batchRows, batchRows + 1, 2000} {
		rows := make([][]float64, n)
		want := make([]int, n)
		for i := 0; i < n; i++ {
			rows[i] = tab.Row(i)
			want[i] = tr.Predict(rows[i])
		}
		got := make([]int, n)
		if err := m.PredictRowsInto(rows, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d row %d: rows-kernel=%d walker=%d", n, i, got[i], want[i])
			}
		}
	}
}

// TestPredictRowsUntrustedValues feeds the serving kernel the adversarial
// inputs a request decoder can let through — NaN, ±Inf, out-of-domain and
// fractional categorical codes — and requires bit-equality with the walker
// (the majority-branch rule pinned in the fallback tests).
func TestPredictRowsUntrustedValues(t *testing.T) {
	tr := fallbackTree()
	m, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -7.5, 1e18, 254, 2.9, 1.2, 0, 1, 2}
	var rows [][]float64
	for _, a := range vals {
		for _, b := range vals {
			rows = append(rows, []float64{a, b})
		}
	}
	out := make([]int, len(rows))
	if err := m.PredictRowsInto(rows, out); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if want := tr.Predict(row); out[i] != want {
			t.Fatalf("row %v: rows-kernel=%d walker=%d", row, out[i], want)
		}
	}
}

func TestPredictRowsRejectsMalformed(t *testing.T) {
	m, err := Compile(fallbackTree())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PredictRowsInto(make([][]float64, 2), make([]int, 3)); err == nil {
		t.Fatal("wrong out length accepted")
	}
	if err := m.PredictRowsInto([][]float64{{1, 2, 3}}, make([]int, 1)); err == nil {
		t.Fatal("wrong row width accepted")
	}
	if err := m.PredictRowsInto([][]float64{{1, 1}, nil}, make([]int, 2)); err == nil {
		t.Fatal("nil row accepted")
	}
}

// TestScratchPoolBalancedOnErrorPaths is the regression test for the pooled
// accessor scratch: every PredictTableInto error path must return before
// the scratch is acquired, so erroring calls leave the get/put counters
// untouched and successful calls leave them balanced.
func TestScratchPoolBalancedOnErrorPaths(t *testing.T) {
	tr, tab := trainedFixture(t, 1000, splitter.Config{})
	m, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	g0, p0 := ScratchBalance()

	// Error paths: wrong out length and an incompatible schema.
	for i := 0; i < 50; i++ {
		if err := m.PredictTableInto(tab, make([]int, tab.NumRows()+1)); err == nil {
			t.Fatal("wrong out length accepted")
		}
	}
	other := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "only", Kind: dataset.Continuous}},
		Classes: []string{"A", "B"},
	}
	if err := m.PredictTableInto(dataset.NewTable(other, 0), []int{}); err == nil {
		t.Fatal("incompatible schema accepted")
	}
	if g, p := ScratchBalance(); g != g0 || p != p0 {
		t.Fatalf("error paths touched the scratch pool: gets %d->%d, puts %d->%d", g0, g, p0, p)
	}

	// Success paths (serial and worker-pool) keep the counters balanced.
	out := make([]int, tab.NumRows())
	for i := 0; i < 20; i++ {
		if err := m.PredictTableInto(tab, out); err != nil {
			t.Fatal(err)
		}
	}
	big := dataset.NewTable(tab.Schema, 2*minParallelRows)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2*minParallelRows; i++ {
		if err := big.AppendRow(tab.Row(rng.Intn(tab.NumRows())), 0); err != nil {
			t.Fatal(err)
		}
	}
	bigOut := make([]int, big.NumRows())
	if err := m.PredictTableInto(big, bigOut); err != nil {
		t.Fatal(err)
	}
	g, p := ScratchBalance()
	if g != p {
		t.Fatalf("scratch pool unbalanced after success paths: %d gets, %d puts", g, p)
	}
	if g == g0 {
		t.Fatal("success paths never used the scratch pool")
	}
}

// TestPredictTableIntoSteadyStateAllocs pins the point of the pool: after
// warmup, classifying a table allocates nothing per call.
func TestPredictTableIntoSteadyStateAllocs(t *testing.T) {
	tr, tab := trainedFixture(t, 2000, splitter.Config{})
	m, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, tab.NumRows())
	if err := m.PredictTableInto(tab, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := m.PredictTableInto(tab, out); err != nil {
			t.Fatal(err)
		}
	})
	// The pre-pool body allocated 2 objects per call; a GC emptying the
	// pool mid-run can legitimately cost a fraction of an object, so the
	// gate sits at 1.
	if allocs >= 1 {
		t.Fatalf("steady-state PredictTableInto allocates %.1f objects per call, want ~0", allocs)
	}
}
