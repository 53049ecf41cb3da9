package scalparc

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/tree"
)

// encoded is a tree's or a forest's model document.
func encoded(t testing.TB, model interface{ Encode(io.Writer) error }) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := model.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// accuracy is the share of the table's rows tr labels right.
func accuracy(tr *tree.Tree, tab *dataset.Table) float64 {
	return labelAccuracy(tr.PredictTable(tab), tab)
}

// TestBinnedAccuracyNearExact: binned split finding is an approximation, but
// with the default bin budget its held-out accuracy must stay within one
// percentage point of the exact tree's.
func TestBinnedAccuracyNearExact(t *testing.T) {
	for _, fn := range []int{1, 2} {
		tab, err := datagen.Generate(datagen.Config{Function: fn, Attrs: datagen.Seven, Seed: 42, Perturbation: 0.05}, 2400)
		if err != nil {
			t.Fatal(err)
		}
		train, test := tab.Split(0.75)
		cfg := splitter.Config{MinSplit: 8}

		w := comm.NewWorld(4, timing.T3D())
		exact, err := TrainOpts(w, train, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, bins := range []int{64, DefaultBins} {
			w := comm.NewWorld(4, timing.T3D())
			binned, err := TrainOpts(w, train, cfg, Options{Split: SplitBinned, Bins: bins})
			if err != nil {
				t.Fatal(err)
			}
			accE := accuracy(exact.Tree, test)
			accB := accuracy(binned.Tree, test)
			if math.Abs(accE-accB) > 0.01 {
				t.Errorf("fn=%d B=%d: binned accuracy %.4f vs exact %.4f (gap > 1%%)", fn, bins, accB, accE)
			}
		}
	}
}

// balancedDataset builds a table whose continuous attributes each carry d
// distinct values in equal frequency (n/d records per value, shuffled), plus
// one categorical attribute. When d divides the bin budget, every value-run
// boundary of the sorted order lands exactly on a quantile cut position, so
// the binned candidate set induces the same partitions (with the same
// minimal thresholds) as the exact scan.
func balancedDataset(rng *rand.Rand, n, d int) *dataset.Table {
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "y", Kind: dataset.Continuous},
			{Name: "k", Kind: dataset.Categorical, Values: []string{"a", "b", "c"}},
		},
		Classes: []string{"C0", "C1"},
	}
	x, y := equalFrequency(rng, n, d), equalFrequency(rng, n, d)
	return handTable(s, n, func(i int) ([]float64, int) {
		row := []float64{x[i], y[i], float64(rng.Intn(3))}
		if x[i]+y[i] > float64(d) || rng.Intn(10) == 0 {
			return row, 1
		}
		return row, 0
	})
}

// equalFrequency is a shuffled column of n values with exactly n/d of each
// of 0..d-1.
func equalFrequency(rng *rand.Rand, n, d int) []float64 {
	col := make([]float64, n)
	for i := range col {
		col[i] = float64(i % d)
	}
	rng.Shuffle(n, func(i, j int) { col[i], col[j] = col[j], col[i] })
	return col
}

// categoricalHeavyDataset builds binned mode's cheapest home: two
// continuous attributes with d distinct values in exactly equal frequency
// (so with Bins = d the binned tree equals the exact tree), plus three
// cardinality-16 categorical attributes whose count matrices dominate the
// exact path's FindSplitI volume. Deterministic: one fixed seed.
func categoricalHeavyDataset(n, d int) *dataset.Table {
	cat := func(name string) dataset.Attribute {
		vals := make([]string, 16)
		for v := range vals {
			vals[v] = fmt.Sprintf("%s%d", name, v)
		}
		return dataset.Attribute{Name: name, Kind: dataset.Categorical, Values: vals}
	}
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "y", Kind: dataset.Continuous},
			cat("j"), cat("k"), cat("l"),
		},
		Classes: []string{"C0", "C1"},
	}
	rng := rand.New(rand.NewSource(17))
	x, y := equalFrequency(rng, n, d), equalFrequency(rng, n, d)
	return handTable(s, n, func(i int) ([]float64, int) {
		j, k, l := rng.Intn(16), rng.Intn(16), rng.Intn(16)
		row := []float64{x[i], y[i], float64(j), float64(k), float64(l)}
		if x[i] > float64(d/2) != (j < 8) || rng.Intn(12) == 0 {
			return row, 1
		}
		return row, 0
	})
}

// TestBinnedRandomDatasets: binned mode must induce a structurally valid
// tree (histogram invariants, conservation of records) on the same random
// schema/data mix the exact oracle property uses — including pure
// categorical schemas, heavy duplication, and tiny node counts.
func TestBinnedRandomDatasets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := randomDataset(rng)
		cfg := splitter.Config{MaxDepth: rng.Intn(6), MinSplit: rng.Intn(8)}
		p := 1 + rng.Intn(7)
		w := comm.NewWorld(p, timing.T3D())
		res, err := TrainOpts(w, tab, cfg, Options{Split: SplitBinned, Bins: 2 + rng.Intn(31)})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Every record must land in exactly one leaf.
		var leafTotal int64
		stack := []*tree.Node{res.Tree.Root}
		for len(stack) > 0 {
			nd := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if nd.Leaf {
				leafTotal += nd.Size()
				continue
			}
			stack = append(stack, nd.Children...)
		}
		if leafTotal != int64(tab.NumRows()) {
			t.Logf("seed %d: leaves hold %d of %d records", seed, leafTotal, tab.NumRows())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsValidation pins the Split/Bins configuration errors.
func TestSplitOptionsValidation(t *testing.T) {
	tab := balancedDataset(rand.New(rand.NewSource(1)), 40, 4)
	cases := []struct {
		opts Options
		ok   bool
	}{
		{Options{}, true},
		{Options{Split: SplitBinned}, true},           // Bins defaults
		{Options{Split: SplitBinned, Bins: 2}, true},  // minimum
		{Options{Bins: 64}, false},                    // Bins without binned
		{Options{Split: SplitBinned, Bins: 1}, false}, // too few
		{Options{Split: SplitBinned, Bins: 70000}, false},
		{Options{Split: SplitVote}, true},                     // Bins and VoteK default
		{Options{Split: SplitVote, Bins: 16, VoteK: 2}, true}, // explicit
		{Options{VoteK: 4}, false},                            // VoteK without vote
		{Options{Split: SplitBinned, VoteK: 4}, false},        // VoteK without vote
		{Options{Split: SplitVote, VoteK: -1}, false},         // out of range
		{Options{Split: SplitVote, VoteK: 70000}, false},      // out of range
		{Options{Split: SplitVote, Bins: 1}, false},           // vote shares Bins bounds
		{Options{Split: SplitStrategy(9)}, false},
	}
	for _, tc := range cases {
		w := comm.NewWorld(2, timing.T3D())
		_, err := TrainOpts(w, tab, splitter.Config{}, tc.opts)
		if (err == nil) != tc.ok {
			t.Errorf("opts %+v: err=%v, want ok=%v", tc.opts, err, tc.ok)
		}
	}
	for _, s := range []SplitStrategy{SplitExact, SplitBinned, SplitVote} {
		got, err := ParseSplitStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSplitStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseSplitStrategy("nope"); err == nil {
		t.Error("ParseSplitStrategy accepted junk")
	}
	_ = fmt.Sprintf("%v", SplitStrategy(9)) // String's default arm
}
