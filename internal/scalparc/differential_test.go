package scalparc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/sliq"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/tree"
)

// diffProcCounts are the processor counts the differential harness sweeps.
var diffProcCounts = []int{1, 2, 3, 5, 8}

func encodeTree(t *testing.T, tr *tree.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func accuracy(tr *tree.Tree, tab *dataset.Table) float64 {
	pred := tr.PredictTable(tab)
	hits := 0
	for i, c := range tab.Class {
		if pred[i] == int(c) {
			hits++
		}
	}
	return float64(hits) / float64(len(tab.Class))
}

// TestExactMatchesSLIQByteIdentical: on generator datasets, the exact-mode
// parallel tree serialises to exactly the bytes of the serial SLIQ tree for
// every processor count — the strongest form of the paper's "identical to
// the serial tree" claim, covering structure, thresholds, histograms, and
// labels at once.
func TestExactMatchesSLIQByteIdentical(t *testing.T) {
	for _, fn := range []int{1, 2, 6} {
		for _, seed := range []int64{7, 8} {
			tab, err := datagen.Generate(datagen.Config{Function: fn, Attrs: datagen.Seven, Seed: seed}, 600)
			if err != nil {
				t.Fatal(err)
			}
			cfg := splitter.Config{MinSplit: 4}
			oracle, _, _, err := sliq.TrainTraced(tab, cfg, timing.T3D())
			if err != nil {
				t.Fatal(err)
			}
			want := encodeTree(t, oracle)
			for _, p := range diffProcCounts {
				w := comm.NewWorld(p, timing.T3D())
				res, err := TrainOpts(w, tab, cfg, Options{Split: SplitExact})
				if err != nil {
					t.Fatalf("fn=%d seed=%d p=%d: %v", fn, seed, p, err)
				}
				if got := encodeTree(t, res.Tree); !bytes.Equal(got, want) {
					t.Errorf("fn=%d seed=%d p=%d: exact tree bytes differ from SLIQ oracle", fn, seed, p)
				}
			}
		}
	}
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

// TestBinnedTreeProcessorInvariant: the quantile cuts are sampled at fixed
// global positions of the sorted lists, so the binned tree — unlike most
// histogram approximations — must not depend on the processor count.
func TestBinnedTreeProcessorInvariant(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 3}, 700)
	if err != nil {
		t.Fatal(err)
	}
	cfg := splitter.Config{MinSplit: 4}
	var want []byte
	for _, p := range diffProcCounts {
		w := comm.NewWorld(p, timing.T3D())
		res, err := TrainOpts(w, tab, cfg, Options{Split: SplitBinned, Bins: 16})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		got := encodeTree(t, res.Tree)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("p=%d: binned tree bytes differ from p=%d's", p, diffProcCounts[0])
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
	cols := make([][]float64, 2)
	for a := range cols {
		col := make([]float64, n)
		for i := range col {
			col[i] = float64(i % d) // exactly n/d of each value
		}
		rng.Shuffle(n, func(i, j int) { col[i], col[j] = col[j], col[i] })
		cols[a] = col
	}
	tab := dataset.NewTable(s, n)
	for i := 0; i < n; i++ {
		row := []float64{cols[0][i], cols[1][i], float64(rng.Intn(3))}
		cl := 0
		if cols[0][i]+cols[1][i] > float64(d) || rng.Intn(10) == 0 {
			cl = 1
		}
		if err := tab.AppendRow(row, cl); err != nil {
			panic(err)
		}
	}
	return tab
}

// TestBinnedDegeneratesToExact: when every continuous attribute has at most
// B distinct values in equal frequency (d | B), the cuts enumerate the
// distinct values and binned mode must reproduce the exact tree bit for bit
// — the degeneracy anchor that ties the approximation to the oracle. On a
// categorical-heavy input in that regime it must also communicate less.
func TestBinnedDegeneratesToExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := []int{2, 4, 8}[rng.Intn(3)]
		n := d * (8 + rng.Intn(30)) // multiple of d: equal frequencies
		tab := balancedDataset(rng, n, d)
		cfg := splitter.Config{MinSplit: 2 + rng.Intn(6)}
		p := diffProcCounts[rng.Intn(len(diffProcCounts))]

		w := comm.NewWorld(p, timing.T3D())
		exact, err := TrainOpts(w, tab, cfg, Options{})
		if err != nil {
			t.Logf("seed %d: exact: %v", seed, err)
			return false
		}
		w = comm.NewWorld(p, timing.T3D())
		binned, err := TrainOpts(w, tab, cfg, Options{Split: SplitBinned, Bins: 2 * d})
		if err != nil {
			t.Logf("seed %d: binned: %v", seed, err)
			return false
		}
		if !bytes.Equal(encodeTree(t, exact.Tree), encodeTree(t, binned.Tree)) {
			t.Logf("seed %d: binned tree diverged (n=%d d=%d p=%d cfg=%+v)", seed, n, d, p, cfg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}

	// One fixed input where binning must also be cheaper, not just exact:
	// a categorical-heavy table at p=8, whose exact int64 count matrices
	// outweigh binned mode's uint32 histogram slices. The identical tree
	// must cost fewer FindSplitI collectives and fewer FindSplitI bytes.
	const d, p = 8, 8
	tab := categoricalHeavyDataset(12_500, d)
	cfg := splitter.Config{MinSplit: 16}
	exact, err := TrainOpts(comm.NewWorld(p, timing.T3D()), tab, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	binned, err := TrainOpts(comm.NewWorld(p, timing.T3D()), tab, cfg, Options{Split: SplitBinned, Bins: d})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeTree(t, exact.Tree), encodeTree(t, binned.Tree)) {
		t.Error("categorical-heavy table: binned tree with Bins = distinct values differs from exact")
	}
	eSent, eOps := findSplitIComm(exact.Trace)
	bSent, bOps := findSplitIComm(binned.Trace)
	if bOps >= eOps {
		t.Errorf("categorical-heavy table: binned FindSplitI collectives %d >= exact %d", bOps, eOps)
	}
	if bSent >= eSent {
		t.Errorf("categorical-heavy table: binned FindSplitI bytes %d >= exact %d", bSent, eSent)
	}
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
	cols := make([][]float64, 2)
	for a := range cols {
		col := make([]float64, n)
		for i := range col {
			col[i] = float64(i % d)
		}
		rng.Shuffle(n, func(i, j int) { col[i], col[j] = col[j], col[i] })
		cols[a] = col
	}
	tab := dataset.NewTable(s, n)
	for i := 0; i < n; i++ {
		j, k, l := rng.Intn(16), rng.Intn(16), rng.Intn(16)
		cls := 0
		if cols[0][i] > float64(d/2) != (j < 8) || rng.Intn(12) == 0 {
			cls = 1
		}
		if err := tab.AppendRow([]float64{cols[0][i], cols[1][i], float64(j), float64(k), float64(l)}, cls); err != nil {
			panic(err)
		}
	}
	return tab
}

// findSplitIComm totals a run's FindSplitI traffic over every rank and
// level: bytes sent (the bandwidth term) and communication operations (the
// latency term).
func findSplitIComm(tr *trace.Trace) (sent, ops int64) {
	for _, rt := range tr.Ranks {
		for _, b := range rt.Buckets() {
			if b.Phase == trace.FindSplitI {
				sent += b.BytesSent
				ops += b.Ops
			}
		}
	}
	return sent, ops
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
