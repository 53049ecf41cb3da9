package infer

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/tree"
)

func trainedFixture(t testing.TB, n int, cfg splitter.Config) (*tree.Tree, *dataset.Table) {
	t.Helper()
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 1}, n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := serial.Train(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, tab
}

// TestCompiledMatchesWalker is the differential harness's core case: on a
// trained tree, the compiled engine and the pointer walker must agree on
// every row — via the batch table path, the single-row path, and
// tree.PredictTable (the walker by another name).
func TestCompiledMatchesWalker(t *testing.T) {
	for _, cfg := range []splitter.Config{
		{},
		{CategoricalBinary: true},
		{MaxDepth: 3},
	} {
		tr, tab := trainedFixture(t, 5000, cfg)
		m, err := Compile(tr)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, tab.NumRows())
		tr.PredictTableWalk(tab, want)
		got, err := m.PredictTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		routed := tr.PredictTable(tab)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("cfg %+v row %d: compiled=%d walker=%d", cfg, r, got[r], want[r])
			}
			if routed[r] != want[r] {
				t.Fatalf("cfg %+v row %d: PredictTable=%d walker=%d", cfg, r, routed[r], want[r])
			}
			if p := m.Predict(tab.Row(r)); p != want[r] {
				t.Fatalf("cfg %+v row %d: Predict=%d walker=%d", cfg, r, p, want[r])
			}
		}
	}
}

// TestCompiledParallelPath forces the worker pool on and checks the fanned
// out batch walk against the serial walker.
func TestCompiledParallelPath(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	tr, tab := trainedFixture(t, 3*minParallelRows, splitter.Config{})
	m, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, tab.NumRows())
	tr.PredictTableWalk(tab, want)
	got, err := m.PredictTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("row %d: compiled=%d walker=%d", r, got[r], want[r])
		}
	}
}

func fallbackSchema() *dataset.Schema {
	return &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "c", Kind: dataset.Categorical, Values: []string{"a", "b", "c"}},
		},
		Classes: []string{"A", "B", "C"},
	}
}

// fallbackTree splits continuous x at the root, then categorical c both
// m-way (left) and as a subset (right), with asymmetric child histograms
// so the majority branch is distinguishable at every node.
func fallbackTree() *tree.Tree {
	return &tree.Tree{
		Schema: fallbackSchema(),
		Root: &tree.Node{
			Hist: []int64{6, 8, 2},
			Attr: 0, Kind: dataset.Continuous, Threshold: 1.5,
			Children: []*tree.Node{
				{
					Hist: []int64{4, 2, 0},
					Attr: 1, Kind: dataset.Categorical,
					Children: []*tree.Node{
						{Leaf: true, Label: 0, Hist: []int64{3, 0, 0}},
						{Leaf: true, Label: 1, Hist: []int64{0, 2, 0}},
						{Leaf: true, Label: 0, Hist: []int64{1, 0, 0}},
					},
				},
				{
					Hist: []int64{2, 6, 2},
					Attr: 1, Kind: dataset.Categorical,
					Subset: []bool{false, true, false},
					Children: []*tree.Node{
						{Leaf: true, Label: 1, Hist: []int64{0, 4, 0}},
						{Leaf: true, Label: 2, Hist: []int64{2, 2, 2}},
					},
				},
			},
		},
	}
}

// TestFallbackRouting pins the majority-branch rule on both engines for
// every unroutable input shape.
func TestFallbackRouting(t *testing.T) {
	tr := fallbackTree()
	m, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{
		{math.NaN(), 0},          // NaN at the continuous root
		{math.NaN(), math.NaN()}, // NaN all the way down
		{0, 7},                   // out-of-domain m-way value
		{0, -3},                  // negative m-way value
		{0, math.Inf(1)},         // +Inf categorical
		{9, 9},                   // out-of-domain subset value
		{9, -1},                  // negative subset value
		{9, math.NaN()},          // NaN subset value
		{9, math.Inf(-1)},        // -Inf subset value
		{math.Inf(1), 1},         // +Inf continuous goes right
		{math.Inf(-1), 1},        // -Inf continuous goes left
		{0, 2.9}, {9, 1.2},       // fractional in-domain values truncate
		{1.5, 0}, {2, 1}, {0.1, 2}, // plain in-domain rows
	}
	for _, row := range rows {
		want := tr.Predict(row)
		if got := m.Predict(row); got != want {
			t.Errorf("Predict(%v): compiled=%d walker=%d", row, got, want)
		}
	}
	// The NaN row must land on the majority path: root majority is child 1
	// (10 > 6 records), whose subset node majority is child 1 (6 > 4
	// records, label C).
	if got := tr.Predict([]float64{math.NaN(), math.NaN()}); got != 2 {
		t.Fatalf("NaN row = %d, want majority path label 2", got)
	}
}

func TestCompileRejectsMalformed(t *testing.T) {
	if _, err := Compile(nil); err == nil {
		t.Fatal("nil tree accepted")
	}
	if _, err := Compile(&tree.Tree{Schema: fallbackSchema()}); err == nil {
		t.Fatal("nil root accepted")
	}
	bad := fallbackTree()
	bad.Root.Children[0].Children[1].Label = 99
	if _, err := Compile(bad); err == nil {
		t.Fatal("out-of-range leaf label accepted")
	}
	bad = fallbackTree()
	bad.Root.Attr = 5
	if _, err := Compile(bad); err == nil {
		t.Fatal("out-of-range split attribute accepted")
	}
}

func TestPredictTableRejectsMismatchedSchema(t *testing.T) {
	m, err := Compile(fallbackTree())
	if err != nil {
		t.Fatal(err)
	}
	other := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "c", Kind: dataset.Categorical, Values: []string{"a", "b"}},
			{Name: "x", Kind: dataset.Continuous},
		},
		Classes: []string{"A", "B", "C"},
	}
	if _, err := m.PredictTable(dataset.NewTable(other, 0)); err == nil {
		t.Fatal("kind-mismatched schema accepted")
	}
	if err := m.PredictTableInto(dataset.NewTable(fallbackSchema(), 0), make([]int, 3)); err == nil {
		t.Fatal("wrong out length accepted")
	}
}

func TestStats(t *testing.T) {
	m, err := Compile(fallbackTree())
	if err != nil {
		t.Fatal(err)
	}
	s := m.Footprint()
	if s.Trees != 1 || s.Nodes != 8 || s.Leaves != 5 || s.Depth != 2 {
		t.Fatalf("stats = %+v, want 1 tree / 8 nodes / 5 leaves / depth 2", s)
	}
	if s.SubsetWords != 1 {
		t.Fatalf("subset words = %d, want 1", s.SubsetWords)
	}
	// 24-byte node records, 8-byte bitset words, one 4-byte root offset.
	if want := 8*24 + 1*8 + 1*4; s.Bytes != want {
		t.Fatalf("bytes = %d, want %d", s.Bytes, want)
	}
	fm, err := CompileForest(&tree.Forest{Schema: fallbackSchema(), Trees: []*tree.Tree{fallbackTree(), fallbackTree(), fallbackTree()}})
	if err != nil {
		t.Fatal(err)
	}
	if fs := fm.Footprint(); fs != (Stats{Trees: 3, Nodes: 24, Leaves: 15, Depth: 2, SubsetWords: 3, Bytes: 3 * s.Bytes}) {
		t.Fatalf("three-tree stats = %+v", fs)
	}
}

// TestBatchBoundaries covers row counts straddling the batch size so the
// compaction loop's edges are exercised.
func TestBatchBoundaries(t *testing.T) {
	tr := fallbackTree()
	m, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, batchRows - 1, batchRows, batchRows + 1, 2*batchRows + 7} {
		tab := dataset.NewTable(tr.Schema, n)
		for i := 0; i < n; i++ {
			row := []float64{rng.Float64() * 3, float64(rng.Intn(3))}
			if err := tab.AppendRow(row, rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]int, n)
		tr.PredictTableWalk(tab, want)
		got, err := m.PredictTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("n=%d row %d: compiled=%d walker=%d", n, r, got[r], want[r])
			}
		}
	}
}
