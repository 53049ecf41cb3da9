package tree_test

// Tests of the tree package that need internal/infer linked; an external
// package so importing the engine (which imports tree) is no cycle.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/tree"
)

func modelSchema() *dataset.Schema {
	return &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "c", Kind: dataset.Categorical, Values: []string{"a", "b", "c"}},
		},
		Classes: []string{"A", "B"},
	}
}

// modelTree splits x at the root, then c m-way (left) and by subset (right).
func modelTree(s *dataset.Schema) *tree.Tree {
	leaf := func(label int, hist ...int64) *tree.Node { return &tree.Node{Leaf: true, Label: label, Hist: hist} }
	return &tree.Tree{Schema: s, Root: &tree.Node{
		Hist: []int64{6, 8}, Attr: 0, Kind: dataset.Continuous, Threshold: 1.5,
		Children: []*tree.Node{
			{Hist: []int64{4, 2}, Attr: 1, Kind: dataset.Categorical,
				Children: []*tree.Node{leaf(0, 3, 0), leaf(1, 0, 2), leaf(0, 1, 0)}},
			{Hist: []int64{2, 6}, Attr: 1, Kind: dataset.Categorical, Subset: []bool{false, true, false},
				Children: []*tree.Node{leaf(1, 0, 4), leaf(0, 2, 2)}},
		},
	}}
}

// TestPredictTableIsTheWalker pins that no engine hooks itself into
// Tree.PredictTable: with internal/infer linked into this test binary,
// PredictTable is still PredictTableWalk. The probe is a tree only the
// walker can classify — a threshold split on a categorical column, which
// the compiler refuses and whose table walk reads the category codes.
func TestPredictTableIsTheWalker(t *testing.T) {
	s := modelSchema()
	tab := dataset.NewTable(s, 6)
	for i := 0; i < 6; i++ {
		if err := tab.AppendRow([]float64{float64(i), float64(i % 3)}, i%2); err != nil {
			t.Fatal(err)
		}
	}
	odd := modelTree(s)
	odd.Root.Attr, odd.Root.Threshold = 1, 0.5
	if _, err := infer.Compile(odd); err == nil {
		t.Fatal("a threshold split on a categorical attribute compiled")
	}
	for name, tr := range map[string]*tree.Tree{"well formed": modelTree(s), "walker only": odd} {
		want := make([]int, tab.NumRows())
		tr.PredictTableWalk(tab, want)
		for r, got := range tr.PredictTable(tab) {
			if got != want[r] {
				t.Fatalf("%s tree, row %d: PredictTable=%d PredictTableWalk=%d", name, r, got, want[r])
			}
		}
	}
}

// modelDocs encodes one tree document and one forest document.
func modelDocs(t testing.TB) [][]byte {
	s := modelSchema()
	var docs [][]byte
	for _, encode := range []func(io.Writer) error{
		modelTree(s).Encode,
		(&tree.Forest{Schema: s, Trees: []*tree.Tree{modelTree(s), modelTree(s)}}).Encode,
	} {
		var doc bytes.Buffer
		if err := encode(&doc); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc.Bytes())
	}
	return docs
}

// TestIndentedDocumentsStillDecode: Encode writes compact JSON, but model
// files written while it indented must keep loading — the same document
// with any whitespace decodes to an Equal model.
func TestIndentedDocumentsStillDecode(t *testing.T) {
	for _, doc := range modelDocs(t) {
		if bytes.Contains(bytes.TrimSpace(doc), []byte("\n")) {
			t.Fatalf("Encode is not compact: %q", doc)
		}
		want, err := tree.DecodeModel(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, doc, "", "  "); err != nil {
			t.Fatal(err)
		}
		got, err := tree.DecodeModel(&indented)
		if err != nil {
			t.Fatalf("indented document rejected: %v", err)
		}
		if got.NumTrees() != want.NumTrees() {
			t.Fatalf("indented document decodes to %d trees, compact to %d", got.NumTrees(), want.NumTrees())
		}
		for i := range want.Trees {
			if !want.Trees[i].Equal(got.Trees[i]) {
				t.Fatalf("tree %d differs between the indented and the compact document", i)
			}
		}
	}
}

// FuzzDecodeModel feeds the single model parser arbitrary bytes. It must
// never panic, must allocate in proportion to its input, and whatever it
// accepts must be servable: valid, compilable, predictable on hostile rows
// exactly as the walker votes, and stable under re-encoding.
//
// The allocation bound is 64 KiB plus 256 bytes per input byte. Measured on
// an x86-64 Linux host: the tree seed (549 bytes) allocates 4.6 KB and the
// forest seed (970 bytes) 6.0 KB; the costliest shape found by hand, an
// attribute list of bare numbers where objects belong, allocates 121 bytes
// per byte (encoding/json builds an element and a type error per value).
func FuzzDecodeModel(f *testing.F) {
	// Seeds: one tree document and one forest document.
	for _, doc := range modelDocs(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr *tree.Forest
		var err error
		if got, limit := allocatedBy(func() { fr, err = tree.DecodeModel(bytes.NewReader(data)) }), uint64(64<<10+256*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if err := fr.Validate(); err != nil {
			t.Fatalf("accepted model fails Validate: %v", err)
		}
		m, err := infer.CompileForest(fr)
		if err != nil {
			t.Fatalf("accepted model does not compile: %v", err)
		}
		var rows [][]float64
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e18, 0, 1.5} {
			row := make([]float64, fr.Schema.NumAttrs())
			for a := range row {
				row[a] = v
			}
			rows = append(rows, row)
		}
		got := make([]int, len(rows))
		if err := m.PredictRowsInto(rows, got); err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			if want := fr.Predict(row); got[i] != want || m.Predict(row) != want {
				t.Fatalf("row %v: compiled rows=%d single=%d walker=%d", row, got[i], m.Predict(row), want)
			}
		}

		var enc, enc2 bytes.Buffer
		if err := fr.Encode(&enc); err != nil {
			t.Fatalf("accepted model does not re-encode: %v", err)
		}
		again, err := tree.DecodeModel(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded model rejected: %v", err)
		}
		if again.NumTrees() != fr.NumTrees() {
			t.Fatalf("round trip changed the tree count %d -> %d", fr.NumTrees(), again.NumTrees())
		}
		for i := range fr.Trees {
			if !fr.Trees[i].Equal(again.Trees[i]) {
				t.Fatalf("round trip changed tree %d", i)
			}
		}
		if err := again.Encode(&enc2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatal("re-encoding is not byte-stable")
		}
	})
}

// allocatedBy reports the heap bytes fn allocates, the least over three
// calls: the counter is process-wide, so a call can also be charged for
// another goroutine's allocations (the runtime's, or a parallel test's
// when go test runs the seeds). fn must be safe to repeat.
func allocatedBy(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
