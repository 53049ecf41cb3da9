package tree

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func testSchema() *dataset.Schema {
	return &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "salary", Kind: dataset.Continuous},
			{Name: "elevel", Kind: dataset.Categorical, Values: []string{"none", "hs", "college"}},
		},
		Classes: []string{"A", "B"},
	}
}

// testTree builds:
//
//	salary <= 50 ? -> leaf A
//	              : elevel m-way -> [leaf B, leaf A, leaf B]
func testTree() *Tree {
	return &Tree{
		Schema: testSchema(),
		Root: &Node{
			Hist: []int64{5, 5},
			Attr: 0, Kind: dataset.Continuous, Threshold: 50, Gini: 0.3,
			Children: []*Node{
				{Leaf: true, Label: 0, Hist: []int64{4, 0}},
				{
					Hist: []int64{1, 5},
					Attr: 1, Kind: dataset.Categorical, Gini: 0.2,
					Children: []*Node{
						{Leaf: true, Label: 1, Hist: []int64{0, 2}},
						{Leaf: true, Label: 0, Hist: []int64{1, 0}},
						{Leaf: true, Label: 1, Hist: []int64{0, 3}},
					},
				},
			},
		},
	}
}

func TestPredictPaths(t *testing.T) {
	tr := testTree()
	cases := []struct {
		row  []float64
		want int
	}{
		{[]float64{50, 0}, 0}, // boundary value goes left (<=)
		{[]float64{10, 2}, 0}, // left leaf ignores elevel
		{[]float64{51, 0}, 1}, // right then category 0
		{[]float64{99, 1}, 0}, // right then category 1
		{[]float64{99, 2}, 1}, // right then category 2
	}
	for _, c := range cases {
		if got := tr.Predict(c.row); got != c.want {
			t.Errorf("Predict(%v)=%d want %d", c.row, got, c.want)
		}
	}
}

func TestPredictUnseenCategoricalValue(t *testing.T) {
	tr := testTree()
	// Value 7 is outside the trained m-way domain: it must descend to the
	// majority branch — child 2 carries 3 of the 6 records (label B).
	for _, v := range []float64{7, -1, 3.5e18, math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := tr.Predict([]float64{99, v}); got != 1 {
			t.Errorf("Predict(unseen elevel %v)=%d want majority branch label 1", v, got)
		}
	}
}

func TestPredictContinuousNaN(t *testing.T) {
	tr := testTree()
	// NaN salary cannot be routed by the threshold test; the majority
	// branch is child 1 (6 of 10 records), then NaN elevel descends to
	// that subtree's majority branch (child 2, label B).
	if got := tr.Predict([]float64{math.NaN(), math.NaN()}); got != 1 {
		t.Fatalf("Predict(NaN row)=%d want 1", got)
	}
}

func TestMajorityChildDeterministic(t *testing.T) {
	n := &Node{Children: []*Node{
		{Hist: []int64{2, 2}},
		{Hist: []int64{1, 3}},
		{Hist: []int64{4, 0}},
	}}
	if got := n.MajorityChild(); got != 0 {
		t.Fatalf("MajorityChild tie=%d want lowest index 0", got)
	}
	n.Children[1].Hist = []int64{9, 0}
	if got := n.MajorityChild(); got != 1 {
		t.Fatalf("MajorityChild=%d want 1", got)
	}
}

func TestPredictSubsetSplit(t *testing.T) {
	tr := &Tree{
		Schema: testSchema(),
		Root: &Node{
			Hist: []int64{3, 4},
			Attr: 1, Kind: dataset.Categorical,
			Subset: []bool{true, false, true},
			Children: []*Node{
				{Leaf: true, Label: 0, Hist: []int64{3, 0}},
				{Leaf: true, Label: 1, Hist: []int64{0, 4}},
			},
		},
	}
	if tr.Predict([]float64{0, 0}) != 0 || tr.Predict([]float64{0, 2}) != 0 {
		t.Fatal("in-subset values must go left")
	}
	if tr.Predict([]float64{0, 1}) != 1 {
		t.Fatal("out-of-subset value must go right")
	}
	// Unseen / unroutable values take the majority branch (child 1 here,
	// 4 of 7 records), not the "not in subset" side by accident.
	for _, v := range []float64{9, -2, math.NaN(), math.Inf(1)} {
		if tr.Predict([]float64{0, v}) != 1 {
			t.Fatalf("unseen subset value %v must take the majority branch", v)
		}
	}
}

func TestPredictTable(t *testing.T) {
	tr := testTree()
	tab := dataset.NewTable(tr.Schema, 2)
	if err := tab.AppendRow([]float64{10, 0}, 0); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendRow([]float64{60, 2}, 1); err != nil {
		t.Fatal(err)
	}
	got := tr.PredictTable(tab)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("PredictTable=%v", got)
	}
}

// TestPredictTableWalkMatchesPredict pins the hoisted walker to the
// row-at-a-time oracle on a random table.
func TestPredictTableWalkMatchesPredict(t *testing.T) {
	tr := testTree()
	rng := rand.New(rand.NewSource(7))
	tab := dataset.NewTable(tr.Schema, 500)
	for i := 0; i < 500; i++ {
		row := []float64{rng.Float64()*100 - 25, float64(rng.Intn(3))}
		if err := tab.AppendRow(row, rng.Intn(2)); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]int, tab.NumRows())
	tr.PredictTableWalk(tab, out)
	for r := 0; r < tab.NumRows(); r++ {
		if want := tr.Predict(tab.Row(r)); out[r] != want {
			t.Fatalf("row %d: walk=%d Predict=%d", r, out[r], want)
		}
	}
}

func TestTreeCounts(t *testing.T) {
	tr := testTree()
	if tr.NumNodes() != 6 {
		t.Fatalf("NumNodes=%d want 6", tr.NumNodes())
	}
	if tr.NumLeaves() != 4 {
		t.Fatalf("NumLeaves=%d want 4", tr.NumLeaves())
	}
	if tr.Depth() != 2 {
		t.Fatalf("Depth=%d want 2", tr.Depth())
	}
	if tr.Root.Size() != 10 {
		t.Fatalf("Size=%d want 10", tr.Root.Size())
	}
}

func TestTreeEqual(t *testing.T) {
	a, b := testTree(), testTree()
	if !a.Equal(b) {
		t.Fatal("identical trees not Equal")
	}
	b.Root.Threshold = 51
	if a.Equal(b) {
		t.Fatal("different thresholds reported Equal")
	}
	b = testTree()
	b.Root.Children[1].Children[0].Label = 0
	if a.Equal(b) {
		t.Fatal("different leaf labels reported Equal")
	}
	b = testTree()
	b.Root.Children[1].Children = b.Root.Children[1].Children[:2]
	if a.Equal(b) {
		t.Fatal("different child counts reported Equal")
	}
	b = testTree()
	b.Root.Hist[0]++
	if a.Equal(b) {
		t.Fatal("different histograms reported Equal")
	}
}

func TestDumpMentionsDecisions(t *testing.T) {
	var buf bytes.Buffer
	if err := testTree().Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"salary <= 50", "elevel", "leaf A", "leaf B", "yes", "no", "college"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	if s := testTree().String(); !strings.Contains(s, "salary") {
		t.Error("String() should render the tree")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := testTree()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(got) {
		t.Fatal("JSON round trip changed the tree")
	}
	if got.Predict([]float64{60, 2}) != 1 {
		t.Fatal("decoded tree mispredicts")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	const schema = `"schema":{"Attrs":[{"Name":"x","Kind":0},{"Name":"c","Kind":1,"Values":["a","b","c"]}],"Classes":["A","B"]}`
	const leaf = `{"leaf":true,"hist":[1,1]}`
	cases := map[string]string{
		"empty document":    `{}`,
		"label range":       `{` + schema + `,"root":{"leaf":true,"label":5,"hist":[1,1]}}`,
		"attr range":        `{` + schema + `,"root":{"leaf":false,"hist":[1,1],"attr":7,"children":[` + leaf + `,` + leaf + `]}}`,
		"not json":          `not json`,
		"no schema":         `{"root":` + leaf + `}`,
		"neither":           `{` + schema + `}`,
		"null root":         `{` + schema + `,"root":null}`,
		"both":              `{` + schema + `,"root":` + leaf + `,"trees":[` + leaf + `]}`,
		"no trees":          `{` + schema + `,"trees":[]}`,
		"null tree entry":   `{` + schema + `,"trees":[` + leaf + `,null]}`,
		"null child":        `{` + schema + `,"root":{"hist":[1,1],"children":[` + leaf + `,null]}}`,
		"histogram width":   `{` + schema + `,"root":{"leaf":true,"hist":[1,1,1]}}`,
		"leaf with child":   `{` + schema + `,"root":{"leaf":true,"hist":[1,1],"children":[` + leaf + `]}}`,
		"one child":         `{` + schema + `,"root":{"hist":[1,1],"children":[` + leaf + `]}}`,
		"ternary threshold": `{` + schema + `,"root":{"hist":[1,1],"children":[` + leaf + `,` + leaf + `,` + leaf + `]}}`,
		"ternary subset":    `{` + schema + `,"root":{"hist":[1,1],"attr":1,"kind":1,"subset":[true,false,true],"children":[` + leaf + `,` + leaf + `,` + leaf + `]}}`,
		"kind mismatch":     `{` + schema + `,"root":{"hist":[1,1],"attr":1,"children":[` + leaf + `,` + leaf + `]}}`,
		"trailing data":     `{` + schema + `,"root":` + leaf + `} {}`,
	}
	for name, c := range cases {
		if _, err := DecodeModel(strings.NewReader(c)); err == nil {
			t.Errorf("%s: malformed model accepted by DecodeModel", name)
		}
		if _, err := Decode(strings.NewReader(c)); err == nil {
			t.Errorf("%s: malformed model accepted by Decode", name)
		}
	}
	// The shapes the rows above vary are themselves valid, and Decode is
	// the exactly-one-tree view: a forest of one is a tree, a forest of two
	// is not.
	one, two := `{`+schema+`,"trees":[`+leaf+`]}`, `{`+schema+`,"trees":[`+leaf+`,`+leaf+`]}`
	for _, c := range []string{`{` + schema + `,"root":` + leaf + `}`, one} {
		if tr, err := Decode(strings.NewReader(c)); err != nil || !tr.Root.Leaf {
			t.Errorf("valid single-tree document %s rejected: %v", c, err)
		}
	}
	if f, err := DecodeModel(strings.NewReader(two)); err != nil || f.NumTrees() != 2 {
		t.Errorf("valid forest document rejected: %v", err)
	}
	if _, err := Decode(strings.NewReader(two)); err == nil {
		t.Error("Decode accepted a two-tree forest as a tree")
	}
}

func TestMajority(t *testing.T) {
	if Majority([]int64{1, 5, 3}) != 1 {
		t.Fatal("majority wrong")
	}
	if Majority([]int64{2, 2}) != 0 {
		t.Fatal("majority tie must pick the smallest class id")
	}
	if Majority([]int64{0, 0}) != 0 {
		t.Fatal("empty histogram majority should be class 0")
	}
}

func TestPruneCollapsesUselessSplit(t *testing.T) {
	// A split whose children do not beat the parent's majority should
	// collapse: parent 8 A / 2 B split into (4A/1B) and (4A/1B) — both
	// children predict A, exactly like the parent would.
	tr := &Tree{
		Schema: testSchema(),
		Root: &Node{
			Hist: []int64{8, 2},
			Attr: 0, Kind: dataset.Continuous, Threshold: 5,
			Children: []*Node{
				{Leaf: true, Label: 0, Hist: []int64{4, 1}},
				{Leaf: true, Label: 0, Hist: []int64{4, 1}},
			},
		},
	}
	pruned := tr.Prune()
	if pruned != 1 {
		t.Fatalf("pruned=%d want 1", pruned)
	}
	if !tr.Root.Leaf || tr.Root.Label != 0 {
		t.Fatalf("root should be leaf A, got %+v", tr.Root)
	}
}

func TestPruneKeepsGoodSplit(t *testing.T) {
	// A perfectly separating split must survive.
	tr := &Tree{
		Schema: testSchema(),
		Root: &Node{
			Hist: []int64{50, 50},
			Attr: 0, Kind: dataset.Continuous, Threshold: 5,
			Children: []*Node{
				{Leaf: true, Label: 0, Hist: []int64{50, 0}},
				{Leaf: true, Label: 1, Hist: []int64{0, 50}},
			},
		},
	}
	if pruned := tr.Prune(); pruned != 0 {
		t.Fatalf("pruned=%d want 0", pruned)
	}
	if tr.Root.Leaf {
		t.Fatal("good split was pruned")
	}
}

func TestPruneBottomUpCascade(t *testing.T) {
	// Useless grandchildren collapse first, then the now-useless child.
	useless := &Node{
		Hist: []int64{6, 1},
		Attr: 0, Kind: dataset.Continuous, Threshold: 1,
		Children: []*Node{
			{Leaf: true, Label: 0, Hist: []int64{3, 1}},
			{Leaf: true, Label: 0, Hist: []int64{3, 0}},
		},
	}
	tr := &Tree{
		Schema: testSchema(),
		Root: &Node{
			Hist: []int64{12, 2},
			Attr: 0, Kind: dataset.Continuous, Threshold: 9,
			Children: []*Node{
				useless,
				{Leaf: true, Label: 0, Hist: []int64{6, 1}},
			},
		},
	}
	if pruned := tr.Prune(); pruned != 2 {
		t.Fatalf("pruned=%d want 2", pruned)
	}
	if !tr.Root.Leaf {
		t.Fatal("cascade should collapse the whole tree")
	}
}

func TestPrunePreservesPredictions(t *testing.T) {
	// Pruning may only change predictions toward the majority; on the
	// training distribution the error count must not increase.
	tr := testTree()
	// Training rows consistent with the histograms.
	rows := [][]float64{
		{10, 0}, {20, 1}, {30, 2}, {40, 0}, // left: 4 A
		{60, 0}, {60, 0}, // cat 0: 2 B
		{60, 1},                   // cat 1: 1 A
		{60, 2}, {60, 2}, {60, 2}, // cat 2: 3 B
	}
	labels := []int{0, 0, 0, 0, 1, 1, 0, 1, 1, 1}
	errBefore := 0
	for i, r := range rows {
		if tr.Predict(r) != labels[i] {
			errBefore++
		}
	}
	tr.Prune()
	errAfter := 0
	for i, r := range rows {
		if tr.Predict(r) != labels[i] {
			errAfter++
		}
	}
	if errBefore != 0 {
		t.Fatalf("test setup wrong: %d training errors before pruning", errBefore)
	}
	if errAfter > errBefore+1 { // pessimistic pruning allows tiny slack
		t.Fatalf("pruning increased training errors from %d to %d", errBefore, errAfter)
	}
}
