package splitter

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gini"
	"repro/internal/tree"
)

// TestNodeRule pins the boundaries of the node rule every classifier
// applies: when a node tries to split, when a candidate beats it, which
// child a value descends to, and what growing makes of empty children.
func TestNodeRule(t *testing.T) {
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "c", Kind: dataset.Categorical, Values: []string{"a", "b", "c"}},
		},
		Classes: []string{"A", "B", "C"},
	}
	node := func(hist ...int64) *tree.Node { return &tree.Node{Hist: hist} }
	mixed := node(3, 2, 0) // 5 records
	g := gini.Index(mixed.Hist)
	cont := Candidate{Valid: true, Attr: 0, Kind: ContSplit, Threshold: 2.5}
	subset := Candidate{Valid: true, Attr: 1, Kind: CatSubset, Subset: 1 | 1<<63}

	// An m-way split whose middle child is empty, under a parent whose
	// majority ties between classes 1 and 2.
	grown := node(1, 3, 3)
	split := Decide(grown, Candidate{Valid: true, Attr: 1, Kind: CatMWay}, schema)
	Grow(grown, []int64{1, 3, 0, 0, 0, 0, 0, 0, 3})
	loser := node(3, 2, 0)
	lost := Decide(loser, Candidate{Valid: true, Gini: g, Attr: 0, Kind: ContSplit}, schema)
	subNode := node(3, 2, 0)
	Decide(subNode, Candidate{Valid: true, Attr: 1, Kind: CatSubset, Subset: 0b101}, schema)

	for _, tc := range []struct {
		name      string
		got, want bool
	}{
		{"exactly MinSplit records try", Config{MinSplit: 5}.TrySplit(mixed, 0), true},
		{"one record fewer is a leaf", Config{MinSplit: 6}.TrySplit(mixed, 0), false},
		{"below MaxDepth tries", Config{MaxDepth: 3}.TrySplit(mixed, 2), true},
		{"MaxDepth stops at the limit", Config{MaxDepth: 3}.TrySplit(mixed, 3), false},
		{"MaxDepth 0 is unlimited", Config{}.TrySplit(mixed, 1000), true},
		{"a pure node never tries", Config{MinSplit: 2}.TrySplit(node(0, 9, 0), 0), false},
		{"equal gini does not beat", Candidate{Valid: true, Gini: g}.Beats(mixed), false},
		{"lower gini beats", Candidate{Valid: true, Gini: math.Nextafter(g, 0)}.Beats(mixed), true},
		{"Invalid never beats", Invalid.Beats(mixed), false},
		{"a losing candidate leaves a majority leaf", !lost && loser.Leaf && loser.Label == 0, true},
		{"the threshold value goes left", cont.ContChild(2.5) == 0, true},
		{"above the threshold goes right", cont.ContChild(math.Nextafter(2.5, 3)) == 1, true},
		{"a subset value goes left", subset.CatChild(0) == 0 && subset.CatChild(63) == 0, true},
		{"a subset value >= 64 goes right", subset.CatChild(64) == 1 && subset.CatChild(127) == 1, true},
		{"an m-way value is its own child", Candidate{Kind: CatMWay}.CatChild(2) == 2, true},
		{"a subset split records its mask", len(subNode.Children) == 2 && subNode.Subset[0] && !subNode.Subset[1] && subNode.Subset[2], true},
		{"an m-way split has one child per value", split && len(grown.Children) == 3 && !grown.Leaf, true},
		{"an empty child is a leaf", grown.Children[1].Leaf, true},
		{"it takes the parent's majority, ties to the lowest class", grown.Children[1].Label == 1, true},
		{"non-empty children stay open", grown.Children[0].Leaf || grown.Children[2].Leaf, false},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// TestGrowChildHistsAreTheirRuns pins how Grow reads the split's child
// histograms, one vector back to back: child k keeps the k-th run of
// len(Hist) counts without a copy, and its capacity ends with its run, so
// an append to one child's Hist never writes into its sibling's counts.
func TestGrowChildHistsAreTheirRuns(t *testing.T) {
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "c", Kind: dataset.Categorical, Values: []string{"a", "b", "c"}}},
		Classes: []string{"A", "B"},
	}
	n := &tree.Node{Hist: []int64{4, 3}}
	if !Decide(n, Candidate{Valid: true, Attr: 0, Kind: CatMWay}, schema) {
		t.Fatal("the m-way candidate did not split the node")
	}
	hists := []int64{1, 2, 3, 0, 0, 1}
	Grow(n, hists)
	for k, c := range n.Children {
		if len(c.Hist) != 2 || cap(c.Hist) != 2 || &c.Hist[0] != &hists[2*k] {
			t.Fatalf("child %d: Hist %v (cap %d) is not run %d of %v in place", k, c.Hist, cap(c.Hist), k, hists)
		}
	}
	grown := append(n.Children[0].Hist, 9)
	if hists[2] != 3 || grown[2] != 9 {
		t.Fatalf("an append to child 0's Hist wrote into child 1's run: %v", hists)
	}
}

// TestGrowAllocatesOneBlock pins Grow's allocation: a split's children are
// one block, so growing a node costs one allocation whatever its fan-out.
func TestGrowAllocatesOneBlock(t *testing.T) {
	for _, d := range []int{2, 3, 5, 8} {
		n := &tree.Node{Hist: []int64{4, 3}, Children: make([]*tree.Node, d)}
		hists := make([]int64, 2*d)
		hists[0], hists[1] = 4, 3
		if allocs := testing.AllocsPerRun(10, func() { Grow(n, hists) }); allocs != 1 {
			t.Errorf("fan-out %d: Grow made %.0f allocations, want 1", d, allocs)
		}
	}
}
