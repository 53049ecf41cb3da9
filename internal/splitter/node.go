package splitter

import (
	"repro/internal/dataset"
	"repro/internal/gini"
	"repro/internal/tree"
)

// TrySplit reports whether a node at depth looks for a split at all. The
// tests run in the serial oracle's order: a pure node never does, nor one at
// MaxDepth (0: unlimited), nor one holding fewer than MinSplit records.
func (c Config) TrySplit(n *tree.Node, depth int) bool {
	classes := 0
	for _, k := range n.Hist {
		if k > 0 {
			classes++
		}
	}
	if classes <= 1 {
		return false
	}
	if c.MaxDepth > 0 && depth >= c.MaxDepth {
		return false
	}
	return n.Size() >= int64(c.MinSplit)
}

// Beats reports whether the candidate's gini is strictly below the node's
// own; Invalid never beats a node.
func (c Candidate) Beats(n *tree.Node) bool {
	return c.Valid && c.Gini < gini.Index(n.Hist)
}

// Decide settles a node on its winning candidate: a leaf labelled with its
// majority class unless the candidate beats the node, otherwise a split on
// the candidate's test with one (still empty) child slot per branch for
// Grow. It reports whether the node splits.
func Decide(n *tree.Node, c Candidate, s *dataset.Schema) bool {
	if !c.Beats(n) {
		n.Leaf, n.Label = true, tree.Majority(n.Hist)
		return false
	}
	attr := s.Attrs[c.Attr]
	n.Attr, n.Kind, n.Gini = int(c.Attr), attr.Kind, c.Gini
	children := 2
	switch c.Kind {
	case ContSplit:
		n.Threshold = c.Threshold
	case CatMWay:
		children = attr.Cardinality()
	case CatSubset:
		n.Subset = make([]bool, attr.Cardinality())
		for v := range n.Subset {
			n.Subset[v] = c.Subset&(1<<uint(v)) != 0
		}
	}
	n.Children = make([]*tree.Node, children)
	return true
}

// ContChild is the child a continuous value descends to under the
// candidate's split: left (0) when it is at most the threshold.
func (c Candidate) ContChild(v float64) uint8 {
	if v <= c.Threshold {
		return 0
	}
	return 1
}

// CatChild is the child a categorical value descends to under the
// candidate's split: its own under an m-way split; under a subset split
// left (0) when its bit is set, so a value of 64 or more goes right.
func (c Candidate) CatChild(v int32) uint8 {
	if c.Kind != CatSubset {
		return uint8(v)
	}
	if v < 64 && c.Subset&(1<<uint(v)) != 0 {
		return 0
	}
	return 1
}

// Grow fills a decided node's child slots, child k with class histogram
// hists[k]. An empty child becomes a leaf labelled with the parent's
// majority class; every other child is left open (not a leaf) for the next
// level.
func Grow(n *tree.Node, hists [][]int64) {
	label := tree.Majority(n.Hist)
	for k, h := range hists {
		child := &tree.Node{Hist: h}
		if child.Size() == 0 {
			child.Leaf, child.Label = true, label
		}
		n.Children[k] = child
	}
}
