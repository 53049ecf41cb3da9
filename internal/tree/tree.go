// Package tree defines the decision-tree model produced by the classifiers:
// internal nodes carrying a splitting decision, leaves carrying a class
// label, plus prediction, inspection, serialization, and (as an extension
// beyond the paper's induction step) pessimistic post-pruning.
package tree

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/dataset"
)

// Node is one node of a decision tree. Exported fields make the tree
// directly JSON-serializable.
type Node struct {
	// Leaf marks a terminal node; Label is then its class index.
	Leaf  bool `json:"leaf"`
	Label int  `json:"label"`
	// Hist is the training-set class histogram of the records that
	// reached this node.
	Hist []int64 `json:"hist"`

	// Split decision (internal nodes only).
	//
	// Continuous attribute: records with value <= Threshold descend to
	// Children[0], the rest to Children[1].
	// Categorical m-way: records with domain value v descend to
	// Children[v].
	// Categorical binary subset (the paper's footnote-1 variant):
	// records whose value v has Subset[v] true descend to Children[0],
	// the rest to Children[1].
	//
	// Fallback rule: training guarantees in-domain finite values but
	// prediction does not. A continuous NaN, or a categorical value
	// outside [0, domain), descends to the majority branch — the child
	// that received the most training records by Hist, ties broken to
	// the lowest child index (see MajorityChild). The compiled engine in
	// internal/infer implements the identical rule.
	Attr      int          `json:"attr,omitempty"`
	Kind      dataset.Kind `json:"kind,omitempty"`
	Threshold float64      `json:"threshold,omitempty"`
	Subset    []bool       `json:"subset,omitempty"`
	Gini      float64      `json:"gini,omitempty"`
	Children  []*Node      `json:"children,omitempty"`
}

// Tree is a complete decision tree plus the schema it classifies.
type Tree struct {
	Schema *dataset.Schema `json:"schema"`
	Root   *Node           `json:"root"`
}

// Predict returns the class index for a row in the dataset.Table value
// convention (categorical attributes as domain indices).
func (t *Tree) Predict(row []float64) int {
	n := t.Root
	for !n.Leaf {
		n = n.Children[n.ChildFor(row[n.Attr])]
	}
	return n.Label
}

// PredictTable classifies every row of a table with the pointer walker and
// returns the labels. It is the oracle internal/infer's compiled engine is
// differentially tested against; callers that want speed compile the tree
// (infer.Compile) themselves.
func (t *Tree) PredictTable(tab *dataset.Table) []int {
	out := make([]int, tab.NumRows())
	t.PredictTableWalk(tab, out)
	return out
}

// PredictTableWalk classifies every row with the reference pointer walker,
// writing labels into out (which must have one slot per row). The column
// accessors are hoisted once per table so the walk reads attribute columns
// directly instead of re-gathering every row through Table.Value.
func (t *Tree) PredictTableWalk(tab *dataset.Table, out []int) {
	cont := make([][]float64, tab.Schema.NumAttrs())
	cat := make([][]int32, tab.Schema.NumAttrs())
	for a := range tab.Schema.Attrs {
		if tab.Schema.Attrs[a].Kind == dataset.Continuous {
			cont[a] = tab.ContColumn(a)
		} else {
			cat[a] = tab.CatColumn(a)
		}
	}
	for r := range out {
		n := t.Root
		for !n.Leaf {
			var v float64
			if c := cont[n.Attr]; c != nil {
				v = c[r]
			} else {
				v = float64(cat[n.Attr][r])
			}
			n = n.Children[n.ChildFor(v)]
		}
		out[r] = n.Label
	}
}

// ChildFor returns the child index a value descends to, applying the
// majority-branch fallback documented on Node for NaN and out-of-domain
// categorical values.
func (n *Node) ChildFor(v float64) int {
	switch {
	case n.Kind == dataset.Continuous:
		if v != v { // NaN: the threshold test cannot route it
			return n.MajorityChild()
		}
		if v <= n.Threshold {
			return 0
		}
		return 1
	case n.Subset != nil:
		// The float comparison rejects NaN and values whose int
		// conversion would be out of range (or undefined, e.g. ±Inf)
		// before any conversion happens.
		if !(v >= 0 && v < float64(len(n.Subset))) {
			return n.MajorityChild()
		}
		if n.Subset[int(v)] {
			return 0
		}
		return 1
	default:
		if !(v >= 0 && v < float64(len(n.Children))) {
			return n.MajorityChild()
		}
		return int(v)
	}
}

// MajorityChild returns the index of the child that received the most
// training records (the largest Hist sum), ties broken to the lowest
// index — the deterministic fallback branch for values the split test
// cannot route (see the rule on Node).
func (n *Node) MajorityChild() int {
	best, bestSize := 0, int64(-1)
	for i, ch := range n.Children {
		if s := ch.Size(); s > bestSize {
			best, bestSize = i, s
		}
	}
	return best
}

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int { return t.Root.count(func(*Node) bool { return true }) }

// NumLeaves returns the leaf count.
func (t *Tree) NumLeaves() int { return t.Root.count(func(n *Node) bool { return n.Leaf }) }

// Depth returns the number of edges on the longest root-to-leaf path.
func (t *Tree) Depth() int { return t.Root.depth() }

func (n *Node) count(pred func(*Node) bool) int {
	c := 0
	if pred(n) {
		c = 1
	}
	for _, ch := range n.Children {
		c += ch.count(pred)
	}
	return c
}

func (n *Node) depth() int {
	d := 0
	for _, ch := range n.Children {
		if cd := ch.depth() + 1; cd > d {
			d = cd
		}
	}
	return d
}

// Size returns the number of training records that reached the node.
func (n *Node) Size() int64 {
	var s int64
	for _, c := range n.Hist {
		s += c
	}
	return s
}

// Equal reports whether two trees have identical structure and decisions.
// It is the oracle check used to verify that ScalParC on any number of
// processors produces exactly the serial classifier's tree.
func (t *Tree) Equal(o *Tree) bool { return nodeEqual(t.Root, o.Root) }

func nodeEqual(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Leaf != b.Leaf {
		return false
	}
	if len(a.Hist) != len(b.Hist) {
		return false
	}
	for i := range a.Hist {
		if a.Hist[i] != b.Hist[i] {
			return false
		}
	}
	if a.Leaf {
		return a.Label == b.Label
	}
	if a.Attr != b.Attr || a.Kind != b.Kind || a.Threshold != b.Threshold {
		return false
	}
	if len(a.Subset) != len(b.Subset) {
		return false
	}
	for i := range a.Subset {
		if a.Subset[i] != b.Subset[i] {
			return false
		}
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !nodeEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Dump writes a readable rendering of the tree.
func (t *Tree) Dump(w io.Writer) error {
	return t.dumpNode(w, t.Root, 0, "")
}

func (t *Tree) dumpNode(w io.Writer, n *Node, depth int, edge string) error {
	indent := strings.Repeat("  ", depth)
	if edge != "" {
		edge += " -> "
	}
	if n.Leaf {
		_, err := fmt.Fprintf(w, "%s%sleaf %s %v\n", indent, edge, t.Schema.Classes[n.Label], n.Hist)
		return err
	}
	attr := t.Schema.Attrs[n.Attr]
	var desc string
	switch {
	case n.Kind == dataset.Continuous:
		desc = fmt.Sprintf("%s <= %g", attr.Name, n.Threshold)
	case n.Subset != nil:
		var in []string
		for v, ok := range n.Subset {
			if ok {
				in = append(in, attr.Values[v])
			}
		}
		desc = fmt.Sprintf("%s in {%s}", attr.Name, strings.Join(in, ","))
	default:
		desc = fmt.Sprintf("%s = ?", attr.Name)
	}
	if _, err := fmt.Fprintf(w, "%s%ssplit %s (gini %.4f) %v\n", indent, edge, desc, n.Gini, n.Hist); err != nil {
		return err
	}
	for i, ch := range n.Children {
		label := edgeLabel(n, attr, i)
		if err := t.dumpNode(w, ch, depth+1, label); err != nil {
			return err
		}
	}
	return nil
}

func edgeLabel(n *Node, attr dataset.Attribute, i int) string {
	switch {
	case n.Kind == dataset.Continuous, n.Subset != nil:
		if i == 0 {
			return "yes"
		}
		return "no"
	default:
		return attr.Values[i]
	}
}

// String renders the tree via Dump.
func (t *Tree) String() string {
	var b strings.Builder
	if err := t.Dump(&b); err != nil {
		return fmt.Sprintf("tree: dump failed: %v", err)
	}
	return b.String()
}
