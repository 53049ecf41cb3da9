package tree

import "repro/internal/gini"

// Importance returns the gini importance of every attribute: for each
// internal node splitting on attribute a, the impurity decrease
// (gini(node) - gini(split)) weighted by the fraction of training records
// reaching the node, summed per attribute and normalised to sum to 1
// (all zeros for a single-leaf tree).
func (t *Tree) Importance() []float64 {
	imp := make([]float64, t.Schema.NumAttrs())
	total := float64(t.Root.Size())
	if total == 0 {
		return imp
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf {
			return
		}
		weight := float64(n.Size()) / total
		decrease := gini.Index(n.Hist) - n.Gini
		if decrease > 0 {
			// float64 rounds the product: no fused multiply-add (make fma).
			imp[n.Attr] += float64(weight * decrease)
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(t.Root)

	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if sum > 0 {
		for i := range imp {
			imp[i] /= sum
		}
	}
	return imp
}

// TopAttributes returns attribute indices ordered by descending
// importance (ties by ascending index), limited to k entries (k <= 0
// means all).
func (t *Tree) TopAttributes(k int) []int {
	imp := t.Importance()
	idx := make([]int, len(imp))
	for i := range idx {
		idx[i] = i
	}
	// insertion sort: attribute counts are small
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j-1], idx[j]
			if imp[b] > imp[a] || (imp[b] == imp[a] && b < a) {
				idx[j-1], idx[j] = b, a
			} else {
				break
			}
		}
	}
	if k > 0 && k < len(idx) {
		idx = idx[:k]
	}
	return idx
}
