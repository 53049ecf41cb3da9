package tree

import (
	"fmt"
	"math"

	"repro/internal/dataset"
)

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	return &Tree{Schema: t.Schema, Root: t.Root.clone()}
}

func (n *Node) clone() *Node {
	c := *n
	c.Hist = append([]int64(nil), n.Hist...)
	c.Subset = append([]bool(nil), n.Subset...)
	if n.Children != nil {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.clone()
		}
	}
	return &c
}

// PruneCCP applies CART-style cost-complexity (weakest-link) pruning
// [Breiman et al., the paper's reference 1]: it generates the nested
// pruning sequence by repeatedly collapsing the internal node with the
// smallest per-leaf error increase g(t) = (R(t) - R(T_t)) / (|T_t| - 1),
// evaluates every tree in the sequence on the validation table, and keeps
// the most accurate (ties resolved toward the smaller tree). It returns
// the number of internal nodes removed from the original tree.
func (t *Tree) PruneCCP(val *dataset.Table) (int, error) {
	if val == nil || val.NumRows() == 0 {
		return 0, fmt.Errorf("tree: PruneCCP needs a non-empty validation table")
	}
	if len(val.Schema.Attrs) != len(t.Schema.Attrs) || len(val.Schema.Classes) != len(t.Schema.Classes) {
		return 0, fmt.Errorf("tree: validation schema incompatible with the tree")
	}

	work := t.Clone()
	bestTree := work.Clone()
	bestErrors := validationErrors(work, val)
	origInternal := t.NumNodes() - t.NumLeaves()

	for !work.Root.Leaf {
		weakest := findWeakestLink(work.Root)
		if weakest == nil {
			break
		}
		weakest.Leaf = true
		weakest.Label = Majority(weakest.Hist)
		weakest.Children = nil
		weakest.Subset = nil

		// <=: prefer the smaller tree on equal validation error.
		if errs := validationErrors(work, val); errs <= bestErrors {
			bestErrors = errs
			bestTree = work.Clone()
		}
	}

	t.Root = bestTree.Root
	return origInternal - (t.NumNodes() - t.NumLeaves()), nil
}

func validationErrors(t *Tree, val *dataset.Table) int {
	pred := t.PredictTable(val)
	errs := 0
	for r, p := range pred {
		if p != int(val.Class[r]) {
			errs++
		}
	}
	return errs
}

// findWeakestLink returns the internal node with the smallest g(t); ties
// resolve to the first such node in preorder, which makes the pruning
// sequence deterministic.
func findWeakestLink(root *Node) *Node {
	var best *Node
	bestG := math.Inf(1)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf {
			return
		}
		rt := leafErrors(n)           // errors if collapsed
		rsub, leaves := subtreeRaw(n) // errors and leaf count of subtree
		if leaves > 1 {
			g := (rt - rsub) / float64(leaves-1)
			if g < bestG {
				bestG = g
				best = n
			}
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
	return best
}

// subtreeRaw returns the raw (training) error count and leaf count of the
// subtree.
func subtreeRaw(n *Node) (errors float64, leaves int) {
	if n.Leaf {
		return leafErrors(n), 1
	}
	for _, ch := range n.Children {
		e, l := subtreeRaw(ch)
		errors += e
		leaves += l
	}
	return errors, leaves
}
