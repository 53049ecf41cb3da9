package tree

import "math"

// Prune applies pessimistic error pruning (Quinlan-style, with the usual
// 0.5 continuity correction and one standard error of slack) bottom-up and
// returns the number of internal nodes collapsed into leaves.
//
// The paper concentrates on the induction step and leaves pruning to
// standard serial techniques; this implementation provides that second step
// so the library produces deployable trees. Pruning runs on the assembled
// tree (replicated on every processor after induction), so it needs no
// communication.
func (t *Tree) Prune() int {
	pruned := 0
	t.Root = pruneNode(t.Root, &pruned)
	return pruned
}

// pruneNode returns the possibly-replaced node and accumulates the count of
// collapsed internal nodes.
func pruneNode(n *Node, pruned *int) *Node {
	if n.Leaf {
		return n
	}
	for i, ch := range n.Children {
		n.Children[i] = pruneNode(ch, pruned)
	}

	subtree := subtreeErrors(n)
	nTotal := float64(n.Size())
	se := 0.0
	if nTotal > 0 && subtree < nTotal {
		se = math.Sqrt(subtree * (nTotal - subtree) / nTotal)
	}
	leafErr := leafErrors(n) + 0.5
	if leafErr <= subtree+se {
		*pruned += n.count(func(m *Node) bool { return !m.Leaf })
		return &Node{Leaf: true, Label: Majority(n.Hist), Hist: n.Hist}
	}
	return n
}

// leafErrors returns the raw misclassification count if the node were a
// leaf labeled with its majority class.
func leafErrors(n *Node) float64 {
	var max, total int64
	for _, c := range n.Hist {
		total += c
		if c > max {
			max = c
		}
	}
	return float64(total - max)
}

// subtreeErrors returns the pessimistic error estimate of the subtree:
// Σ over leaves (errors + 0.5).
func subtreeErrors(n *Node) float64 {
	if n.Leaf {
		return leafErrors(n) + 0.5
	}
	sum := 0.0
	for _, ch := range n.Children {
		sum += subtreeErrors(ch)
	}
	return sum
}

// Majority returns the index of the largest histogram entry, ties broken
// toward the smallest class index: the leaf label every classifier and
// pruner applies.
func Majority(h []int64) int {
	best, bestCount := 0, int64(-1)
	for i, c := range h {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	return best
}
