// Package serial implements the sequential SPRINT-style decision-tree
// classifier of the paper's section 2: attribute lists fragmented
// vertically, continuous lists pre-sorted exactly once, an in-memory record
// to child mapping driving consistent splits, and level-synchronous
// induction.
//
// It serves two roles: the baseline whose runtime T_s the speedup
// experiments divide by, and the correctness oracle — ScalParC and the
// parallel SPRINT formulation must produce this tree exactly, for every
// processor count.
package serial

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gini"
	"repro/internal/splitter"
	"repro/internal/tree"
)

// nodeState is one active (still splittable) node during induction.
type nodeState struct {
	node  *tree.Node
	lists *dataset.Lists
	depth int
}

// Train builds a decision tree on the table.
func Train(tab *dataset.Table, cfg splitter.Config) (*tree.Tree, error) {
	return train(tab, cfg, nil)
}

// train runs the induction; onSplit, if non-nil, is invoked once per split
// node with the node's record count and total attribute-list entries
// (TrainConstrained's staging accounting hook).
func train(tab *dataset.Table, cfg splitter.Config, onSplit func(nodeRecords, listEntries int64)) (*tree.Tree, error) {
	if err := tab.Schema.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalize()
	if err := cfg.Validate(tab.Schema); err != nil {
		return nil, err
	}
	if tab.NumRows() == 0 {
		return nil, fmt.Errorf("serial: empty training set")
	}

	// Presort: build the attribute lists and sort the continuous ones,
	// once. Splits preserve the order from here on.
	lists := dataset.BuildLists(tab, 0)
	lists.SortContinuous()

	root := &tree.Node{Hist: tab.ClassHistogram()}
	active := []*nodeState{{node: root, lists: lists, depth: 0}}

	// childOf maps a global record id to its child number within the node
	// currently being split — the serial analogue of SPRINT's per-node
	// hash table, sized O(N) (the memory wall the parallel formulation
	// removes).
	childOf := make([]uint8, tab.NumRows())

	for len(active) > 0 {
		var next []*nodeState
		for _, ns := range active {
			cand := splitter.Invalid
			if cfg.TrySplit(ns.node, ns.depth) {
				cand = bestSplit(ns, cfg)
			}
			if !splitter.Decide(ns.node, cand, tab.Schema) {
				continue
			}
			if onSplit != nil {
				size := ns.node.Size()
				onSplit(size, size*int64(tab.Schema.NumAttrs()))
			}
			next = append(next, splitNode(ns, cand, tab.Schema, childOf)...)
		}
		active = next
	}
	return &tree.Tree{Schema: tab.Schema, Root: root}, nil
}

// bestSplit returns the winning candidate for a node that tries to split.
// The candidate order mirrors the parallel formulation exactly.
func bestSplit(ns *nodeState, cfg splitter.Config) splitter.Candidate {
	best := splitter.Invalid
	for a, attr := range ns.lists.Schema.Attrs {
		var cand splitter.Candidate
		if attr.Kind == dataset.Continuous {
			cand = bestContinuous(ns.lists.Cont[a], ns.node.Hist, a)
		} else {
			m := splitter.NewCountMatrix(attr.Cardinality(), len(ns.node.Hist))
			for _, e := range ns.lists.Cat[a] {
				m.Add(e.Val, e.Cid)
			}
			cand = splitter.BestCategorical(m, a, cfg.CategoricalBinary)
		}
		best = splitter.Best(best, cand)
	}
	return best
}

// bestContinuous scans a sorted continuous list evaluating the gini of
// every valid candidate point ("A <= v" where the next value differs). It
// keeps the Candidate-per-point fold through splitter.Best, as SLIQ's scan
// does, while ScalParC's scans fold in registers: the serial and SLIQ
// oracles stay independent of the fold the differential tests check.
func bestContinuous(list []dataset.ContEntry, hist []int64, attr int) splitter.Candidate {
	m := gini.NewMatrix(hist, nil)
	best := splitter.Invalid
	for i := 0; i < len(list)-1; i++ {
		m.Move(list[i].Cid)
		if list[i].Val == list[i+1].Val {
			continue
		}
		cand := splitter.Candidate{
			Valid:     true,
			Gini:      m.Split(),
			Attr:      int32(attr),
			Kind:      splitter.ContSplit,
			Threshold: list[i].Val,
		}
		best = splitter.Best(best, cand)
	}
	return best
}

// splitNode applies the winning candidate, already recorded in the node:
// partitions every attribute list stably among the children, grows them,
// and returns the child states that remain active.
func splitNode(ns *nodeState, cand splitter.Candidate, schema *dataset.Schema, childOf []uint8) []*nodeState {
	attr := int(cand.Attr)
	nChildren := len(ns.node.Children)

	// Phase 1 (PerformSplitI analogue): the splitting attribute's list
	// determines each record's child; record it in the rid -> child map
	// and accumulate the child class histograms.
	childHists := make([][]int64, nChildren)
	for k := range childHists {
		childHists[k] = make([]int64, len(ns.node.Hist))
	}
	assign := func(rid int32, cid uint8, child uint8) {
		childOf[rid] = child
		childHists[child][cid]++
	}
	if schema.Attrs[attr].Kind == dataset.Continuous {
		for _, e := range ns.lists.Cont[attr] {
			assign(e.Rid, e.Cid, cand.ContChild(e.Val))
		}
	} else {
		for _, e := range ns.lists.Cat[attr] {
			assign(e.Rid, e.Cid, cand.CatChild(e.Val))
		}
	}

	// Phase 2 (PerformSplitII analogue): split every attribute list
	// stably, consulting the rid -> child map, so continuous lists stay
	// sorted within each child.
	childLists := make([]*dataset.Lists, nChildren)
	for k := range childLists {
		childLists[k] = &dataset.Lists{
			Schema: schema,
			Cont:   make([][]dataset.ContEntry, len(schema.Attrs)),
			Cat:    make([][]dataset.CatEntry, len(schema.Attrs)),
		}
	}
	for a, at := range schema.Attrs {
		if at.Kind == dataset.Continuous {
			for _, e := range ns.lists.Cont[a] {
				k := childOf[e.Rid]
				childLists[k].Cont[a] = append(childLists[k].Cont[a], e)
			}
		} else {
			for _, e := range ns.lists.Cat[a] {
				k := childOf[e.Rid]
				childLists[k].Cat[a] = append(childLists[k].Cat[a], e)
			}
		}
	}

	splitter.Grow(ns.node, childHists)
	var out []*nodeState
	for k, child := range ns.node.Children {
		if !child.Leaf {
			out = append(out, &nodeState{node: child, lists: childLists[k], depth: ns.depth + 1})
		}
	}
	return out
}
