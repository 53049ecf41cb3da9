package infer

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/tree"
)

// Compiled is the prediction surface the serving layer's cache stores and
// its micro-batcher answers from; tests substitute fakes behind it.
type Compiled interface {
	// Predict classifies one row in the dataset.Table value convention.
	Predict(row []float64) int
	// PredictRowsInto classifies row-major untrusted records (the serving
	// path: NaN and out-of-domain values route to majority branches).
	PredictRowsInto(rows [][]float64, out []int) error
	// PredictTableInto classifies every row of a table.
	PredictTableInto(tab *dataset.Table, out []int) error
	// Footprint reports the flat table's size figures.
	Footprint() Stats
}

var _ Compiled = (*Model)(nil)

// Compile flattens a single tree: CompileForest of a forest of one.
func Compile(t *tree.Tree) (*Model, error) {
	if t == nil {
		return nil, fmt.Errorf("infer: cannot compile a nil tree")
	}
	return CompileForest(&tree.Forest{Schema: t.Schema, Trees: []*tree.Tree{t}})
}

// CompileForest flattens every tree of the forest into one node table,
// each tree emitted at its base offset so the per-tree walks run on the
// shared table with no indirection beyond the root offset. The forest must
// pass tree.Forest.Validate — the one definition of a well-formed model,
// shared with the decoder — so the emitter itself checks nothing but the
// table's index space.
func CompileForest(f *tree.Forest) (*Model, error) {
	if f == nil {
		return nil, fmt.Errorf("infer: cannot compile a nil forest")
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("infer: %w", err)
	}
	m := &Model{schema: f.Schema, roots: make([]int32, 0, len(f.Trees))}
	for i, t := range f.Trees {
		if err := m.emit(t.Root); err != nil {
			return nil, fmt.Errorf("infer: forest tree %d: %w", i, err)
		}
	}
	return m, nil
}

// emit appends one tree to the table. Nodes are numbered breadth-first
// from the tree's base with every node's children contiguous, so a
// level-by-level batch walk sweeps the table forward. The majority-branch
// fallback child is resolved here, once, with the same rule the pointer
// walker applies per lookup (Node.MajorityChild).
func (m *Model) emit(root *tree.Node) error {
	base := len(m.nodes)
	m.roots = append(m.roots, int32(base))
	// Standard BFS emission: popping node i appends its children at the
	// current queue tail, which is exactly their index past base. A level
	// ends where the queue ended when the previous one did.
	queue := []*tree.Node{root}
	depth, levelEnd := 0, 1
	for i := 0; i < len(queue); i++ {
		if i == levelEnd {
			depth++
			levelEnd = len(queue)
		}
		nd := queue[i]
		if nd.Leaf {
			m.nodes = append(m.nodes, node{meta: int32(nd.Label)<<2 | int32(nodeLeaf), first: -1, dflt: -1})
			m.leaves++
			continue
		}
		if n := base + len(queue) + len(nd.Children); n > math.MaxInt32>>2 {
			return fmt.Errorf("the flat table indexes with int32; %d nodes overflow it", n)
		}
		first := int32(base + len(queue))
		rec := node{
			meta:  int32(nd.Attr) << 2,
			first: first,
			dflt:  first + int32(nd.MajorityChild()),
		}
		switch {
		case nd.Kind == dataset.Continuous:
			rec.meta |= int32(nodeCont)
			rec.aux = math.Float64bits(nd.Threshold)
		case nd.Subset != nil:
			rec.meta |= int32(nodeSubset)
			rec.aux = uint64(len(m.subset))
			rec.ncard = int32(len(nd.Subset))
			m.subset = append(m.subset, make([]uint64, (len(nd.Subset)+63)/64)...)
			for v, in := range nd.Subset {
				if in {
					m.subset[rec.aux+uint64(v/64)] |= 1 << (uint(v) & 63)
				}
			}
		default:
			rec.meta |= int32(nodeMway)
			rec.ncard = int32(len(nd.Children))
		}
		m.nodes = append(m.nodes, rec)
		queue = append(queue, nd.Children...)
	}
	m.depth = max(m.depth, depth)
	return nil
}
