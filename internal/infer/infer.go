// Package infer is the compiled batch-inference engine: it flattens a
// pointer-linked tree.Forest (a single tree is a forest of one) into a flat
// node table laid out in breadth-first order and classifies record batches
// level by level, with a worker pool sized by GOMAXPROCS for table-scale
// prediction.
//
// The engine exists because serving traffic runs through prediction, not
// induction: the pointer walker chases heap nodes (a Node with its Hist
// spans ~200 scattered bytes) and the pre-engine PredictTable re-gathered
// every row column by column through Table.Value. The compiled table packs
// a node into one 24-byte record — attribute, kind, threshold, child
// offset, majority-branch fallback — plus shared subset bitset words, so
// one node visit costs one cache line instead of a handful (a
// struct-of-arrays split of the same fields touches 4-5). The other half
// of the win is branch-free routing: a split's which-child compare is
// ~50/50 at a typical node, and the profiled cost of the walker is
// dominated by those mispredicts, so the batch kernel selects children
// with conditional moves (see walkColumns).
//
// Labels are bit-identical to the pointer walkers — tree.PredictTableWalk
// and Forest.PredictTableWalk remain the oracles, and the differential +
// fuzz suites pin equality including NaN and out-of-domain categorical
// inputs (both sides route those to the majority branch; see the fallback
// rule on tree.Node) and the vote's lowest-class-index tie rule.
package infer

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/tree"
)

// Node kinds; two bits of a node record's meta field.
const (
	nodeLeaf uint8 = iota
	nodeCont
	nodeSubset
	nodeMway
)

// Batching parameters: batchRows record cursors walk the tree together so
// hot nodes and the rows' column segments stay cached across one level
// before the next is touched, and the per-row loads of a level are
// independent, letting the CPU overlap their misses; tables below
// minParallelRows are not worth fanning out to workers.
const (
	batchRows       = 512
	minParallelRows = 8192
)

// node is one flat-table entry, 24 bytes.
type node struct {
	// aux holds the continuous threshold's Float64bits, or a subset
	// node's first word index into Model.subset.
	aux uint64
	// meta packs kind into the low two bits and the split attribute
	// (internal nodes) or class label (leaves) above them.
	meta int32
	// first is the absolute index of the node's first child; children
	// are contiguous, so sibling c lives at first+c. -1 for leaves.
	first int32
	// dflt is the absolute index of the majority-branch child — the
	// fallback for NaN and out-of-domain categorical values; -1 for
	// leaves.
	dflt int32
	// ncard is the categorical domain size for subset and m-way nodes
	// (the range of routable values); 0 otherwise.
	ncard int32
}

func (n *node) kind() uint8    { return uint8(n.meta & 3) }
func (n *node) payload() int32 { return n.meta >> 2 }

// Model is a compiled forest — a single tree is a forest of one: every
// tree's nodes in breadth-first order in one flat table, plus the subset
// nodes' shared bitset words. Batch prediction walks each batchRows-row
// batch through the trees in turn, so the batch's column segments stay
// cached across all T walks; each walk's labels are added to a per-batch
// vote tally that is resolved with tree.VoteArgmax's tie rule (lowest
// class index), which makes predictions independent of tree order. A
// one-root model has no tally: a vote of one is the label itself.
type Model struct {
	schema *dataset.Schema
	nodes  []node
	subset []uint64
	// roots[t] is tree t's root index in the node table.
	roots  []int32
	leaves int
	depth  int // maximum single-tree depth
	// pool recycles prediction workspaces so steady-state prediction
	// allocates nothing. Discipline: acquire only after every validation
	// that can return an error — an early return between get and put
	// would strand the buffers (the pool-balance regression tests pin
	// this).
	pool sync.Pool
}

// scratch is one pooled prediction workspace, sized to the model.
type scratch struct {
	cont  [][]float64
	cat   [][]int32
	votes []int32 // batchRows × classes; nil for a one-root model
}

// scratchGets and scratchPuts count pool traffic across all models; the
// regression tests assert they stay balanced, i.e. no code path acquires
// scratch and error-returns without releasing it.
var scratchGets, scratchPuts atomic.Int64

func (m *Model) getScratch() *scratch {
	scratchGets.Add(1)
	if s, ok := m.pool.Get().(*scratch); ok {
		return s
	}
	n := m.schema.NumAttrs()
	s := &scratch{cont: make([][]float64, n), cat: make([][]int32, n)}
	if len(m.roots) > 1 {
		s.votes = make([]int32, batchRows*m.schema.NumClasses())
	}
	return s
}

func (m *Model) putScratch(s *scratch) {
	// Columns belong to the caller's table; do not pin them past the call.
	clear(s.cont)
	clear(s.cat)
	scratchPuts.Add(1)
	m.pool.Put(s)
}

// Stats describes a compiled model's footprint.
type Stats struct {
	Trees       int
	Nodes       int
	Leaves      int
	Depth       int
	SubsetWords int
	// Bytes is the flat table's total size (node records + bitsets +
	// root offsets).
	Bytes int
}

// Footprint returns the compiled model's footprint figures.
func (m *Model) Footprint() Stats {
	return Stats{
		Trees:       len(m.roots),
		Nodes:       len(m.nodes),
		Leaves:      m.leaves,
		Depth:       m.depth,
		SubsetWords: len(m.subset),
		Bytes:       len(m.nodes)*24 + len(m.subset)*8 + len(m.roots)*4,
	}
}

// Predict returns the majority-vote class index for one row in the
// dataset.Table value convention. Bit-identical to tree.Forest.Predict,
// including the per-tree majority-branch fallback for NaN and out-of-domain
// categorical values and the lowest-class-index vote tie rule.
func (m *Model) Predict(row []float64) int {
	if len(m.roots) == 1 {
		return m.leafLabel(m.roots[0], row)
	}
	votes := make([]int32, m.schema.NumClasses())
	for _, root := range m.roots {
		votes[m.leafLabel(root, row)]++
	}
	return tree.VoteArgmax(votes)
}

// leafLabel walks one row from root to its leaf and returns the label.
func (m *Model) leafLabel(root int32, row []float64) int {
	for i := root; ; {
		nd := &m.nodes[i]
		if nd.kind() == nodeLeaf {
			return int(nd.payload())
		}
		i = m.route(nd, row[nd.payload()])
	}
}

// route returns the child index value v descends to from internal node nd:
// the single untrusted-value routing rule, shared by Predict and the
// row-major batch kernel so their answers cannot drift apart. NaN and
// out-of-domain categorical values take the majority branch (nd.dflt),
// mirroring tree.Node.ChildFor.
func (m *Model) route(nd *node, v float64) int32 {
	switch nd.kind() {
	case nodeCont:
		switch {
		case v != v:
			return nd.dflt
		case v <= math.Float64frombits(nd.aux):
			return nd.first
		default:
			return nd.first + 1
		}
	case nodeSubset:
		if !(v >= 0 && v < float64(nd.ncard)) {
			return nd.dflt
		}
		if c := int32(v); m.subset[nd.aux+uint64(c>>6)]&(1<<(uint(c)&63)) != 0 {
			return nd.first
		}
		return nd.first + 1
	default: // nodeMway
		if !(v >= 0 && v < float64(nd.ncard)) {
			return nd.dflt
		}
		return nd.first + int32(v)
	}
}

// PredictTable classifies every row of the table and returns the labels.
func (m *Model) PredictTable(tab *dataset.Table) ([]int, error) {
	out := make([]int, tab.NumRows())
	if err := m.PredictTableInto(tab, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictTableInto classifies every row of the table into out, which must
// have one slot per row. Rows are processed in batches that walk the flat
// table level by level; large tables are split across GOMAXPROCS workers,
// whose batches are independent so the split is free.
func (m *Model) PredictTableInto(tab *dataset.Table, out []int) error {
	if err := m.compatible(tab); err != nil {
		return err
	}
	rows := tab.NumRows()
	if len(out) != rows {
		return fmt.Errorf("infer: out has %d slots for %d rows", len(out), rows)
	}
	workers := runtime.GOMAXPROCS(0)
	if rows < minParallelRows || workers < 2 {
		m.predictRange(tab, out, 0, rows)
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := dataset.BlockRange(rows, workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.predictRange(tab, out, lo, hi)
		}()
	}
	wg.Wait()
	return nil
}

// predictRange classifies rows [lo, hi) of a compatible table. It cannot
// fail, so the workspace it acquires is always released.
func (m *Model) predictRange(tab *dataset.Table, out []int, lo, hi int) {
	// Hoist the column accessors once: the kernel indexes raw columns,
	// never Table.Value.
	sc := m.getScratch()
	cont, cat := sc.cont, sc.cat
	for a := range tab.Schema.Attrs {
		if tab.Schema.Attrs[a].Kind == dataset.Continuous {
			cont[a] = tab.ContColumn(a)
		} else {
			cat[a] = tab.CatColumn(a)
		}
	}
	m.vote(sc.votes, out, lo, hi, func(root int32, base, n int) { m.walkColumns(cont, cat, root, out, base, n) })
	m.putScratch(sc)
}

// vote labels rows [lo, hi) of out in batches of batchRows, where walk
// labels one batch by the tree at one root. A one-root model's labels are
// final as walked; otherwise every tree's labels for the batch are added to
// the tally (so the batch's inputs stay cached across all the walks) and
// the batch is resolved with tree.VoteArgmax.
func (m *Model) vote(votes []int32, out []int, lo, hi int, walk func(root int32, base, n int)) {
	nc := m.schema.NumClasses()
	for base := lo; base < hi; base += batchRows {
		n := min(hi-base, batchRows)
		if len(m.roots) == 1 {
			walk(m.roots[0], base, n)
			continue
		}
		batch := out[base : base+n]
		clear(votes[:n*nc])
		for _, root := range m.roots {
			walk(root, base, n)
			for i, label := range batch {
				votes[i*nc+label]++
			}
		}
		for i := range batch {
			batch[i] = tree.VoteArgmax(votes[i*nc : (i+1)*nc])
		}
	}
}

// walkColumns is the column-major kernel: it labels rows [base, base+n),
// n <= batchRows, by the tree at root. The rows' cursors advance through
// the node table together, one level per pass, until every cursor rests on
// a leaf; finished cursors are compacted away so each pass touches only
// still-walking rows.
func (m *Model) walkColumns(cont [][]float64, cat [][]int32, root int32, out []int, base, n int) {
	nodes, subset := m.nodes, m.subset
	var cur, rid [batchRows]int32
	for i := 0; i < n; i++ {
		cur[i] = root
		rid[i] = int32(base + i)
	}
	for active := n; active > 0; {
		w := 0
		for i := 0; i < active; i++ {
			nd := &nodes[cur[i]]
			r := rid[i]
			k := uint8(nd.meta) & 3
			if k == nodeCont {
				// The which-child compare is ~50/50 at a typical
				// split, so it must not be a branch: the
				// conditional increment compiles to a CMOV. The
				// NaN override stays a branch — table columns are
				// finite by construction (AppendRow rejects NaN),
				// so it never mispredicts, but the engine keeps
				// the walker's exact routing rule anyway.
				v := cont[nd.meta>>2][r]
				next := nd.first
				if v > math.Float64frombits(nd.aux) {
					next++
				}
				if v != v {
					next = nd.dflt
				}
				cur[w] = next
				rid[w] = r
				w++
				continue
			}
			if k == nodeLeaf {
				out[r] = int(nd.meta >> 2)
				continue
			}
			var next int32
			if k == nodeSubset {
				c := cat[nd.meta>>2][r]
				if uint32(c) >= uint32(nd.ncard) {
					next = nd.dflt
				} else {
					// Branchless again: bit-test the member set
					// and add the 0/1 verdict to the first child.
					next = nd.first + 1
					if subset[nd.aux+uint64(c>>6)]&(1<<(uint(c)&63)) != 0 {
						next = nd.first
					}
				}
			} else { // nodeMway
				c := cat[nd.meta>>2][r]
				if uint32(c) >= uint32(nd.ncard) {
					next = nd.dflt
				} else {
					next = nd.first + c
				}
			}
			cur[w] = next
			rid[w] = r
			w++
		}
		active = w
	}
}

// compatible checks that the table's schema has the shape of the one the
// model was compiled for (attribute count and kinds, class count).
func (m *Model) compatible(tab *dataset.Table) error {
	if err := m.schema.SameShape(tab.Schema); err != nil {
		return fmt.Errorf("infer: table schema incompatible with compiled model: %w", err)
	}
	return nil
}
