// Package infer is the compiled batch-inference engine: it flattens a
// pointer-linked tree.Tree into a flat node table laid out in breadth-first
// order and classifies record batches level by level, with a worker pool
// sized by GOMAXPROCS for table-scale prediction.
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
// with conditional moves (see predictRange).
//
// Labels are bit-identical to the pointer walker — tree.PredictTableWalk
// remains the oracle, and the differential + fuzz suites pin equality
// including NaN and out-of-domain categorical inputs (both sides route
// those to the majority branch; see the fallback rule on tree.Node).
package infer

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
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

// Model is a compiled tree: the flat node table in breadth-first order
// with the root at index 0, plus the subset nodes' shared bitset words.
type Model struct {
	schema *dataset.Schema
	nodes  []node
	subset []uint64
	leaves int
	depth  int
	// scratch pools the hoisted column-accessor pair PredictTableInto
	// builds per call, so steady-state table prediction allocates
	// nothing. Discipline: acquire only after every validation that can
	// return an error — an early return between get and put would strand
	// the buffers (the pool-balance regression tests pin this).
	scratch sync.Pool
}

// tableScratch is one pooled accessor pair, sized to the model's schema.
type tableScratch struct {
	cont [][]float64
	cat  [][]int32
}

// scratchGets and scratchPuts count pool traffic across all models; the
// regression tests assert they stay balanced, i.e. no code path acquires
// scratch and error-returns without releasing it.
var scratchGets, scratchPuts atomic.Int64

func (m *Model) getScratch() *tableScratch {
	scratchGets.Add(1)
	if s, ok := m.scratch.Get().(*tableScratch); ok {
		return s
	}
	n := m.schema.NumAttrs()
	return &tableScratch{cont: make([][]float64, n), cat: make([][]int32, n)}
}

func (m *Model) putScratch(s *tableScratch) {
	// Columns belong to the caller's table; do not pin them past the call.
	for i := range s.cont {
		s.cont[i] = nil
		s.cat[i] = nil
	}
	scratchPuts.Add(1)
	m.scratch.Put(s)
}

// Stats describes a compiled model's footprint.
type Stats struct {
	Nodes       int
	Leaves      int
	Depth       int
	SubsetWords int
	// Bytes is the flat table's total size (node records + bitsets).
	Bytes int
}

// Stats returns the compiled model's footprint figures.
func (m *Model) Stats() Stats {
	return Stats{
		Nodes:       len(m.nodes),
		Leaves:      m.leaves,
		Depth:       m.depth,
		SubsetWords: len(m.subset),
		Bytes:       len(m.nodes)*24 + len(m.subset)*8,
	}
}

// Predict returns the class index for one row in the dataset.Table value
// convention. Bit-identical to tree.Tree.Predict, including the
// majority-branch fallback for NaN and out-of-domain categorical values.
func (m *Model) Predict(row []float64) int {
	nodes := m.nodes
	i := int32(0)
	for {
		nd := &nodes[i]
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
// mirroring tree.Node.childFor.
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
// table level by level; large tables are split across GOMAXPROCS workers.
func (m *Model) PredictTableInto(tab *dataset.Table, out []int) error {
	if err := m.compatible(tab); err != nil {
		return err
	}
	if len(out) != tab.NumRows() {
		return fmt.Errorf("infer: out has %d slots for %d rows", len(out), tab.NumRows())
	}
	// Hoist the column accessors once: the batch kernel indexes raw
	// columns, never Table.Value. The accessor pair is pooled (every
	// error return is above this line; see Model.scratch).
	sc := m.getScratch()
	cont, cat := sc.cont, sc.cat
	for a := range tab.Schema.Attrs {
		if tab.Schema.Attrs[a].Kind == dataset.Continuous {
			cont[a] = tab.ContColumn(a)
		} else {
			cat[a] = tab.CatColumn(a)
		}
	}

	rows := tab.NumRows()
	workers := runtime.GOMAXPROCS(0)
	if rows < minParallelRows || workers < 2 {
		m.predictRange(cont, cat, out, 0, rows)
		m.putScratch(sc)
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := dataset.BlockRange(rows, workers, w)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			m.predictRange(cont, cat, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	m.putScratch(sc)
	return nil
}

// predictRange classifies rows [lo, hi): batchRows cursors advance through
// the node table together, one level per pass, until every cursor rests on
// a leaf. Finished cursors are compacted away so each pass touches only
// still-walking rows.
func (m *Model) predictRange(cont [][]float64, cat [][]int32, out []int, lo, hi int) {
	nodes, subset := m.nodes, m.subset
	var cur, rid [batchRows]int32
	for base := lo; base < hi; base += batchRows {
		n := hi - base
		if n > batchRows {
			n = batchRows
		}
		for i := 0; i < n; i++ {
			cur[i] = 0
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
}

// compatible checks that the table's schema matches the one the model was
// compiled for (attribute count and kinds, class count).
func (m *Model) compatible(tab *dataset.Table) error { return compatibleSchema(m.schema, tab) }

// compatibleSchema is the shared schema check for the single-tree and
// forest models.
func compatibleSchema(schema *dataset.Schema, tab *dataset.Table) error {
	if tab.Schema == schema {
		return nil
	}
	if len(tab.Schema.Attrs) != len(schema.Attrs) || len(tab.Schema.Classes) != len(schema.Classes) {
		return fmt.Errorf("infer: table schema (%d attrs, %d classes) incompatible with compiled model (%d attrs, %d classes)",
			len(tab.Schema.Attrs), len(tab.Schema.Classes), len(schema.Attrs), len(schema.Classes))
	}
	for a := range schema.Attrs {
		if tab.Schema.Attrs[a].Kind != schema.Attrs[a].Kind {
			return fmt.Errorf("infer: attribute %d is %v in the table but %v in the compiled model",
				a, tab.Schema.Attrs[a].Kind, schema.Attrs[a].Kind)
		}
	}
	return nil
}

// parallelWorkers returns how many workers a table of the given row count
// should fan out across: 1 below the parallel threshold, else GOMAXPROCS.
func parallelWorkers(rows int) int {
	if w := runtime.GOMAXPROCS(0); rows >= minParallelRows && w >= 2 {
		return w
	}
	return 1
}
