package scalparc

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/splitter"
)

// rowStore is the histogram modes' records (records.go), PV-Tree's own:
// once the presort has selected the cuts from the same blocks (selectCuts),
// rank r keeps the rows it owns, rids dataset.BlockRange(N, p, r), for the
// rest of the run. Per row it holds one bin code per attribute, its class,
// and its active-node index.
//
// A binned or vote decision reads nothing but reduced (node, attribute,
// bin, class) counts, and a row's child under a candidate follows from its
// code alone (v <= cuts[b] exactly when BinOf(cuts, v) <= b), so
// FindSplitI is one pass over the rows (binned.go), PerformSplitI counts
// the children from the rows, and PerformSplitII relabels the rows
// locally: no record map, no enquiries, no list partitions. The global
// counts do not depend on the layout, so neither does the binned tree
// (DESIGN.md §5); vote's local ballots are cast on row samples, as in
// PV-Tree (DESIGN.md §10).
type rowStore struct {
	frameState // tag is SplitBinned, or SplitVote when embedded in a voteStore

	// codes[r·attrs + a] is row r's bin code of attribute a (binCodes).
	codes []uint16
	// class is the rows' class labels: the table's own storage, read-only.
	class []uint8
	// node[r] is row r's active-node index, -1 once it is retired into a
	// leaf.
	node []int32
	// child[r] is row r's child number under its node's split, written by
	// assign and read by split within one level.
	child []uint8

	// Arena buffers (see scratch.go for the reuse rules).
	rules    []splitRule // the level's rule per active node
	attrBins []int
	nodeOf   []int
	groupOff []int
	hist     []uint32
	round    exchangeBufs
	below    []int64
	above    []int64
	catFlat  []int64
}

// A row's code is a uint16: it holds Bins <= 65536 quantile bins
// (CheckOptions) and every categorical value, since Schema.Validate caps a
// domain at dataset.MaxCategories. This fails to compile if the cap ever
// outgrows the code.
const _ = uint16(dataset.MaxCategories - 1)

// binCodes codes rows [lo, hi) of tab for the row store: one code per
// (row, attribute), row-major — a continuous value as its bin
// histogram.BinOf(cuts[a], v), a categorical value as itself. It is the only
// place codes are made: a fresh start and a restore both code their block
// with it.
func binCodes(tab *dataset.Table, lo, hi int, cuts [][]float64) []uint16 {
	na := tab.Schema.NumAttrs()
	codes := make([]uint16, (hi-lo)*na)
	for a, attr := range tab.Schema.Attrs {
		if attr.Kind == dataset.Continuous {
			cv := cuts[a]
			for r, v := range tab.ContColumn(a)[lo:hi] {
				codes[r*na+a] = uint16(histogram.BinOf(cv, v))
			}
		} else {
			for r, v := range tab.CatColumn(a)[lo:hi] {
				codes[r*na+a] = uint16(v)
			}
		}
	}
	return codes
}

// load codes the block, the root owning every row, under the cuts a
// restore decoded or, on a fresh start, the cuts it selects first. Coding
// is modeled like a list pass over the block's entries.
func (rs *rowStore) load(wk *worker, tab *dataset.Table) {
	if rs.cuts == nil {
		rs.selectCuts(wk, tab)
	}
	lo, hi := dataset.BlockRange(wk.n, wk.c.Size(), wk.c.Rank())
	rs.codes = binCodes(tab, lo, hi, rs.cuts)
	rs.class = tab.Class[lo:hi]
	rs.node = make([]int32, hi-lo)
	rs.child = make([]uint8, hi-lo)
	wk.c.Compute(wk.c.Model().SplitTime(len(rs.codes)))
}

func (rs *rowStore) bytes() int64 {
	b := int64(len(rs.codes))*2 + int64(len(rs.class)) + int64(len(rs.node))*4 + int64(len(rs.child))
	for _, cv := range rs.cuts {
		b += int64(len(cv)) * 8
	}
	return b
}

// free has nothing to release: the row store builds no record map.
func (*rowStore) free() {}

// rebalance does nothing: a rank keeps the rows it owns for the whole run,
// so Options.RebalanceLevels is a no-op in the histogram modes.
func (*rowStore) rebalance(*worker) {}

// splitRule is a split node's candidate in code space.
type splitRule struct {
	attr int
	cont bool
	bin  int // continuous: a code <= bin goes to child 0, any other to 1
	cand splitter.Candidate
}

func newSplitRule(cand splitter.Candidate, cuts [][]float64) splitRule {
	ru := splitRule{attr: int(cand.Attr), cand: cand}
	if cand.Kind == splitter.ContSplit {
		// Every binned threshold is a cut (bestBinnedCont), so "v <=
		// threshold" is "code <= the cut's index".
		cv := cuts[ru.attr]
		ru.cont, ru.bin = true, histogram.BinOf(cv, cand.Threshold)
		if ru.bin == len(cv) || cv[ru.bin] != cand.Threshold {
			panic(fmt.Sprintf("scalparc: threshold %v of attribute %d is not a cut", cand.Threshold, ru.attr))
		}
	}
	return ru
}

func (ru *splitRule) child(code uint16) uint8 {
	if !ru.cont {
		return ru.cand.CatChild(int32(code))
	}
	if int(code) > ru.bin {
		return 1
	}
	return 0
}

func (rs *rowStore) assign(wk *worker, doSplit []bool, splitIdx []int, cands []splitter.Candidate, offsets []int, vec []int64) {
	na, nc := wk.schema.NumAttrs(), wk.schema.NumClasses()
	rules := grabRaw(wk.ar, &rs.rules, len(wk.active))
	for i := range wk.active {
		if doSplit[i] {
			rules[i] = newSplitRule(cands[splitIdx[i]], rs.cuts)
		}
	}
	work := 0
	for r, i := range rs.node {
		if i < 0 || !doSplit[i] {
			continue
		}
		ru := &rules[i]
		ch := ru.child(rs.codes[r*na+ru.attr])
		rs.child[r] = ch
		vec[offsets[i]+int(ch)*nc+int(rs.class[r])]++
		work++
	}
	wk.c.Compute(wk.c.Model().SplitTime(work))
}

// split relabels the owned rows: a row of a split node takes its child's
// index in the next level, every other row retires. It sends nothing.
func (rs *rowStore) split(wk *worker, doSplit []bool, _ []int, _ []splitter.Candidate, _ int, childIndex [][]int) {
	moved := 0
	for r, i := range rs.node {
		if i < 0 {
			continue
		}
		if !doSplit[i] {
			rs.node[r] = -1
			continue
		}
		ni := childIndex[i][rs.child[r]]
		if ni < 0 {
			panic(fmt.Sprintf("scalparc: row %d in a globally empty child", r))
		}
		rs.node[r] = int32(ni)
		moved++
	}
	wk.c.Compute(wk.c.Model().SplitTime(moved))
}

// held counts the owned rows not yet retired.
func (rs *rowStore) held() int {
	n := 0
	for _, i := range rs.node {
		if i >= 0 {
			n++
		}
	}
	return n
}

// relabel takes the node indices of the rows this rank owns.
func (rs *rowStore) relabel(wk *worker, node []int32) int {
	lo, hi := dataset.BlockRange(wk.n, wk.c.Size(), wk.c.Rank())
	copy(rs.node, node[lo:hi])
	return hi - lo
}
