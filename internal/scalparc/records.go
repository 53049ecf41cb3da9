package scalparc

import (
	"repro/internal/dataset"
	"repro/internal/splitter"
)

// records is the one seam between the level loop and a split mode: the
// layout the training records live in together with the FindSplit that
// reads it, chosen once in newWorker from Options.Split. The paper's
// induction loop — presort once, then FindSplitI/II and PerformSplitI/II per
// level — is the same in every mode; the records and how a split is found
// and performed on them are not:
//
//   - exact mode's attribute lists (lists, lists.go): every distinct value
//     is a candidate threshold, so the sorted scans need every attribute's
//     values in global order, and PerformSplit splits the lists through
//     the record map, as the paper does;
//   - the histogram modes' row store (rowStore, rows.go and binned.go): a
//     binned decision depends only on the reduced (node, attribute, bin,
//     class) counts and on the cuts selected at presort, so each rank
//     keeps the rows it owns as bin codes, builds no lists, and
//     PerformSplit is a local relabel;
//   - vote (voteStore, vote.go): the row store plus PV-Tree's candidate
//     filter in front of its exchange.
//
// The level loop, the checkpoint frame and the recovery protocol are the
// same for all three: a restore loads the records as a fresh start does and
// relabels each with the frontier node the checkpointed tree routes it to
// (checkpoint.go). Everything a mode needs beyond the worker's replicated
// state (cuts, vote parameters, arena buffers, its section of the shared
// checkpoint frame) lives behind this interface, and the worker never asks
// which mode it is running.
type records interface {
	// load fills the records from this rank's block of the table, the root
	// holding every record, inside the presort phase. The row store first
	// selects its cuts from the table, unless a restore has decoded them
	// from the shared frame.
	load(wk *worker, tab *dataset.Table)
	// find runs FindSplitI and the candidate half of FindSplitII for one
	// batch of need-split nodes (splitIdx maps active-node index to
	// need-split index, -1 if terminated) and returns the globally agreed
	// winner per need-split node. A collective: every rank calls it with
	// the same batch.
	find(wk *worker, splitIdx []int, nNeed int) []splitter.Candidate
	// assign is PerformSplitI's local pass: every record of a split node
	// (doSplit) gets its child under the node's candidate, counted into vec
	// at offsets[i] + child·classes + class. The records keep the children
	// for split, charge the pass's modeled time, and (lists) deliver them
	// to the record map. Under Options.PerNodeComms it runs once per node,
	// with doSplit naming that node only.
	assign(wk *worker, doSplit []bool, splitIdx []int, cands []splitter.Candidate, offsets []int, vec []int64)
	// split is PerformSplitII: every record of a split node moves to its
	// child's index among the nextCount nodes of the next level
	// (childIndex), and every other record is retired.
	split(wk *worker, doSplit []bool, splitIdx []int, cands []splitter.Candidate, nextCount int, childIndex [][]int)
	// rebalance is Options.RebalanceLevels' pass after a level.
	rebalance(wk *worker)
	// held is the number of records this rank holds under the frontier,
	// which a checkpoint save is charged a pass over.
	held() int
	// relabel files the records of a freshly loaded layout under the
	// frontier restored from a checkpoint: node[rid] is a record's frontier
	// node, -1 once it is retired. It returns the entries this rank now
	// holds (for the modeled reload cost).
	relabel(wk *worker, node []int32) int
	// frame is the mode's section of the shared checkpoint frame.
	frame() *frameState
	// bytes is the records' long-lived metered size at their current
	// lengths, cuts included; every pass that resizes them meters the
	// change.
	bytes() int64
	// fallbacks feeds Result.VoteFallbacks.
	fallbacks() int
	// free releases what the records hold beyond bytes (the record map).
	free()
}

// frameState is the part of a split mode that crosses a checkpoint —
// exactly its section of the shared frame: the mode's tag, the bin count,
// and one quantile cut vector per attribute. Every mode embeds it (lists
// with zero bins and no cuts), so the section has one codec.
type frameState struct {
	tag  SplitStrategy
	bins int
	// cuts[a] is the strictly increasing cut vector of continuous attribute
	// a (nil for categorical attributes), selected once at presort time and
	// identical on every rank; nil until selected or decoded.
	cuts [][]float64
}

func (s *frameState) frame() *frameState { return s }

// fallbacks is zero for every mode but vote, which overrides it.
func (*frameState) fallbacks() int { return 0 }

func (s *frameState) encodeState(e *enc, numAttrs int) {
	e.u8(uint8(s.tag))
	e.u32(uint32(s.bins))
	e.u32(uint32(numAttrs))
	for a := 0; a < numAttrs; a++ {
		var cv []float64
		if s.cuts != nil {
			cv = s.cuts[a]
		}
		e.u32(uint32(len(cv)))
		for _, v := range cv {
			e.f64(v)
		}
	}
}

// decodeState reads the section into s. It fails d unless the frame was
// written under the mode and bin count s was built for — a resume must
// continue the run it checkpointed, not a hybrid of two — and unless every
// cut vector is one a presort selects: strictly increasing, at most
// bins − 1 cuts, none on a categorical attribute, none in an exact frame.
func (s *frameState) decodeState(d *dec, schema *dataset.Schema) {
	tag, bins := SplitStrategy(d.u8()), int(d.u32())
	if d.err == nil && (tag != s.tag || bins != s.bins) {
		d.fail("written by a %v run with %d bins, but Options ask for %v with %d bins", tag, bins, s.tag, s.bins)
	}
	nAttrs := int(d.u32())
	if d.err == nil && nAttrs != schema.NumAttrs() {
		d.fail("%d attributes, schema has %d", nAttrs, schema.NumAttrs())
	}
	if d.err != nil {
		return
	}
	s.cuts = make([][]float64, nAttrs)
	for a := range s.cuts {
		n := int(d.u32())
		switch {
		case d.err != nil || n == 0:
		case s.tag == SplitExact:
			d.fail("exact frame holds %d cuts of attribute %d", n, a)
		case schema.Attrs[a].Kind == dataset.Categorical:
			d.fail("%d cuts of categorical attribute %d", n, a)
		case n > s.bins-1:
			d.fail("%d cuts of attribute %d, more than %d bins allow", n, a, s.bins)
		case n > (len(d.b)-d.off)/8:
			d.fail("truncated cut vector")
		}
		for j := 0; j < n && d.err == nil; j++ {
			v := d.finite()
			if j > 0 && v <= s.cuts[a][j-1] {
				d.fail("cuts of attribute %d not strictly increasing at cut %d", a, j)
			}
			s.cuts[a] = append(s.cuts[a], v)
		}
	}
}
