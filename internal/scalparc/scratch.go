package scalparc

import (
	"repro/internal/dataset"
	"repro/internal/nodetable"
)

// scratch is a worker's per-level arena: every transient buffer the level
// loop and the splitting phases need is grown once to its high-water size
// and then reused across levels, so a steady-state level allocates O(1) (a
// handful of boxed collective deposits and per-attribute reduction
// outputs), independent of the record count. The split finders keep their
// FindSplit buffers in their own structs, under the same rules and through
// the same grab/stash helpers.
//
// Reuse of buffers that travel through collectives follows the *Into rules
// documented in package comm: a buffer deposited at one level is refilled
// no earlier than the next level, after the current level's trailing
// collectives have proven every rank consumed it. The one sub-level reuse —
// the categorical count vector, deposited once per attribute with no
// gating collective in between — is double-buffered instead.
//
// The memory meter keeps charging the modeled per-level byte footprint of
// these buffers even though the host now reuses them: the meter models the
// algorithm's memory requirement, not the Go heap (DESIGN.md §5).
//
// The per-node ablation (Options.PerNodeComms) disables the arena: its
// sub-level collective cadence does not satisfy the reuse rules, and the
// ablation measures communication structure, not host allocation.
type scratch struct {
	disabled bool

	// runLevel
	splitIdx []int
	doSplit  []bool

	// performSplitI
	offsets    []int
	vec        []int64
	assigns    []nodetable.Assignment
	childsBuf  []uint8
	splitChild [][]uint8
	histsBuf   [][]int64
	childHists [][][]int64

	// buildChildren
	childIdxBuf []int
	childIndex  [][]int

	// performSplitII
	enqRids   []int32
	offCache  []int                 // batched-enquiry per-attribute offsets
	bucketNs  []int                 // counting-sort child counts, then running offsets
	spareCont [][]dataset.ContEntry // double buffers swapped with the lists
	spareCat  [][]dataset.CatEntry
	spareSegs [][]seg
}

func newScratch(numAttrs int, disabled bool) *scratch {
	return &scratch{
		disabled:  disabled,
		spareCont: make([][]dataset.ContEntry, numAttrs),
		spareCat:  make([][]dataset.CatEntry, numAttrs),
		spareSegs: make([][]seg, numAttrs),
	}
}

// grabRaw returns *buf resliced to length n with unspecified contents,
// growing the backing only when too small. With the arena disabled it
// always returns a fresh allocation and leaves *buf alone.
func grabRaw[T any](ar *scratch, buf *[]T, n int) []T {
	if ar.disabled {
		return make([]T, n)
	}
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// grab is grabRaw with the result zeroed.
func grab[T any](ar *scratch, buf *[]T, n int) []T {
	s := grabRaw(ar, buf, n)
	if !ar.disabled {
		clear(s)
	}
	return s
}

// stash records a slice grown by an appending loop or a comm *Into call
// back into its arena slot (skipped when the arena is disabled, keeping
// those paths allocation-per-call) and returns it.
func stash[T any](ar *scratch, buf *[]T, s []T) []T {
	if !ar.disabled {
		*buf = s
	}
	return s
}
