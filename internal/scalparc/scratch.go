package scalparc

// scratch is a worker's per-level arena: every transient buffer the level
// loop needs is grown once to its high-water size and then reused across
// levels, so a steady-state level allocates O(1) (a handful of boxed
// collective deposits and per-attribute reduction outputs), independent of
// the record count. The records of each split mode (records.go) keep their
// own FindSplit and PerformSplit buffers in their own structs, under the
// same rules and through the same grab/stash helpers, gated by the same
// disabled switch.
//
// Reuse of buffers that travel through collectives follows the *Into rules
// documented in package comm: a buffer deposited at one level is refilled
// no earlier than the next level, after the current level's trailing
// collectives have proven every rank consumed it. The one sub-level reuse —
// exact mode's categorical count vector, deposited once per attribute with
// no gating collective in between — is double-buffered instead.
//
// Class counts keep the collectives' flat layout (package splitter): a split
// node's child histograms are one subslice of PerformSplitI's reduced
// vector, so no slot holds row views of reduced counts.
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

	// PerformSplitI (performSplitIBatch)
	offsets    []int
	vec        []int64
	childHists [][]int64

	// buildChildren
	childIdxBuf []int
	childIndex  [][]int
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
