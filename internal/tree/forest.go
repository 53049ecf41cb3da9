package tree

import (
	"fmt"

	"repro/internal/dataset"
)

// Forest is a bagged ensemble of decision trees over one schema. Prediction
// is by majority vote: every tree votes its leaf label and the class with
// the most votes wins, ties broken to the lowest class index — the same
// deterministic tie rule Majority applies to histograms, so ensemble
// predictions never depend on tree order (a tie is a tie regardless of
// which trees contributed which votes; the order-invariance property is
// pinned by a quick.Check differential).
//
// The methods here are the reference pointer walkers; internal/infer
// compiles a Forest — a single tree is a forest of one — into one flat node
// table with a branch-free batch vote kernel (infer.CompileForest) that is
// differentially tested against them.
type Forest struct {
	Schema *dataset.Schema
	Trees  []*Tree
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.Trees) }

// Validate checks that the forest is non-empty and every tree is well formed
// over the forest's schema (trees may hold distinct but structurally equal
// Schema pointers). It is the one definition of a well-formed model: the
// decoder accepts, and internal/infer compiles, exactly what passes it.
func (f *Forest) Validate() error {
	if f.Schema == nil {
		return fmt.Errorf("tree: forest has no schema")
	}
	if err := f.Schema.Validate(); err != nil {
		return fmt.Errorf("tree: forest schema invalid: %w", err)
	}
	if len(f.Trees) == 0 {
		return fmt.Errorf("tree: forest has no trees")
	}
	for i, t := range f.Trees {
		if t == nil || t.Root == nil {
			return fmt.Errorf("tree: forest tree %d is nil", i)
		}
		if err := validateNode(t.Root, f.Schema); err != nil {
			return fmt.Errorf("tree: forest tree %d: %w", i, err)
		}
	}
	return nil
}

// VoteArgmax returns the winning class of a vote-count slice: the most
// votes, ties to the lowest class index. It is the single majority rule
// shared by the walker and the compiled engine.
func VoteArgmax(votes []int32) int {
	best := 0
	for c := 1; c < len(votes); c++ {
		if votes[c] > votes[best] {
			best = c
		}
	}
	return best
}

// Predict returns the majority-vote class index for one row in the
// dataset.Table value convention.
func (f *Forest) Predict(row []float64) int {
	votes := make([]int32, f.Schema.NumClasses())
	for _, t := range f.Trees {
		votes[t.Predict(row)]++
	}
	return VoteArgmax(votes)
}

// PredictTableWalk classifies every row of the table with the per-tree
// reference walkers and a per-row vote, writing labels into out (one slot
// per row). This is the oracle the compiled forest engine is differentially
// tested against.
func (f *Forest) PredictTableWalk(tab *dataset.Table, out []int) {
	nc := f.Schema.NumClasses()
	votes := make([]int32, tab.NumRows()*nc)
	labels := make([]int, tab.NumRows())
	for _, t := range f.Trees {
		t.PredictTableWalk(tab, labels)
		for r, l := range labels {
			votes[r*nc+l]++
		}
	}
	for r := range out {
		out[r] = VoteArgmax(votes[r*nc : (r+1)*nc])
	}
}

// PredictTable classifies every row and returns the labels, via the walker.
func (f *Forest) PredictTable(tab *dataset.Table) []int {
	out := make([]int, tab.NumRows())
	f.PredictTableWalk(tab, out)
	return out
}
