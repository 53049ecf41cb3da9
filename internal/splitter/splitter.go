// Package splitter holds the split-selection logic shared by the serial
// classifiers (the SPRINT-style oracle and SLIQ) and the parallel engine:
// induction parameters, split candidates with a deterministic total order,
// categorical split evaluation from a count matrix, the vote election, and
// the node rule (node.go) — whether a node tries to split, whether its
// winner beats it, what the node records, which child a value descends to,
// and how children are grown.
//
// All candidate ginis are pure functions of integer class counts, so the
// serial and parallel paths — which obtain the same integer counts by
// different routes (local scans vs prefix scans and reductions) — compute
// bit-identical float64 ginis. Together with the deterministic candidate
// order and the one node rule this guarantees ScalParC builds exactly the
// serial tree for every processor count.
//
// Class counts have one layout: a flat row-major []int64, the vector the
// parallel engine's collectives carry. A count matrix is one row of classes
// per domain value (CountMatrix), and a split node's child histograms are
// one row per child (Grow), so a reduced vector is evaluated and grown from
// where it lies, never copied into row views.
package splitter

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/gini"
)

// Config holds the induction parameters.
type Config struct {
	// MaxDepth limits the tree depth (edges from the root); 0 means
	// unlimited.
	MaxDepth int
	// MinSplit is the minimum number of records a node needs to be
	// considered for splitting; smaller nodes become leaves. Values < 2
	// are treated as 2.
	MinSplit int
	// CategoricalBinary selects binary subset splits (the paper's
	// footnote-1 variant, found greedily) instead of m-way splits.
	// Requires every categorical domain to have at most 64 values.
	CategoricalBinary bool
}

// Normalize returns the config with defaults applied.
func (c Config) Normalize() Config {
	if c.MinSplit < 2 {
		c.MinSplit = 2
	}
	return c
}

// Validate checks the configuration against a schema.
func (c Config) Validate(s *dataset.Schema) error {
	if c.MaxDepth < 0 {
		return fmt.Errorf("splitter: MaxDepth %d negative", c.MaxDepth)
	}
	if c.CategoricalBinary {
		for _, a := range s.Attrs {
			if a.Kind == dataset.Categorical && a.Cardinality() > 64 {
				return fmt.Errorf("splitter: binary subset splits need cardinality <= 64; attribute %q has %d", a.Name, a.Cardinality())
			}
		}
	}
	return nil
}

// SplitKind identifies the form of a split.
type SplitKind uint8

const (
	// ContSplit is a binary continuous split "A <= Threshold".
	ContSplit SplitKind = iota
	// CatMWay is an m-way categorical split, one child per domain value.
	CatMWay
	// CatSubset is a binary categorical subset split; values whose bit is
	// set in Subset descend left.
	CatSubset
)

// Candidate is one proposed split. It is a flat struct so it can travel
// through the communication layer's collectives unchanged.
type Candidate struct {
	Valid     bool
	Gini      float64
	Attr      int32
	Kind      SplitKind
	Threshold float64
	Subset    uint64
}

// Invalid is the null candidate, worse than every valid one.
var Invalid = Candidate{}

// Better reports whether a should be preferred over b. The order is total
// and deterministic: validity, then lower gini, then lower attribute index,
// then lower threshold, then smaller subset mask.
func Better(a, b Candidate) bool {
	if a.Valid != b.Valid {
		return a.Valid
	}
	if !a.Valid {
		return false
	}
	if a.Gini != b.Gini {
		return a.Gini < b.Gini
	}
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.Threshold != b.Threshold {
		return a.Threshold < b.Threshold
	}
	return a.Subset < b.Subset
}

// Best returns the preferred of two candidates (usable as a reduction op).
func Best(a, b Candidate) Candidate {
	if Better(b, a) {
		return b
	}
	return a
}

// CountMatrix is the class-count matrix of one categorical attribute at one
// node, row-major: Counts[v·Classes + j] records of domain value v bearing
// class j. It is the layout the collectives reduce, so a reduced vector is
// evaluated where it lies.
type CountMatrix struct {
	Counts  []int64
	Classes int
}

// NewCountMatrix allocates a zero matrix for the given cardinality and
// class count.
func NewCountMatrix(cardinality, classes int) *CountMatrix {
	return &CountMatrix{Counts: make([]int64, cardinality*classes), Classes: classes}
}

// Add counts one record.
func (m *CountMatrix) Add(value int32, class uint8) { m.Counts[int(value)*m.Classes+int(class)]++ }

// cardinality is the number of rows, one per domain value.
func (m *CountMatrix) cardinality() int { return len(m.Counts) / m.Classes }

// row is domain value v's class counts.
func (m *CountMatrix) row(v int) []int64 { return m.Counts[v*m.Classes : (v+1)*m.Classes] }

// BestCategorical evaluates the best split of the attribute from its global
// count matrix: m-way by default, greedy binary subset when binary is set.
// The candidate is invalid when fewer than two children would be non-empty.
// The m-way gini folds the rows in order exactly as gini.SplitIndex of the
// rows does, so both compute the same bits.
func BestCategorical(m *CountMatrix, attr int, binary bool) Candidate {
	if binary {
		return bestSubset(m, attr)
	}
	card := m.cardinality()
	nonEmpty := 0
	var total int64
	for v := 0; v < card; v++ {
		var n int64
		for _, c := range m.row(v) {
			n += c
		}
		if n > 0 {
			total += n
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		return Invalid
	}
	g := 0.0
	for v := 0; v < card; v++ {
		row := m.row(v)
		var n int64
		for _, c := range row {
			n += c
		}
		if n > 0 {
			// float64 rounds the product: no fused multiply-add (make fma).
			g += float64(float64(n) / float64(total) * gini.Index(row))
		}
	}
	return Candidate{Valid: true, Gini: g, Attr: int32(attr), Kind: CatMWay}
}

// bestSubset finds a binary subset split greedily: starting from the empty
// subset, repeatedly move the value that most improves the split's gini to
// the left side, keeping the best configuration seen. Values are considered
// in ascending order so the result is deterministic.
func bestSubset(m *CountMatrix, attr int) Candidate {
	card, classes := m.cardinality(), m.Classes
	if card > 64 {
		panic(fmt.Sprintf("splitter: subset split over cardinality %d > 64", card))
	}
	left := make([]int64, classes)
	right := make([]int64, classes)
	present := make([]bool, card)
	presentCount := 0
	var total int64
	for v := 0; v < card; v++ {
		for j, c := range m.row(v) {
			right[j] += c
			total += c
			if c > 0 {
				present[v] = true
			}
		}
		if present[v] {
			presentCount++
		}
	}
	if presentCount < 2 {
		return Invalid
	}

	var mask uint64
	inLeft := make([]bool, card)
	best := Invalid
	for moved := 0; moved < presentCount-1; moved++ {
		bestV, bestG := -1, math.Inf(1)
		for v := 0; v < card; v++ {
			if inLeft[v] || !present[v] {
				continue
			}
			row := m.row(v)
			for j, c := range row {
				left[j] += c
				right[j] -= c
			}
			g := gini.SplitIndexTotal(total, left, right)
			if g < bestG {
				bestG, bestV = g, v
			}
			for j, c := range row {
				left[j] -= c
				right[j] += c
			}
		}
		if bestV < 0 {
			break
		}
		inLeft[bestV] = true
		mask |= 1 << uint(bestV)
		for j, c := range m.row(bestV) {
			left[j] += c
			right[j] -= c
		}
		cand := Candidate{Valid: true, Gini: bestG, Attr: int32(attr), Kind: CatSubset, Subset: mask}
		if Better(cand, best) {
			best = cand
		}
	}
	return best
}

// SubsetHists splits a count matrix into the (left, right) class histograms
// induced by a subset mask.
func SubsetHists(m *CountMatrix, mask uint64) (left, right []int64) {
	left = make([]int64, m.Classes)
	right = make([]int64, m.Classes)
	for v := 0; v < m.cardinality(); v++ {
		dst := right
		if v < 64 && mask&(1<<uint(v)) != 0 {
			dst = left
		}
		for j, c := range m.row(v) {
			dst[j] += c
		}
	}
	return left, right
}
