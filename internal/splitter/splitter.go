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
// node: Counts[v][j] records of domain value v bearing class j.
type CountMatrix struct {
	Counts [][]int64
}

// NewCountMatrix allocates a zero matrix for the given cardinality and
// class count.
func NewCountMatrix(cardinality, classes int) *CountMatrix {
	backing := make([]int64, cardinality*classes)
	m := &CountMatrix{Counts: make([][]int64, cardinality)}
	for v := range m.Counts {
		m.Counts[v], backing = backing[:classes], backing[classes:]
	}
	return m
}

// Add counts one record.
func (m *CountMatrix) Add(value int32, class uint8) { m.Counts[value][class]++ }

// Flat returns the matrix as one row-major vector (the wire format for
// reductions).
func (m *CountMatrix) Flat() []int64 {
	if len(m.Counts) == 0 {
		return nil
	}
	classes := len(m.Counts[0])
	out := make([]int64, 0, len(m.Counts)*classes)
	for _, row := range m.Counts {
		out = append(out, row...)
	}
	return out
}

// FromFlat rebuilds a matrix from Flat's format.
func FromFlat(flat []int64, cardinality, classes int) *CountMatrix {
	if len(flat) != cardinality*classes {
		panic(fmt.Sprintf("splitter: FromFlat length %d != %d*%d", len(flat), cardinality, classes))
	}
	m := NewCountMatrix(cardinality, classes)
	for v := 0; v < cardinality; v++ {
		copy(m.Counts[v], flat[v*classes:(v+1)*classes])
	}
	return m
}

// BestCategorical evaluates the best split of the attribute from its global
// count matrix: m-way by default, greedy binary subset when binary is set.
// The candidate is invalid when fewer than two children would be non-empty.
func BestCategorical(m *CountMatrix, attr int, binary bool) Candidate {
	if binary {
		return bestSubset(m, attr)
	}
	nonEmpty := 0
	var total int64
	for _, row := range m.Counts {
		empty := true
		for _, c := range row {
			total += c
			if c > 0 {
				empty = false
			}
		}
		if !empty {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		return Invalid
	}
	return Candidate{
		Valid: true,
		Gini:  gini.SplitIndexTotal(total, m.Counts...),
		Attr:  int32(attr),
		Kind:  CatMWay,
	}
}

// bestSubset finds a binary subset split greedily: starting from the empty
// subset, repeatedly move the value that most improves the split's gini to
// the left side, keeping the best configuration seen. Values are considered
// in ascending order so the result is deterministic.
func bestSubset(m *CountMatrix, attr int) Candidate {
	card := len(m.Counts)
	if card > 64 {
		panic(fmt.Sprintf("splitter: subset split over cardinality %d > 64", card))
	}
	classes := 0
	if card > 0 {
		classes = len(m.Counts[0])
	}
	left := make([]int64, classes)
	right := make([]int64, classes)
	present := make([]bool, card)
	presentCount := 0
	var total int64
	for v, row := range m.Counts {
		for j, c := range row {
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
			for j := 0; j < classes; j++ {
				left[j] += m.Counts[v][j]
				right[j] -= m.Counts[v][j]
			}
			g := gini.SplitIndexTotal(total, left, right)
			if g < bestG {
				bestG, bestV = g, v
			}
			for j := 0; j < classes; j++ {
				left[j] -= m.Counts[v][j]
				right[j] += m.Counts[v][j]
			}
		}
		if bestV < 0 {
			break
		}
		inLeft[bestV] = true
		mask |= 1 << uint(bestV)
		for j := 0; j < classes; j++ {
			left[j] += m.Counts[bestV][j]
			right[j] -= m.Counts[bestV][j]
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
	classes := 0
	if len(m.Counts) > 0 {
		classes = len(m.Counts[0])
	}
	left = make([]int64, classes)
	right = make([]int64, classes)
	for v, row := range m.Counts {
		dst := right
		if v < 64 && mask&(1<<uint(v)) != 0 {
			dst = left
		}
		for j, c := range row {
			dst[j] += c
		}
	}
	return left, right
}
