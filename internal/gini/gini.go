// Package gini computes the gini splitting index and the class-count
// matrices that both the serial and the parallel classifiers optimize.
//
// For a partition i holding n_i records of which n_ij bear class j,
// gini_i = 1 - Σ_j (n_ij/n_i)², and the gini of a d-way split of n records
// is gini_split = Σ_i (n_i/n)·gini_i. The split-determining phase picks the
// condition minimizing gini_split.
//
// The continuous-split scan is the hot path: a Matrix maintains running
// integer partition sizes and sums of squared class counts (moving one
// record of a class with h records below changes Σ_j h_j² by 2h+1), so each
// candidate's gini is an O(1) evaluation of BinarySplit instead of an
// O(classes) re-summation with per-class divisions. All gini values remain
// pure functions of integer class counts, so every path that reaches the
// same counts — serial scan, prefix-scan-seeded parallel scan, binned
// histogram — computes bit-identical float64 values.
package gini

// Index returns the gini index of a class histogram: 1 - Σ (h_j/n)².
// An empty histogram (n = 0) has index 0 by convention, so empty partitions
// contribute nothing to a split's weighted index.
func Index(h []int64) float64 {
	var n int64
	for _, c := range h {
		n += c
	}
	return indexN(h, n)
}

// indexN is Index with the histogram total already reduced.
func indexN(h []int64, n int64) float64 {
	if n == 0 {
		return 0
	}
	sum := 0.0
	nf := float64(n)
	for _, c := range h {
		f := float64(c) / nf
		// Each float64(x*y) rounds its product, so no CPU fuses it into
		// the addition: the same bits on every architecture (make fma).
		sum += float64(f * f)
	}
	return 1 - sum
}

// SplitIndex returns the weighted gini index of a split into the given
// partitions: Σ_i (n_i/n)·gini_i. A split with no records has index 0.
func SplitIndex(parts ...[]int64) float64 {
	var total int64
	for _, p := range parts {
		for _, c := range p {
			total += c
		}
	}
	return SplitIndexTotal(total, parts...)
}

// SplitIndexTotal is SplitIndex with the record total precomputed by the
// caller (the node size, which callers evaluating many candidate splits of
// one node already know). Each partition is reduced exactly once; the result
// is bit-identical to SplitIndex of the same partitions.
func SplitIndexTotal(total int64, parts ...[]int64) float64 {
	if total == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range parts {
		var n int64
		for _, c := range p {
			n += c
		}
		if n == 0 {
			continue
		}
		sum += float64(float64(n) / float64(total) * indexN(p, n))
	}
	return sum
}

// BinarySplit returns the weighted gini of a binary split from the two
// partition sizes and integer sums of squared class counts:
//
//	(n_b/n)·(1 - sq_b/n_b²) + (n_a/n)·(1 - sq_a/n_a²)
//
// It is the O(1) kernel of the continuous-split scan. Both Matrix.Split and
// the binned boundary evaluation funnel through this one expression, so a
// candidate's gini depends only on the integer counts, never on which scan
// formulation produced them. The sums of squares are exact: class counts
// are bounded by the int32 record-id space, so Σ h_j² ≤ n² < 2⁶².
//
// A split with no records skips both terms and returns 0, with no separate
// test of the total: that keeps BinarySplit, and Sums.Split around it,
// within the compiler's inlining budget, so a scan's sums stay in
// registers across the evaluation instead of being spilled for a call.
func BinarySplit(nBelow, sqBelow, nAbove, sqAbove int64) float64 {
	tf := float64(nBelow + nAbove)
	sum := 0.0
	if nBelow > 0 {
		nf := float64(nBelow)
		sum += float64(nf / tf * (1 - float64(sqBelow)/(nf*nf)))
	}
	if nAbove > 0 {
		nf := float64(nAbove)
		sum += float64(nf / tf * (1 - float64(sqAbove)/(nf*nf)))
	}
	return sum
}

// Matrix is the count matrix of a continuous attribute's candidate binary
// split: Below counts the classes of records with values at or before the
// candidate point, Above the rest. A split-determining scan starts with
// everything Above and calls Move once per entry as the candidate point
// advances through the (sorted) list. Alongside the histograms the matrix
// maintains the partition sizes and integer sums of squared counts, making
// Split O(1) per candidate.
//
// A hot scan keeps those four sums in a local Sums instead (Sums, then Step
// per entry, then Sums.Split), so the per-entry chain runs through
// registers, not through the matrix's fields; only the two class counters
// an entry touches are read and written in memory. Both forms compute the
// same integers, so their ginis are bit-identical.
type Matrix struct {
	Below []int64
	Above []int64

	sums Sums
}

// Sums are the four integers BinarySplit reads: the partition sizes
// Σ_j h_j and the sums of squared class counts Σ_j h_j² of Below and
// Above. A value of at most four words, so a scan holding one in a local
// keeps it in registers.
type Sums struct {
	nBelow, sqBelow, nAbove, sqAbove int64
}

// Split returns the gini index of the binary split the sums describe.
func (s Sums) Split() float64 {
	return BinarySplit(s.nBelow, s.sqBelow, s.nAbove, s.sqAbove)
}

// NewMatrix creates a matrix with all counts in Above, initialised from the
// node's total class histogram, minus alreadyBelow (the global class counts
// preceding this scan's starting position — the parallel formulation seeds
// this from an exclusive prefix scan; serial scans pass nil).
func NewMatrix(total, alreadyBelow []int64) *Matrix {
	m := &Matrix{}
	m.Reset(total, alreadyBelow)
	return m
}

// Reset re-seeds the matrix for a new scan, reusing its backing arrays so a
// worker can drive every (node, attribute) scan of a level through one
// matrix without allocating.
func (m *Matrix) Reset(total, alreadyBelow []int64) {
	if cap(m.Below) < len(total) {
		m.Below = make([]int64, len(total))
		m.Above = make([]int64, len(total))
	}
	m.Below = m.Below[:len(total)]
	m.Above = m.Above[:len(total)]
	copy(m.Above, total)
	for j := range m.Below {
		m.Below[j] = 0
	}
	for j := range alreadyBelow {
		m.Below[j] = alreadyBelow[j]
		m.Above[j] -= alreadyBelow[j]
	}
	m.sums.nBelow, m.sums.sqBelow = sumAndSquares(m.Below)
	m.sums.nAbove, m.sums.sqAbove = sumAndSquares(m.Above)
}

func sumAndSquares(h []int64) (n, sq int64) {
	for _, c := range h {
		n += c
		sq += c * c
	}
	return n, sq
}

// Sums returns the matrix's current sums, the start of a Step scan.
func (m *Matrix) Sums() Sums { return m.sums }

// Step transfers one record of the given class from Above to Below and
// returns s advanced past it. (h+1)² - h² = 2h+1, so the sums update in
// O(1). The matrix's own sums are left as they were: a scan either Moves
// or Steps from Sums, and Reset starts the next one.
func (m *Matrix) Step(s Sums, class uint8) Sums {
	b := m.Below[class]
	m.Below[class] = b + 1
	a := m.Above[class]
	m.Above[class] = a - 1
	return Sums{s.nBelow + 1, s.sqBelow + 2*b + 1, s.nAbove - 1, s.sqAbove - (2*a - 1)}
}

// Move is Step on the matrix's own sums, advancing the candidate split
// point past one record of the given class.
func (m *Matrix) Move(class uint8) { m.sums = m.Step(m.sums, class) }

// Split returns the gini index of the binary split at the current point.
func (m *Matrix) Split() float64 { return m.sums.Split() }
