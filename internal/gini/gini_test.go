package gini

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestIndexKnownValues(t *testing.T) {
	cases := []struct {
		h    []int64
		want float64
	}{
		{[]int64{0, 0}, 0},                     // empty
		{[]int64{10, 0}, 0},                    // pure
		{[]int64{0, 7}, 0},                     // pure, other class
		{[]int64{5, 5}, 0.5},                   // even two-class
		{[]int64{1, 1, 1}, 2.0 / 3},            // even three-class
		{[]int64{3, 1}, 1 - (0.5625 + 0.0625)}, // 3/4,1/4
	}
	for _, c := range cases {
		if got := Index(c.h); !approx(got, c.want) {
			t.Errorf("Index(%v)=%v want %v", c.h, got, c.want)
		}
	}
}

func TestIndexBounds(t *testing.T) {
	// 0 <= gini <= 1 - 1/c for any histogram with c classes.
	f := func(a, b, c uint16) bool {
		h := []int64{int64(a), int64(b), int64(c)}
		g := Index(h)
		return g >= 0 && g <= 2.0/3+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexPermutationInvariant(t *testing.T) {
	f := func(a, b, c uint16) bool {
		return approx(Index([]int64{int64(a), int64(b), int64(c)}),
			Index([]int64{int64(c), int64(a), int64(b)}))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndexPaperStyleExample(t *testing.T) {
	// A split of 10 records into (left: 4 A, 0 B) and (right: 2 A, 4 B):
	// gini_left = 0, gini_right = 1 - (1/9 + 4/9) = 4/9,
	// gini_split = 0.4*0 + 0.6*4/9 = 4/15.
	got := SplitIndex([]int64{4, 0}, []int64{2, 4})
	if !approx(got, 4.0/15) {
		t.Fatalf("got %v want %v", got, 4.0/15)
	}
}

func TestSplitIndexDegenerateSplitEqualsIndex(t *testing.T) {
	// Splitting everything into one partition changes nothing.
	h := []int64{3, 9, 1}
	if !approx(SplitIndex(h), Index(h)) {
		t.Fatal("one-partition split should equal plain index")
	}
	// Adding empty partitions changes nothing.
	if !approx(SplitIndex(h, []int64{0, 0, 0}, nil), Index(h)) {
		t.Fatal("empty partitions must not affect the split index")
	}
}

func TestSplitIndexNeverWorseThanParentForPureSplit(t *testing.T) {
	// A split separating classes perfectly has index 0.
	if got := SplitIndex([]int64{5, 0}, []int64{0, 7}); got != 0 {
		t.Fatalf("perfect split gini = %v", got)
	}
}

func TestSplitIndexEmpty(t *testing.T) {
	if SplitIndex() != 0 || SplitIndex([]int64{0, 0}) != 0 {
		t.Fatal("empty split should have index 0")
	}
}

func TestSplitIndexWeightedAverageProperty(t *testing.T) {
	// gini_split is a convex combination of partition ginis, so it lies
	// between their min and max.
	f := func(a1, b1, a2, b2 uint8) bool {
		l := []int64{int64(a1), int64(b1)}
		r := []int64{int64(a2), int64(b2)}
		if a1 == 0 && b1 == 0 || a2 == 0 && b2 == 0 {
			return true // degenerate; covered elsewhere
		}
		g := SplitIndex(l, r)
		lo := math.Min(Index(l), Index(r))
		hi := math.Max(Index(l), Index(r))
		return g >= lo-1e-12 && g <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixScanMatchesDirectComputation(t *testing.T) {
	// Scanning a class sequence with Matrix must reproduce SplitIndex
	// computed from scratch at every position.
	classes := []uint8{0, 1, 0, 0, 1, 1, 0, 1, 1, 0}
	total := []int64{5, 5}
	m := NewMatrix(total, nil)
	below := []int64{0, 0}
	for i, c := range classes {
		m.Move(c)
		below[c]++
		above := []int64{total[0] - below[0], total[1] - below[1]}
		want := SplitIndex(below, above)
		if got := m.Split(); !approx(got, want) {
			t.Fatalf("position %d: got %v want %v", i, got, want)
		}
	}
	// After consuming everything, Above is empty and the split is degenerate.
	if m.Above[0] != 0 || m.Above[1] != 0 {
		t.Fatal("Above not exhausted")
	}
}

func TestMatrixWithAlreadyBelowSeed(t *testing.T) {
	// Seeding with a prefix must equal scanning that prefix first — this
	// is exactly what FindSplitI's exclusive scan establishes.
	classes := []uint8{0, 1, 1, 0, 1}
	total := []int64{2, 3}
	seeded := NewMatrix(total, []int64{1, 2}) // as if {0,1,1} already passed
	scanned := NewMatrix(total, nil)
	for _, c := range []uint8{0, 1, 1} {
		scanned.Move(c)
	}
	if !approx(seeded.Split(), scanned.Split()) {
		t.Fatal("seeded matrix disagrees with scanned matrix")
	}
	for _, c := range classes[3:] {
		seeded.Move(c)
		scanned.Move(c)
		if !approx(seeded.Split(), scanned.Split()) {
			t.Fatal("divergence while continuing the scan")
		}
	}
}

func TestStepMatchesMove(t *testing.T) {
	// A Step scan from Sums must reach the same integers as Move on the
	// matrix's own sums — bit-identical ginis and class vectors — and
	// leave the matrix's own sums where they were.
	classes := []uint8{2, 0, 1, 1, 0, 2, 2, 0, 1, 0, 0}
	total := []int64{6, 4, 5}
	below := []int64{1, 0, 2}
	moved := NewMatrix(total, below)
	stepped := NewMatrix(total, below)
	start := stepped.Split()
	s := stepped.Sums()
	for i, c := range classes {
		moved.Move(c)
		s = stepped.Step(s, c)
		if got, want := s.Split(), moved.Split(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("position %d: Step gini %v, Move gini %v", i, got, want)
		}
	}
	if s != moved.Sums() {
		t.Fatalf("Step sums %+v, Move sums %+v", s, moved.Sums())
	}
	for j := range total {
		if stepped.Below[j] != moved.Below[j] || stepped.Above[j] != moved.Above[j] {
			t.Fatalf("class %d: Step vectors %d/%d, Move vectors %d/%d", j, stepped.Below[j], stepped.Above[j], moved.Below[j], moved.Above[j])
		}
	}
	if got := stepped.Split(); math.Float64bits(got) != math.Float64bits(start) {
		t.Fatalf("Step moved the matrix's own sums: Split %v, was %v", got, start)
	}
	if g := BinarySplit(0, 0, 0, 0); math.Float64bits(g) != 0 {
		t.Fatalf("empty split gini %v, want +0", g)
	}
}
