package splitter

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gini"
)

func TestConfigNormalize(t *testing.T) {
	c := Config{}.Normalize()
	if c.MinSplit != 2 {
		t.Fatalf("MinSplit default = %d, want 2", c.MinSplit)
	}
	c = Config{MinSplit: 10}.Normalize()
	if c.MinSplit != 10 {
		t.Fatal("explicit MinSplit overridden")
	}
}

func TestConfigValidate(t *testing.T) {
	s := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Continuous}},
		Classes: []string{"A", "B"},
	}
	if err := (Config{MaxDepth: -1}).Validate(s); err == nil {
		t.Fatal("negative MaxDepth accepted")
	}
	big := make([]string, 65)
	for i := range big {
		big[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	s2 := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "c", Kind: dataset.Categorical, Values: big}},
		Classes: []string{"A", "B"},
	}
	if err := (Config{CategoricalBinary: true}).Validate(s2); err == nil {
		t.Fatal("subset split over 65 values accepted")
	}
	if err := (Config{}).Validate(s2); err != nil {
		t.Fatalf("m-way over 65 values rejected: %v", err)
	}
}

func TestBetterTotalOrder(t *testing.T) {
	a := Candidate{Valid: true, Gini: 0.1, Attr: 0, Threshold: 5}
	b := Candidate{Valid: true, Gini: 0.2, Attr: 0, Threshold: 1}
	if !Better(a, b) || Better(b, a) {
		t.Fatal("gini ordering wrong")
	}
	c := Candidate{Valid: true, Gini: 0.1, Attr: 1}
	if !Better(a, c) {
		t.Fatal("attr tie-break wrong")
	}
	d := Candidate{Valid: true, Gini: 0.1, Attr: 0, Threshold: 4}
	if !Better(d, a) {
		t.Fatal("threshold tie-break wrong")
	}
	if Better(Invalid, a) || !Better(a, Invalid) {
		t.Fatal("validity ordering wrong")
	}
	if Better(Invalid, Invalid) {
		t.Fatal("Invalid must not beat itself")
	}
	e := Candidate{Valid: true, Gini: 0.1, Attr: 0, Threshold: 5, Subset: 3}
	if !Better(a, e) {
		t.Fatal("subset tie-break wrong")
	}
}

func TestBestIsReductionOp(t *testing.T) {
	a := Candidate{Valid: true, Gini: 0.3, Attr: 2}
	b := Candidate{Valid: true, Gini: 0.1, Attr: 5}
	if Best(a, b) != b || Best(b, a) != b {
		t.Fatal("Best not symmetric on distinct candidates")
	}
	if Best(a, Invalid) != a || Best(Invalid, a) != a {
		t.Fatal("Best vs Invalid wrong")
	}
}

func TestBestDeterministicAnyOrder(t *testing.T) {
	// Folding a candidate set in any order must give the same winner.
	rng := rand.New(rand.NewSource(1))
	cands := make([]Candidate, 20)
	for i := range cands {
		cands[i] = Candidate{
			Valid:     rng.Intn(4) != 0,
			Gini:      float64(rng.Intn(5)) / 10,
			Attr:      int32(rng.Intn(3)),
			Threshold: float64(rng.Intn(4)),
		}
	}
	fold := func(order []int) Candidate {
		acc := Invalid
		for _, i := range order {
			acc = Best(acc, cands[i])
		}
		return acc
	}
	base := make([]int, len(cands))
	for i := range base {
		base[i] = i
	}
	want := fold(base)
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(cands))
		if got := fold(perm); got != want {
			t.Fatalf("fold order changed the winner: %+v vs %+v", got, want)
		}
	}
}

func TestCountMatrixRowMajor(t *testing.T) {
	m := NewCountMatrix(3, 2)
	m.Add(0, 1)
	m.Add(2, 0)
	m.Add(2, 0)
	want := []int64{0, 1, 0, 0, 2, 0}
	if m.Classes != 2 || len(m.Counts) != len(want) {
		t.Fatalf("matrix %+v", m)
	}
	for i := range want {
		if m.Counts[i] != want[i] {
			t.Fatalf("Counts=%v, want %v", m.Counts, want)
		}
	}
}

func TestBestCategoricalMWay(t *testing.T) {
	// Perfect separation across three values.
	m := NewCountMatrix(3, 2)
	m.Counts[0*2+0] = 5
	m.Counts[1*2+1] = 4
	m.Counts[2*2+0] = 2
	c := BestCategorical(m, 7, false)
	if !c.Valid || c.Kind != CatMWay || c.Attr != 7 {
		t.Fatalf("candidate %+v", c)
	}
	if c.Gini != 0 {
		t.Fatalf("perfect m-way split gini = %v", c.Gini)
	}

	// Seeded random matrices, empty rows and zero-count classes included:
	// the m-way gini must be gini.SplitIndex of the rows to the bit, so
	// the flat loop's fold order cannot drift from the reference's.
	rng := rand.New(rand.NewSource(49))
	valid := 0
	for trial := 0; trial < 500; trial++ {
		card, classes := 2+rng.Intn(7), 2+rng.Intn(3)
		m := NewCountMatrix(card, classes)
		rows := make([][]int64, card)
		nonEmpty := 0
		for v := range rows {
			rows[v] = m.Counts[v*classes : (v+1)*classes]
			if rng.Intn(4) == 0 {
				continue // an empty row
			}
			for j := range rows[v] {
				if rng.Intn(3) > 0 {
					rows[v][j] = rng.Int63n(1000)
				}
			}
			if sum(rows[v]) > 0 {
				nonEmpty++
			}
		}
		c := BestCategorical(m, 3, false)
		if c.Valid != (nonEmpty >= 2) {
			t.Fatalf("trial %d: valid %v with %d non-empty rows: %v", trial, c.Valid, nonEmpty, rows)
		}
		if !c.Valid {
			continue
		}
		valid++
		if want := gini.SplitIndex(rows...); math.Float64bits(c.Gini) != math.Float64bits(want) {
			t.Fatalf("trial %d: m-way gini %v (%#x), gini.SplitIndex %v (%#x): %v",
				trial, c.Gini, math.Float64bits(c.Gini), want, math.Float64bits(want), rows)
		}
	}
	if valid < 250 {
		t.Fatalf("only %d of 500 random matrices had a valid m-way split", valid)
	}
}

func sum(h []int64) int64 {
	var n int64
	for _, c := range h {
		n += c
	}
	return n
}

func TestBestCategoricalSingleValueInvalid(t *testing.T) {
	m := NewCountMatrix(4, 2)
	m.Counts[2*2+0] = 5
	m.Counts[2*2+1] = 3
	if c := BestCategorical(m, 0, false); c.Valid {
		t.Fatalf("single populated value should be invalid, got %+v", c)
	}
	if c := BestCategorical(m, 0, true); c.Valid {
		t.Fatalf("single populated value should be invalid for subsets too, got %+v", c)
	}
}

func TestBestCategoricalSubsetFindsPerfectSplit(t *testing.T) {
	// Values {0,2} are pure class 0; values {1,3} pure class 1. The greedy
	// search must find a subset with gini 0.
	m := NewCountMatrix(4, 2)
	m.Counts[0*2+0] = 3
	m.Counts[2*2+0] = 2
	m.Counts[1*2+1] = 4
	m.Counts[3*2+1] = 1
	c := BestCategorical(m, 1, true)
	if !c.Valid || c.Kind != CatSubset {
		t.Fatalf("candidate %+v", c)
	}
	if c.Gini != 0 {
		t.Fatalf("gini %v, want 0", c.Gini)
	}
	left, right := SubsetHists(m, c.Subset)
	if gini.SplitIndex(left, right) != 0 {
		t.Fatal("subset hists disagree with gini")
	}
	// The subset must be one of {0,2} or {1,3}.
	if c.Subset != 0b0101 && c.Subset != 0b1010 {
		t.Fatalf("subset mask %b", c.Subset)
	}
}

func TestBestCategoricalSubsetNeverWorseThanBestSingleton(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		card := 2 + rng.Intn(6)
		m := NewCountMatrix(card, 3)
		for v := 0; v < card; v++ {
			for j := 0; j < 3; j++ {
				m.Counts[v*3+j] = int64(rng.Intn(5))
			}
		}
		c := BestCategorical(m, 0, true)
		if !c.Valid {
			continue
		}
		// Compare against every singleton subset.
		for v := 0; v < card; v++ {
			l, r := SubsetHists(m, 1<<uint(v))
			var ln, rn int64
			for j := 0; j < 3; j++ {
				ln += l[j]
				rn += r[j]
			}
			if ln == 0 || rn == 0 {
				continue
			}
			if g := gini.SplitIndex(l, r); g < c.Gini-1e-12 {
				t.Fatalf("greedy (%v) worse than singleton {%d} (%v): matrix %+v", c.Gini, v, g, m.Counts)
			}
		}
	}
}

func TestSubsetHists(t *testing.T) {
	m := NewCountMatrix(3, 2)
	m.Counts[0*2+0] = 1
	m.Counts[1*2+1] = 2
	m.Counts[2*2+0] = 3
	l, r := SubsetHists(m, 0b001)
	if l[0] != 1 || l[1] != 0 || r[0] != 3 || r[1] != 2 {
		t.Fatalf("l=%v r=%v", l, r)
	}
}
