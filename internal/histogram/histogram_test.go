package histogram

import (
	"reflect"
	"testing"
)

func TestCutPositions(t *testing.T) {
	cases := []struct {
		n, b int
		want []int
	}{
		{100, 4, []int{24, 49, 74}},
		{5, 5, []int{0, 1, 2, 3}},
		{4, 8, []int{0, 1, 2}}, // more bins than records: one cut per record, max excluded
		{1, 16, nil},           // a single record yields no interior boundary
		{0, 4, nil},
		{10, 1, nil},            // one bin has no boundaries
		{10, 4, []int{1, 4, 6}}, // ⌊(k+1)·n/b⌋-1: b divides no (k+1)·n
		{7, 3, []int{1, 3}},
	}
	for _, tc := range cases {
		got := CutPositions(tc.n, tc.b)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("CutPositions(%d, %d) = %v, want %v", tc.n, tc.b, got, tc.want)
		}
	}
	// Invariants across a sweep: strictly increasing, in [0, n-1), at most b-1.
	for n := 1; n <= 40; n++ {
		for b := 2; b <= 20; b++ {
			pos := CutPositions(n, b)
			if len(pos) > b-1 {
				t.Fatalf("CutPositions(%d, %d): %d positions > b-1", n, b, len(pos))
			}
			for i, p := range pos {
				if p < 0 || p >= n-1 {
					t.Fatalf("CutPositions(%d, %d): position %d out of [0, n-1)", n, b, p)
				}
				if i > 0 && p <= pos[i-1] {
					t.Fatalf("CutPositions(%d, %d): not strictly increasing: %v", n, b, pos)
				}
			}
		}
	}
}

func TestCuts(t *testing.T) {
	got := Cuts([]float64{1, 1, 2, 5, 5, 5, 9})
	if want := []float64{1, 2, 5, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Cuts = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Cuts accepted unsorted input")
		}
	}()
	Cuts([]float64{3, 1})
}

func TestBinOf(t *testing.T) {
	cuts := []float64{1, 3}
	cases := []struct {
		v    float64
		want int
	}{{0.5, 0}, {1, 0}, {1.5, 1}, {3, 1}, {4, 2}}
	for _, tc := range cases {
		if got := BinOf(cuts, tc.v); got != tc.want {
			t.Errorf("BinOf(%v, %v) = %d, want %d", cuts, tc.v, got, tc.want)
		}
	}
	if got := BinOf(nil, 7); got != 0 {
		t.Errorf("BinOf(nil, 7) = %d, want 0", got)
	}
}

func TestLayout(t *testing.T) {
	l := NewLayout(2, []int{3, 0, 2}, 2)
	want := []Group{
		{Node: 0, Attr: 0, Off: 0, Bins: 3, Len: 6},
		{Node: 0, Attr: 2, Off: 6, Bins: 2, Len: 4},
		{Node: 1, Attr: 0, Off: 10, Bins: 3, Len: 6},
		{Node: 1, Attr: 2, Off: 16, Bins: 2, Len: 4},
	}
	if !reflect.DeepEqual(l.Groups, want) {
		t.Fatalf("Groups = %+v, want %+v", l.Groups, want)
	}
	if l.Total != 20 {
		t.Fatalf("Total = %d, want 20", l.Total)
	}
	if got := l.OwnerCounts(3); !reflect.DeepEqual(got, []int{10, 6, 4}) {
		t.Fatalf("OwnerCounts(3) = %v", got)
	}
}

func TestOwnerCountsConserveTotal(t *testing.T) {
	for nNeed := 0; nNeed <= 5; nNeed++ {
		l := NewLayout(nNeed, []int{4, 1, 0, 7}, 3)
		for p := 1; p <= 9; p++ {
			counts := l.OwnerCounts(p)
			sum := 0
			covered := 0
			for r, k := range counts {
				sum += k
				lo, hi := l.GroupRange(p, r)
				covered += hi - lo
				slots := 0
				for g := lo; g < hi; g++ {
					slots += l.Groups[g].Len
				}
				if slots != k {
					t.Fatalf("nNeed=%d p=%d rank %d: counts=%d but group slots=%d", nNeed, p, r, k, slots)
				}
			}
			if sum != l.Total {
				t.Fatalf("nNeed=%d p=%d: counts sum %d != Total %d", nNeed, p, sum, l.Total)
			}
			if covered != len(l.Groups) {
				t.Fatalf("nNeed=%d p=%d: ranges cover %d of %d groups", nNeed, p, covered, len(l.Groups))
			}
		}
	}
}
