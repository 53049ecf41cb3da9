package histogram

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
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

// fuzzValue decodes one byte into a value from a small domain, so fuzzed
// values and cut samples collide often: the top eight codes are the edge
// values (±Inf, ±0, ±MaxFloat64, the smallest subnormal, 1), the rest are
// int8(c)/4, quarters between -32 and 31.75.
func fuzzValue(c byte) float64 {
	edges := [...]float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0,
		-math.MaxFloat64, math.MaxFloat64, math.SmallestNonzeroFloat64, 1}
	if c >= 0xf8 {
		return edges[c-0xf8]
	}
	return float64(int8(c)) / 4
}

// FuzzCountSorted: the forward-cursor kernel equals one BinOf per entry.
// Cuts come from Cuts over fuzzed, sorted samples (zero or more cuts); the
// segment is fuzzed values, two bytes each (value code, class), stably
// sorted by value, so -0 and +0 sit side by side in input order. The
// histogram starts non-zero to pin that the kernel adds.
func FuzzCountSorted(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(1))                           // no cuts, n = 0
	f.Add([]byte{}, []byte{4, 0}, uint8(2))                       // no cuts, n = 1
	f.Add([]byte{4}, []byte{4, 1}, uint8(2))                      // one cut, a tie at it
	f.Add([]byte{4}, []byte{0, 0, 4, 1, 8, 0}, uint8(2))          // below, at, past one cut
	f.Add([]byte{0xfb, 0xfa}, []byte{0xfa, 0, 0xfb, 1}, uint8(2)) // -0 and +0 on one cut
	f.Add([]byte{0xf8, 0xf9}, []byte{0xf8, 0, 0xfc, 1, 0xf9, 2, 0xfd, 0}, uint8(3))
	f.Add([]byte{1, 2, 2, 3, 9, 40}, []byte{0x80, 0, 1, 1, 2, 0, 2, 1, 3, 0, 7, 1, 40, 0, 41, 1, 0x7f, 0}, uint8(2))
	f.Fuzz(func(t *testing.T, samples, vals []byte, classes uint8) {
		nc := 1 + int(classes)%4
		sv := make([]float64, len(samples))
		for i, c := range samples {
			sv[i] = fuzzValue(c)
		}
		slices.SortStableFunc(sv, cmp.Compare[float64])
		cuts := Cuts(sv)
		seg := make([]dataset.ContEntry, len(vals)/2)
		for i := range seg {
			seg[i] = dataset.ContEntry{Val: fuzzValue(vals[2*i]), Rid: int32(i), Cid: vals[2*i+1] % uint8(nc)}
		}
		slices.SortStableFunc(seg, func(a, b dataset.ContEntry) int { return cmp.Compare(a.Val, b.Val) })
		want := make([]uint32, (len(cuts)+1)*nc)
		for i := range want {
			want[i] = uint32(i)
		}
		got := slices.Clone(want)
		for _, e := range seg {
			want[BinOf(cuts, e.Val)*nc+int(e.Cid)]++
		}
		CountSorted(got, cuts, seg, nc)
		if !slices.Equal(got, want) {
			t.Fatalf("cuts %v, segment %v:\n got %v\nwant %v", cuts, seg, got, want)
		}
	})
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
