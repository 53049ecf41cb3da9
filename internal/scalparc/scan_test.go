package scalparc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gini"
	"repro/internal/splitter"
)

// scanSegmentRef is the fold scanSegment replaced: a splitter.Candidate at
// every split point, folded with splitter.Best, and the next-value test
// inside the loop. scanSegment must return its winner bit for bit.
func scanSegmentRef(m *gini.Matrix, list []dataset.ContEntry, nb boundary, attr int) splitter.Candidate {
	best := splitter.Invalid
	for j, e := range list {
		m.Move(e.Cid)
		nv, ok := nb.Val, nb.Has == 1
		if j+1 < len(list) {
			nv, ok = list[j+1].Val, true
		}
		if !ok || nv == e.Val {
			continue
		}
		cand := splitter.Candidate{Valid: true, Gini: m.Split(), Attr: int32(attr), Kind: splitter.ContSplit, Threshold: e.Val}
		best = splitter.Best(best, cand)
	}
	return best
}

// sameCandidate compares field by field, floats by their bits, so -0 and +0
// thresholds differ.
func sameCandidate(a, b splitter.Candidate) bool {
	return a.Valid == b.Valid && math.Float64bits(a.Gini) == math.Float64bits(b.Gini) &&
		a.Attr == b.Attr && a.Kind == b.Kind &&
		math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold) && a.Subset == b.Subset
}

// scanCase is one local segment as a rank sees it: the sorted entries, the
// class counts of the records on ranks to its left (below) and right
// (after), and the first value after the segment.
type scanCase struct {
	vals  []float64
	cids  []uint8
	below []int64
	after []int64
	nb    boundary
}

// run scans the segment with both folds from the same starting counts.
func (c scanCase) run() (got, want splitter.Candidate) {
	list := make([]dataset.ContEntry, len(c.vals))
	total := slices.Clone(c.below)
	for j, v := range c.vals {
		list[j] = dataset.ContEntry{Val: v, Rid: int32(j), Cid: c.cids[j]}
		total[c.cids[j]]++
	}
	for k, n := range c.after {
		total[k] += n
	}
	m := gini.NewMatrix(total, c.below)
	got = scanSegment(m, list, c.nb, 3)
	m.Reset(total, c.below)
	want = scanSegmentRef(m, list, c.nb, 3)
	return got, want
}

func TestScanSegmentMatchesCandidateFold(t *testing.T) {
	none := boundary{}
	at := func(v float64) boundary { return boundary{Has: 1, Val: v} }
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		scanCase
		// wantValid and wantThreshold pin the winner beyond agreement
		// with the reference.
		wantValid     bool
		wantThreshold float64
	}{
		// Classes A B B A: the splits after 1 and after 3 tie at gini 1/3,
		// and the lower threshold must win.
		{"equal ginis", scanCase{[]float64{1, 2, 3, 4}, []uint8{0, 1, 1, 0}, []int64{0, 0}, []int64{0, 0}, none}, true, 1},
		{"equal ginis, boundary", scanCase{[]float64{1, 2, 3, 4}, []uint8{0, 1, 1, 0}, []int64{0, 0}, []int64{0, 1}, at(5)}, true, 1},
		// -0 == +0: no split between them, and the candidate after the run
		// carries the run's last value, +0.
		{"adjacent -0/+0", scanCase{[]float64{-1, negZero, 0, 1}, []uint8{0, 0, 0, 1}, []int64{0, 0}, []int64{0, 0}, none}, true, 0},
		{"adjacent +0/-0", scanCase{[]float64{-1, 0, negZero, 1}, []uint8{0, 0, 0, 1}, []int64{0, 0}, []int64{0, 0}, none}, true, negZero},
		{"boundary -0 after +0", scanCase{[]float64{-1, 0}, []uint8{0, 1}, []int64{1, 0}, []int64{0, 1}, at(negZero)}, true, -1},
		{"all equal, no boundary", scanCase{[]float64{5, 5, 5}, []uint8{0, 1, 0}, []int64{2, 1}, []int64{0, 0}, none}, false, 0},
		{"all equal, equal boundary", scanCase{[]float64{5, 5, 5}, []uint8{0, 1, 0}, []int64{0, 0}, []int64{1, 1}, at(5)}, false, 0},
		{"all equal, other boundary", scanCase{[]float64{5, 5, 5}, []uint8{0, 1, 0}, []int64{0, 0}, []int64{1, 1}, at(6)}, true, 5},
		{"n=1, no boundary", scanCase{[]float64{2}, []uint8{1}, []int64{3, 0}, []int64{0, 0}, none}, false, 0},
		{"n=1, equal boundary", scanCase{[]float64{2}, []uint8{1}, []int64{3, 0}, []int64{0, 2}, at(2)}, false, 0},
		{"n=1, other boundary", scanCase{[]float64{2}, []uint8{1}, []int64{3, 0}, []int64{0, 2}, at(7)}, true, 2},
		{"n=2, distinct", scanCase{[]float64{1, 2}, []uint8{0, 1}, []int64{0, 0}, []int64{0, 0}, none}, true, 1},
		{"n=2, equal", scanCase{[]float64{1, 1}, []uint8{0, 1}, []int64{0, 0}, []int64{0, 0}, none}, false, 0},
		{"n=2, distinct, equal boundary", scanCase{[]float64{1, 2}, []uint8{0, 1}, []int64{1, 0}, []int64{0, 1}, at(2)}, true, 1},
		// The last entry's split (after 3) is the only pure one, so it wins
		// exactly when the boundary validates it.
		{"last split wins via boundary", scanCase{[]float64{1, 2, 3}, []uint8{0, 0, 0}, []int64{4, 0}, []int64{0, 4}, at(9)}, true, 3},
		{"last split refused by equal boundary", scanCase{[]float64{1, 2, 3}, []uint8{0, 0, 0}, []int64{4, 0}, []int64{0, 4}, at(3)}, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := tc.run()
			if !sameCandidate(got, want) {
				t.Fatalf("register fold %+v, Candidate fold %+v", got, want)
			}
			if got.Valid != tc.wantValid || (got.Valid && math.Float64bits(got.Threshold) != math.Float64bits(tc.wantThreshold)) {
				t.Fatalf("winner %+v, want valid=%v threshold=%v", got, tc.wantValid, tc.wantThreshold)
			}
		})
	}
}

// FuzzExactScan checks scanSegment against the Candidate fold on random
// segments: up to five classes, a small value domain with both zeros (so
// equal-value runs, -0/+0 neighbours and gini ties are common), random
// counts on the ranks to either side, and a next-rank boundary that is
// absent, equal to the last value, or another value.
func FuzzExactScan(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 4, 1, 3, 0, 2})
	f.Add([]byte{1, 2, 1, 2, 0, 0, 1, 1})
	f.Add([]byte{2, 1, 0, 3, 3, 7, 0, 7, 1, 7, 0})
	f.Add([]byte{3, 0, 5, 1, 2, 0, 2, 6, 1, 5, 2, 6, 0, 5, 1, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			t.Skip()
		}
		domain := []float64{-2, -1, math.Copysign(0, -1), 0, 0.5, 1, 2, 3}
		nc := int(data[0])%4 + 2
		tc := scanCase{below: make([]int64, nc), after: make([]int64, nc)}
		rng := rand.New(rand.NewSource(int64(data[1])))
		for k := 0; k < nc; k++ {
			tc.below[k] = int64(rng.Intn(4))
			tc.after[k] = int64(rng.Intn(4))
		}
		type entry struct {
			val float64
			cid uint8
		}
		var es []entry
		for i := 3; i+1 < len(data); i += 2 {
			es = append(es, entry{domain[data[i]%8], data[i+1] % uint8(nc)})
		}
		if len(es) == 0 {
			t.Skip()
		}
		slices.SortStableFunc(es, func(a, b entry) int {
			switch {
			case a.val < b.val:
				return -1
			case a.val > b.val:
				return 1
			}
			return 0
		})
		for _, e := range es {
			tc.vals = append(tc.vals, e.val)
			tc.cids = append(tc.cids, e.cid)
		}
		last := tc.vals[len(tc.vals)-1]
		switch data[2] % 3 {
		case 1:
			tc.nb = boundary{Has: 1, Val: last}
		case 2:
			tc.nb = boundary{Has: 1, Val: last + 1}
		}
		if tc.nb.Has == 1 {
			tc.after[0]++ // the boundary's own record
		}
		got, want := tc.run()
		if !sameCandidate(got, want) {
			t.Fatalf("register fold %+v, Candidate fold %+v", got, want)
		}
	})
}

// BenchmarkExactScan times one 50 000-entry segment scan, two classes and
// random distinct values, with the register fold (scanSegment) against the
// Candidate fold it replaced: the ratio is the kernel's host speedup.
func BenchmarkExactScan(b *testing.B) {
	const n = 50_000
	rng := rand.New(rand.NewSource(1))
	list := make([]dataset.ContEntry, n)
	total := []int64{0, 0}
	for i := range list {
		list[i] = dataset.ContEntry{Val: rng.Float64(), Rid: int32(i), Cid: uint8(rng.Intn(2))}
		total[list[i].Cid]++
	}
	slices.SortFunc(list, dataset.CompareContEntries)
	zero := []int64{0, 0}
	m := gini.NewMatrix(total, zero)
	for _, bc := range []struct {
		name string
		scan func(*gini.Matrix, []dataset.ContEntry, boundary, int) splitter.Candidate
	}{{"fold=register", scanSegment}, {"fold=candidate", scanSegmentRef}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Reset(total, zero)
				scanSink = bc.scan(m, list, boundary{}, 0)
			}
		})
	}
}

var scanSink splitter.Candidate
