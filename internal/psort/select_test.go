package psort

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/timing"
)

// serialSelect is the rule Select must reproduce: sort the whole column on
// one machine in (value, record id) order — a stable sort by value of the
// column in record order, ±0 comparing equal — and read the positions.
func serialSelect(col []float64, positions []int) []float64 {
	sorted := slices.Clone(col)
	slices.SortStableFunc(sorted, cmp.Compare[float64])
	out := make([]float64, len(positions))
	for j, pos := range positions {
		out[j] = sorted[pos]
	}
	return out
}

// runSelect runs Select on p simulated ranks, each passing its block of
// every column, and returns every rank's answer.
func runSelect(p int, cols [][]float64, positions []int) ([][][]float64, *comm.World) {
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	w := comm.NewWorld(p, timing.T3D())
	out := make([][][]float64, p)
	w.Run(func(c *comm.Comm) {
		lo, hi := dataset.BlockRange(n, p, c.Rank())
		mine := make([][]float64, len(cols))
		for k, col := range cols {
			mine[k] = col[lo:hi]
		}
		out[c.Rank()] = Select(c, mine, n, positions)
	})
	return out, w
}

// checkSelect holds Select to serialSelect bit for bit at p in {1, 2, 3, 5,
// 8}, on every rank, and the cuts made from its values to the serial cuts.
func checkSelect(t *testing.T, cols [][]float64, positions []int) {
	t.Helper()
	for _, p := range []int{1, 2, 3, 5, 8} {
		got, _ := runSelect(p, cols, positions)
		for k, col := range cols {
			want := serialSelect(col, positions)
			for r := range got {
				if !slices.EqualFunc(got[r][k], want, sameBits) {
					t.Fatalf("p=%d rank %d column %d: Select = %v, serial = %v", p, r, k, got[r][k], want)
				}
				if g, w := histogram.Cuts(got[r][k]), histogram.Cuts(want); !slices.EqualFunc(g, w, sameBits) {
					t.Fatalf("p=%d rank %d column %d: cuts %v, serial cuts %v", p, r, k, g, w)
				}
			}
		}
	}
}

// sameBits is float equality that tells -0 from +0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// every is every position of an n-row column.
func every(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestSelectCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(3))
	gen := func(n int, v func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v(i)
		}
		return out
	}
	// zeros mixes -0 and +0 in a run longer than the gather window, with a
	// few values on either side, so the run's cuts are settled by position.
	zeros := gen(400, func(i int) float64 {
		switch {
		case i%37 == 0:
			return -float64(i)
		case i%41 == 0:
			return float64(i)
		case rng.Intn(2) == 0:
			return negZero
		default:
			return 0
		}
	})
	for _, tc := range []struct {
		name      string
		cols      [][]float64
		positions []int
	}{
		{"duplicates", [][]float64{gen(500, func(int) float64 { return float64(rng.Intn(6)) })}, every(500)},
		{"long equal run", [][]float64{gen(900, func(i int) float64 {
			if i%97 == 0 {
				return float64(i)
			}
			return 7.25
		})}, histogram.CutPositions(900, 64)},
		{"negatives", [][]float64{gen(300, func(int) float64 { return -rng.ExpFloat64() * 1e3 })}, every(300)},
		{"constant column", [][]float64{gen(200, func(int) float64 { return -3 })}, histogram.CutPositions(200, 16)},
		{"±0 run, every position", [][]float64{zeros}, every(len(zeros))},
		{"±0 run, cut positions", [][]float64{zeros}, histogram.CutPositions(len(zeros), 8)},
		{"±0 run, short", [][]float64{{1, negZero, 0, negZero, -1, 0, negZero}}, every(7)},
		{"extremes and subnormals", [][]float64{gen(257, func(i int) float64 {
			return [...]float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
				-math.SmallestNonzeroFloat64, 2.2250738585072009e-308, negZero, 0, 1}[rng.Intn(8)]
		})}, every(257)},
		{"N < B", [][]float64{{5, 1, 3, 1, 2}}, histogram.CutPositions(5, 64)},
		{"N < p", [][]float64{{2, negZero, 0}}, every(3)},
		{"one row", [][]float64{{negZero}}, every(1)},
		{"no positions", [][]float64{{1, 2, 3}}, nil},
		{"several columns at once", [][]float64{
			gen(1000, func(int) float64 { return rng.Float64() }),
			gen(1000, func(int) float64 { return float64(rng.Intn(30)) }),
			gen(1000, func(i int) float64 { return float64(i % 2) }),
			gen(1000, func(int) float64 { return rng.NormFloat64() }),
		}, histogram.CutPositions(1000, 256)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSelect(t, tc.cols, tc.positions) })
	}
}

// TestSelectChargesTheSortPhase: Select advances the clock by at least the
// local sorts, meters its key buffers while they live, and at p > 1
// exchanges counts, not entries: its traffic grows with the targets, not
// with n, so on a column this long a rank sends far less than its block.
func TestSelectChargesTheSortPhase(t *testing.T) {
	const n, cols = 40000, 3
	rng := rand.New(rand.NewSource(5))
	data := make([][]float64, cols)
	for k := range data {
		data[k] = make([]float64, n)
		for i := range data[k] {
			data[k][i] = rng.Float64()
		}
	}
	for _, p := range []int{1, 2, 4} {
		_, w := runSelect(p, data, histogram.CutPositions(n, 64))
		lo, hi := dataset.BlockRange(n, p, 0)
		if got, min := w.MaxClock(), float64(cols)*timing.T3D().SortTime(hi-lo); got < min {
			t.Errorf("p=%d: clock %g s, below the local sorts' %g s", p, got, min)
		}
		for r, peak := range w.PeakMemory() {
			lo, hi := dataset.BlockRange(n, p, r)
			if want := int64(cols*(hi-lo)) * 8; peak < want {
				t.Errorf("p=%d rank %d: tracked peak %d B, the keys alone are %d B", p, r, peak, want)
			}
		}
		for r, s := range w.Stats() {
			if p > 1 && (s.BytesSent == 0 || s.BytesSent >= n*cols*8/int64(p)) {
				t.Errorf("p=%d rank %d: sent %d bytes", p, r, s.BytesSent)
			}
		}
	}
}

// selectValue decodes one byte into a finite value from a small domain, so
// fuzzed columns are full of ties: the top six codes are the edge values
// (±0, ±MaxFloat64, the smallest subnormal, 1), the rest are int8(c)/4.
func selectValue(c byte) float64 {
	edges := [...]float64{math.Copysign(0, -1), 0, -math.MaxFloat64, math.MaxFloat64, math.SmallestNonzeroFloat64, 1}
	if c >= 0xfa {
		return edges[c-0xfa]
	}
	return float64(int8(c)) / 4
}

// FuzzSelect: Select equals the serial rule at p in {1, 2, 3, 5, 8}, bit
// for bit, at the cut positions of a fuzzed bin count and at every
// position. Each data byte is a value (selectValue); repeat copies the data
// that many times more, so equal runs outgrow the gather window.
func FuzzSelect(f *testing.F) {
	f.Add([]byte{1}, uint8(0), uint8(2))
	f.Add([]byte{0xfa, 0xfb, 0xfa, 0xfb, 4, 0x80}, uint8(12), uint8(5))
	f.Add([]byte{0xfc, 0xfd, 0xfe, 0xff, 0xfa, 3}, uint8(9), uint8(64))
	f.Add([]byte{7, 7, 7, 7}, uint8(20), uint8(16))
	f.Fuzz(func(t *testing.T, data []byte, repeat, bins uint8) {
		if len(data) == 0 || len(data)*(1+int(repeat)) > 2000 {
			return
		}
		var col []float64
		for range 1 + int(repeat) {
			for _, c := range data {
				col = append(col, selectValue(c))
			}
		}
		cols := [][]float64{col}
		for _, positions := range [][]int{histogram.CutPositions(len(col), 2+int(bins)), every(len(col))} {
			for _, p := range []int{1, 2, 3, 5, 8} {
				got, _ := runSelect(p, cols, positions)
				want := serialSelect(col, positions)
				for r := range got {
					if !slices.EqualFunc(got[r][0], want, sameBits) {
						t.Fatalf("p=%d rank %d: Select(%v) = %v, serial = %v", p, r, col, got[r][0], want)
					}
				}
			}
		}
	})
}

// TestSortKeys: the keys' radix sort equals a comparator sort.
func TestSortKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 3, 255, 1000} {
		for _, spread := range []uint64{1, 256, 1 << 40, math.MaxUint64} {
			t.Run(fmt.Sprintf("n=%d spread=%d", n, spread), func(t *testing.T) {
				a := make([]uint64, n)
				for i := range a {
					a[i] = rng.Uint64() % spread
				}
				want := slices.Clone(a)
				slices.Sort(want)
				got, spare := sortKeys(a, make([]uint64, n))
				if !slices.Equal(got, want) {
					t.Fatalf("sortKeys = %v, want %v", got, want)
				}
				if n > 0 && &got[0] == &spare[0] {
					t.Fatal("the spare buffer is the sorted one")
				}
			})
		}
	}
}
