package psort

import (
	"math"

	"repro/internal/dataset"
)

// radixKey maps a value to a 64-bit key whose unsigned order is the value's
// numeric order: a negative value takes its inverted bits, any other value
// its bits with the sign bit set. -0 takes +0's key, because
// CompareContEntries calls the two equal and breaks the tie by record id.
// NaN has a key (above +Inf) but never reaches a list: Table.AppendRow
// rejects non-finite values.
func radixKey(v float64) uint64 {
	if v == 0 {
		v = 0 // -0 → +0
	}
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// ridKey is the record id with its sign bit flipped: unsigned order is
// signed order.
func ridKey(rid int32) uint32 { return uint32(rid) ^ 1<<31 }

// radixSort is the local sort: a stable LSD radix sort of a on 8-bit
// digits, in CompareContEntries order with entries that compare equal kept
// in input order, so the result equals slices.SortStableFunc(a,
// dataset.CompareContEntries). buf (len(buf) >= len(a)) is the ping-pong
// partner. One pass counts every digit's histogram, and a digit that is
// the same for every entry costs no pass. The value passes keep ties in
// input order, so input already in record-id order — the presort's always
// is, BuildLists emits record order — needs only them; otherwise the same
// passes run on the record id's bytes first, which makes it a sort on the
// full (value, rid) key. It returns the sorted entries, which are a or
// buf[:len(a)], and the other of the two; a comes back with its capacity
// clipped, so whoever keeps it never writes past its length.
func radixSort(a, buf []dataset.ContEntry) (sorted, spare []dataset.ContEntry) {
	src, dst := a[:len(a):len(a)], buf[:len(a)]
	if len(a) < 2 {
		return src, dst
	}
	if !ridOrdered(a) {
		var counts [4][256]int
		for _, e := range a {
			k := ridKey(e.Rid)
			counts[0][byte(k)]++
			counts[1][byte(k>>8)]++
			counts[2][byte(k>>16)]++
			counts[3][byte(k>>24)]++
		}
		for d := range counts {
			if ridPass(src, dst, &counts[d], 8*uint(d)) {
				src, dst = dst, src
			}
		}
	}
	var counts [8][256]int
	for _, e := range src {
		k := radixKey(e.Val)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	for d := range counts {
		if valuePass(src, dst, &counts[d], 8*uint(d)) {
			src, dst = dst, src
		}
	}
	return src, dst
}

// sortKeys is radixSort for bare keys, the histogram modes' local sort: a
// stable LSD radix sort of a on the same 8-bit digits, with no record ids to
// carry. buf (len(buf) >= len(a)) is the ping-pong partner; it returns the
// sorted keys, which are a or buf[:len(a)], and the other of the two.
func sortKeys(a, buf []uint64) (sorted, spare []uint64) {
	src, dst := a[:len(a):len(a)], buf[:len(a)]
	if len(a) < 2 {
		return src, dst
	}
	var counts [8][256]int
	for _, k := range src {
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	for d := range counts {
		if !offsets(&counts[d], len(src)) {
			continue
		}
		shift := 8 * uint(d)
		for _, k := range src {
			b := byte(k >> shift)
			dst[counts[d][b]] = k
			counts[d][b]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// ridOrdered reports whether a is in non-decreasing record-id order.
func ridOrdered(a []dataset.ContEntry) bool {
	for i := 1; i < len(a); i++ {
		if a[i].Rid < a[i-1].Rid {
			return false
		}
	}
	return true
}

// offsets turns a digit histogram of n entries into each bucket's first
// output position; it reports false, leaving the histogram as it is, when
// one bucket holds all n (the pass would be the identity).
func offsets(count *[256]int, n int) bool {
	sum := 0
	for i, c := range count {
		if c == n {
			return false
		}
		count[i] = sum
		sum += c
	}
	return true
}

// valuePass stably scatters src into dst by the value key's digit at
// shift, or reports false when that digit is constant.
func valuePass(src, dst []dataset.ContEntry, count *[256]int, shift uint) bool {
	if !offsets(count, len(src)) {
		return false
	}
	for _, e := range src {
		k := byte(radixKey(e.Val) >> shift)
		dst[count[k]] = e
		count[k]++
	}
	return true
}

// ridPass is valuePass on the record id's key.
func ridPass(src, dst []dataset.ContEntry, count *[256]int, shift uint) bool {
	if !offsets(count, len(src)) {
		return false
	}
	for _, e := range src {
		k := byte(ridKey(e.Rid) >> shift)
		dst[count[k]] = e
		count[k]++
	}
	return true
}

// mergeRuns merges sorted runs into dst, which must be exactly as long as
// the runs together, and returns it. A binary min-heap holds the run heads,
// so each entry costs O(log p) comparisons, until two runs are left, which
// a plain two-way merge finishes. Equal heads leave in run order, which
// makes the result equal a stable sort of the runs' concatenation.
func mergeRuns(dst []dataset.ContEntry, runs [][]dataset.ContEntry) []dataset.ContEntry {
	var small [8]run // the heap of a small world lives on the stack
	h := runHeap(small[:0])
	for i, r := range runs {
		if len(r) > 0 {
			h = append(h, run{r, i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	n := 0
	for len(h) > 2 {
		top := &h[0]
		dst[n] = top.rest[0]
		n++
		if top.rest = top.rest[1:]; len(top.rest) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	if len(h) == 2 {
		// Two runs left: a plain two-way merge, x winning ties.
		x, y := h[0], h[1]
		if y.id < x.id {
			x, y = y, x
		}
		i, j := 0, 0
		for i < len(x.rest) && j < len(y.rest) {
			if dataset.CompareContEntries(y.rest[j], x.rest[i]) < 0 {
				dst[n] = y.rest[j]
				j++
			} else {
				dst[n] = x.rest[i]
				i++
			}
			n++
		}
		n += copy(dst[n:], x.rest[i:])
		n += copy(dst[n:], y.rest[j:])
	} else if len(h) == 1 {
		n += copy(dst[n:], h[0].rest)
	}
	if n != len(dst) {
		panic("psort: merge output length differs from the runs' total")
	}
	return dst
}

// run is what is left of one sorted run; id is its index among the runs.
type run struct {
	rest []dataset.ContEntry
	id   int
}

// runHeap is a min-heap of runs by head entry, then run index.
type runHeap []run

func (h runHeap) less(i, j int) bool {
	if c := dataset.CompareContEntries(h[i].rest[0], h[j].rest[0]); c != 0 {
		return c < 0
	}
	return h[i].id < h[j].id
}

func (h runHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h.less(r, m) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
