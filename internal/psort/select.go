package psort

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/comm"
)

// Select is the histogram modes' presort: it finds the values at global
// positions of every column's (value, record id) order without moving a
// single entry between ranks. cols[k] is this rank's block of column k in
// record order — rank r holds the record ids dataset.BlockRange(n, p, r) of
// every column, so blocks are contiguous rid ranges in rank order — and
// positions (each in [0, n)) are the same on every rank. It returns, on
// every rank, out[k][j] = the value at positions[j] of column k's order,
// the sign of a zero included. Every rank must call it.
//
// Each rank sorts its blocks' keys locally (sortKeys), and the positions are
// then selected exactly: every (column, position) target bisects a key
// interval in rounds of one all-reduce of uint32 counts, one per interval
// still open (bisect), and a target stops once its interval holds at most
// settleWindow keys globally, or a single key. One allgather of those
// windows then settles every target (settle). Every step is charged to the
// caller's phase: the local sorts as SortTime, the window searches as
// comparisons at SortRate, the collectives as themselves; the key buffers
// are metered while they live.
func Select(c *comm.Comm, cols [][]float64, n int, positions []int) [][]float64 {
	model := c.Model()
	local := 0
	if len(cols) > 0 {
		local = len(cols[0])
	}
	held := int64(len(cols)+1) * int64(local) * 8 // the keys and the sort's spare
	c.Mem().Alloc(held)
	keys := make([][]uint64, len(cols))
	spare := make([]uint64, local)
	for k, col := range cols {
		a := make([]uint64, len(col))
		for i, v := range col {
			a[i] = radixKey(v)
		}
		c.Compute(model.SortTime(len(a)))
		keys[k], spare = sortKeys(a, spare)
	}
	c.Mem().Free(int64(local) * 8)

	ts := make([]target, 0, len(cols)*len(positions))
	for k := range cols {
		for _, pos := range positions {
			ts = append(ts, target{col: k, pos: pos, kh: math.MaxUint64, w: n, hi: local})
		}
	}
	bisect(c, keys, ts)
	out := settle(c, cols, keys, ts, len(positions))
	c.Mem().Free(held - int64(local)*8)
	return out
}

// settleWindow is the global window size at which a target stops bisecting:
// its keys then travel in settle's one allgather. A window's keys cross to
// every rank while a count crosses once per round, so a small window is
// cheapest: 4 keys modeled lower Sort time and traffic than 8, 16, 32 or 64
// on EXP-BINNED's and EXP-VOTE's tables, with no change in host time.
const settleWindow = 4

// zeroKey is radixKey(±0): the one key that stands for two values.
var zeroKey = radixKey(0)

// keyValue inverts radixKey; zeroKey comes back as +0.
func keyValue(k uint64) float64 {
	if k>>63 == 1 {
		return math.Float64frombits(k ^ 1<<63)
	}
	return math.Float64frombits(^k)
}

// target is one (column, position) selection. Its key lies in [kl, kh];
// globally, below keys order before that interval and w keys lie in it, of
// which this rank's are keys[col][lo:hi].
type target struct {
	col, pos int
	kl, kh   uint64
	below, w int
	lo, hi   int
}

// open reports whether the target still bisects: its window is too large to
// gather and holds more than one key value.
func (t *target) open() bool { return t.w > settleWindow && t.kl != t.kh }

func addCount(a, b uint32) uint32 { return a + b }

// bisect narrows every target until it is no longer open. Each round halves
// every open key interval at its midpoint, counts this rank's window keys
// at or below it, and one all-reduce of those counts tells every rank which
// half holds each target's position. Open targets of one column that share
// an interval share its window, so they share one search and one count:
// all of a column's targets start as one interval, which splits as their
// positions part. At most 64 rounds: after 64 halvings an interval is one
// key.
func bisect(c *comm.Comm, keys [][]uint64, ts []target) {
	var open []int
	for i := range ts {
		if ts[i].open() {
			open = append(open, i)
		}
	}
	// The counts are double-buffered: a peer may still fold one round's
	// while this rank fills the next (rule 2 in internal/comm).
	var counts [2][]uint32
	var sums []uint32
	var split, group []int
	for round := 0; len(open) > 0; round++ {
		cnt := counts[round%2][:0]
		split, group = split[:0], group[:0]
		cmps := 0
		for j, i := range open {
			t := &ts[i]
			if j > 0 {
				if u := &ts[open[j-1]]; u.col == t.col && u.kl == t.kl && u.kh == t.kh {
					group = append(group, len(cnt)-1)
					continue
				}
			}
			mid := t.kl + (t.kh-t.kl)/2
			win := keys[t.col][t.lo:t.hi]
			m, _ := slices.BinarySearch(win, mid+1) // mid < kh, so mid+1 does not wrap
			group = append(group, len(cnt))
			split, cnt = append(split, t.lo+m), append(cnt, uint32(m))
			cmps += bits.Len(uint(len(win)))
		}
		counts[round%2] = cnt
		c.Compute(float64(cmps) / c.Model().SortRate)
		sums = comm.AllReduceInto(c, cnt, sums, addCount)
		next := open[:0]
		for j, i := range open {
			t, g := &ts[i], group[j]
			mid, le := t.kl+(t.kh-t.kl)/2, int(sums[g])
			if t.pos-t.below < le {
				t.kh, t.hi, t.w = mid, split[g], le
			} else {
				t.kl, t.lo, t.below, t.w = mid+1, split[g], t.below+le, t.w-le
			}
			if t.open() {
				next = append(next, i)
			}
		}
		open = next
	}
}

// settle reads every bisected target's value; npos is the targets per
// column. A window of one key other than zeroKey needs no exchange: the key
// is the value. A larger window of zeros, whose order is rank order and
// then record order, first narrows to the one zero at the position, on the
// rank that holds it, by an exclusive scan of the ranks' window sizes. Every
// other target then settles in one allgather: each rank sends, per target,
// its window's size and values, and every rank merges the windows stably by
// key in rank order — (value, record id) order — up to the position.
func settle(c *comm.Comm, cols [][]float64, keys [][]uint64, ts []target, npos int) [][]float64 {
	out := make([][]float64, len(cols))
	for k := range out {
		out[k] = make([]float64, npos)
	}
	var zeroRuns, gather []int
	for i := range ts {
		t := &ts[i]
		switch {
		case t.kl == t.kh && t.kl != zeroKey:
			out[t.col][i%npos] = keyValue(t.kl)
		case t.kl == t.kh && t.w > settleWindow:
			zeroRuns = append(zeroRuns, i)
			gather = append(gather, i)
		default:
			gather = append(gather, i)
		}
	}
	if len(zeroRuns) > 0 {
		sizes := make([]uint32, len(zeroRuns))
		for j, i := range zeroRuns {
			sizes[j] = uint32(ts[i].hi - ts[i].lo)
		}
		before := comm.ExScanInto(c, sizes, nil, addCount, 0)
		for j, i := range zeroRuns {
			t := &ts[i]
			if off := t.pos - t.below - int(before[j]); off >= 0 && off < t.hi-t.lo {
				t.lo += off
				t.hi = t.lo + 1
			} else {
				t.lo = t.hi
			}
			t.below, t.w = t.pos, 1
		}
	}
	if len(gather) == 0 {
		return out
	}

	// A key is its value, except that ±0 share zeroKey. The stable sort
	// keeps a block's zeros in record order, so the zero at sorted index x
	// of column k is the (x - first zero's index)-th zero of the block; a
	// column's zeros are read off its block once, when first needed.
	zeros := make([][]float64, len(cols))
	value := func(k, x int) float64 {
		if keys[k][x] != zeroKey {
			return keyValue(keys[k][x])
		}
		if zeros[k] == nil {
			for _, v := range cols[k] {
				if v == 0 {
					zeros[k] = append(zeros[k], v)
				}
			}
		}
		first, _ := slices.BinarySearch(keys[k], zeroKey)
		return zeros[k][x-first]
	}
	var send []uint64
	for _, i := range gather {
		t := &ts[i]
		send = append(send, uint64(t.hi-t.lo))
		for x := t.lo; x < t.hi; x++ {
			send = append(send, math.Float64bits(value(t.col, x)))
		}
	}
	parts := comm.Allgather(c, send)
	runs := make([][]uint64, len(parts))
	merged := 0
	for _, i := range gather {
		t := &ts[i]
		for r, part := range parts {
			m := int(part[0])
			runs[r], parts[r] = part[1:1+m], part[1+m:]
		}
		out[t.col][i%npos] = nth(runs, t.pos-t.below)
		merged += t.pos - t.below + 1
	}
	c.Compute(float64(merged) * logish(c.Size()) / c.Model().SortRate)
	return out
}

// nth returns the value at index x of the runs' merge, each run holding
// value bits sorted by key: the merge is stable, ties going to the earlier
// run, so runs in rank order merge into (value, record id) order. It steps
// the merge x+1 times, each step costing one look at every run's head.
func nth(runs [][]uint64, x int) float64 {
	for {
		best, bk := -1, uint64(0)
		for r, run := range runs {
			if len(run) == 0 {
				continue
			}
			if k := radixKey(math.Float64frombits(run[0])); best < 0 || k < bk {
				best, bk = r, k
			}
		}
		if x == 0 {
			return math.Float64frombits(runs[best][0])
		}
		runs[best] = runs[best][1:]
		x--
	}
}
