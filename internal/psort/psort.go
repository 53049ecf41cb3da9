// Package psort implements the Presort phase: a scalable parallel sample
// sort of distributed continuous attribute lists, followed by the parallel
// shift that rebalances the sorted list so every processor again owns an
// equal contiguous block (the load-balanced initial distribution the rest
// of the induction relies on). The shift is the package's one answer to
// redistributing an ordered, segmented list into block shares: Shift also
// rebalances every node's lists per level (ABL-REBAL).
//
// The total order is (value, record id): ties broken by record id make the
// global order — and therefore every downstream split decision — fully
// deterministic and independent of the processor count.
//
// No step compares entries to sort them. The local sort is a stable LSD
// radix sort on 8-bit digits of an order-preserving 64-bit key of the
// value: a negative value takes its inverted bits, any other value its bits
// with the sign bit set, and -0 first becomes +0, because the order calls
// the two equal. Entries with equal keys keep their input order, which is
// record-id order for every list BuildLists emits; other input is first
// sorted by record id with the same passes. All digit histograms are
// counted in one pass, and a digit every entry shares costs no pass. The
// sample pool and the received runs are merged, p ways, over a heap of run
// heads. NaN, which has a key but no place in the order, never reaches a
// list: Table.AppendRow rejects non-finite values.
//
// The histogram split modes need only a few order statistics per column,
// not the sorted lists, so their presort is Select (select.go): each rank
// sorts its own block's keys with the same radix passes, and an exact
// distributed selection finds the values at given global positions of the
// (value, record id) order without moving any entry between ranks.
package psort

import (
	"slices"
	"sort"

	"repro/internal/comm"
	"repro/internal/dataset"
)

// less is the total order on entries (dataset.CompareContEntries).
func less(a, b dataset.ContEntry) bool {
	return dataset.CompareContEntries(a, b) < 0
}

// Sort globally sorts the distributed list and rebalances it: afterwards
// rank r holds exactly positions BlockRange(N, p, r) of the sorted order.
// Every rank must call it (it communicates). The local input is consumed.
// A rank sorting several lists passes them through one Sorter instead.
func Sort(c *comm.Comm, local []dataset.ContEntry) []dataset.ContEntry {
	var s Sorter
	return s.Sort(c, local)
}

// Sorter is one rank's presort scratch, kept across the lists it sorts and
// grown as needed: spare is the radix sort's ping-pong partner, merged the
// output of the p-way merge. Neither is refilled while a peer may read it.
// spare is always the buffer the radix sort did not leave its result in,
// which no peer is sent. merged is sent in the shift and refilled at the
// next list's merge, after that list's sample Allgather, which a peer
// enters only once it has read the last shift (rule 2 in internal/comm).
// The zero Sorter is ready to use.
type Sorter struct {
	spare, merged []dataset.ContEntry
}

// Sort is the package Sort reusing s's scratch; the local input is
// consumed, and its storage may become s's scratch.
func (s *Sorter) Sort(c *comm.Comm, local []dataset.ContEntry) []dataset.ContEntry {
	p := c.Size()
	model := c.Model()

	// Step 1: local sort.
	c.Compute(model.SortTime(len(local)))
	local, s.spare = radixSort(local, slices.Grow(s.spare[:0], len(local)))

	if p == 1 {
		return local
	}

	// Step 2: regular sampling — p-1 local samples at even intervals
	// (fewer only when the fragment itself is smaller). Full coverage of
	// every local quantile is essential: sampling fewer positions
	// concentrates the pool near each fragment's interior quantiles and
	// collapses the splitters onto the global median.
	n := p - 1
	if len(local) < n {
		n = len(local)
	}
	samples := make([]dataset.ContEntry, 0, n)
	for i := 1; i <= n; i++ {
		idx := i * len(local) / (n + 1)
		if idx < len(local) {
			samples = append(samples, local[idx])
		}
	}

	// Step 3: gather all samples everywhere and derive p-1 splitters.
	// The sample pool is O(p²) entries per rank — one of the structures
	// whose growth with p bends the memory and runtime curves at large p.
	// Each rank's contribution arrives sorted, so ordering the pool is a
	// p-way merge (n·log2 p comparisons), not a full sort.
	runs := comm.Allgather(c, samples)
	pool := make([]dataset.ContEntry, runsLen(runs))
	c.Mem().Alloc(int64(len(pool)) * dataset.ContEntrySize)
	c.Compute(float64(len(pool)) * logish(p) / model.SortRate)
	mergeRuns(pool, runs)
	splitters := make([]dataset.ContEntry, 0, p-1)
	for i := 1; i < p; i++ {
		idx := i * len(pool) / p
		if idx >= len(pool) {
			idx = len(pool) - 1
		}
		if len(pool) > 0 {
			splitters = append(splitters, pool[idx])
		}
	}
	c.Mem().Free(int64(len(pool)) * dataset.ContEntrySize)

	// Step 4: partition the sorted local list by the splitters and
	// exchange: destination d receives entries in (splitter[d-1],
	// splitter[d]].
	send := make([][]dataset.ContEntry, p)
	start := 0
	for d := 0; d < p; d++ {
		end := len(local)
		if d < len(splitters) {
			sp := splitters[d]
			end = sort.Search(len(local), func(i int) bool { return less(sp, local[i]) })
		}
		if end < start {
			end = start
		}
		send[d] = local[start:end]
		start = end
	}
	recv := comm.AllToAllInto(c, send, nil)

	// Step 5: merge the p sorted runs (n·log2 p comparisons) into the
	// scratch merge buffer and shift the result into block shares.
	total := runsLen(recv)
	c.Mem().Alloc(int64(total) * dataset.ContEntrySize)
	c.Compute(float64(total) * logish(p) / model.SortRate)
	s.merged = mergeRuns(slices.Grow(s.merged[:0], total)[:total], recv)
	out, _ := Shift(c, s.merged, []int64{int64(total)})
	c.Mem().Free(int64(total) * dataset.ContEntrySize)
	return slices.Clip(out) // a shift of nothing returns its input
}

// runsLen is the runs' total length.
func runsLen(runs [][]dataset.ContEntry) int {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	return n
}

// logish returns ceil(log2(n)) for n >= 1 (1 for n <= 2).
func logish(n int) float64 {
	l := 1
	for v := 2; v < n; v *= 2 {
		l++
	}
	return float64(l)
}

// Shift is the parallel shift of a segmented list. list concatenates, in
// node order, this rank's segments of several globally ordered node lists;
// lens[i] is node i's segment length, and every rank passes the same node
// count. Afterwards rank r holds exactly positions BlockRange(total_i, p, r)
// of every node i's global order, order preserved; Shift returns that list,
// nodes concatenated in order, with its per-node lengths. Every rank must
// call it: one Allgather of the lengths, one AllToAll of the entries (none
// when every node is empty), and a list pass over what arrives. Peers may
// read list in place until they pass their next collective, so the caller
// must not overwrite it before then.
func Shift[E any](c *comm.Comm, list []E, lens []int64) ([]E, []int64) {
	p, me := c.Size(), c.Rank()
	if p == 1 {
		return list, lens
	}
	byRank := comm.Allgather(c, lens)
	prefix := make([]int64, len(lens)) // node i's entries on ranks below me
	totals := make([]int64, len(lens))
	var all int64
	for r, row := range byRank {
		for i, n := range row {
			if r < me {
				prefix[i] += n
			}
			totals[i] += n
			all += n
		}
	}
	if all == 0 {
		return list[:0], lens
	}

	// Route each segment to the block owners of its global positions, in
	// contiguous chunks. A destination's first chunk is a capacity-clipped
	// subslice of list, so a destination receiving one chunk (every
	// destination of a one-node shift) costs no copy, and appending a
	// second chunk copies instead of overwriting list.
	send := make([][]E, p)
	off := 0
	for i, n := range lens {
		for j := 0; j < int(n); {
			pos := int(prefix[i]) + j
			owner := dataset.BlockOwner(int(totals[i]), p, pos)
			_, hi := dataset.BlockRange(int(totals[i]), p, owner)
			end := min(j+hi-pos, int(n))
			chunk := list[off+j : off+end : off+end]
			if send[owner] == nil {
				send[owner] = chunk
			} else {
				send[owner] = append(send[owner], chunk...)
			}
			j = end
		}
		off += int(n)
	}
	recv := comm.AllToAllInto(c, send, nil)

	// Receive: my share of node i is BlockRange(total_i, p, me), and every
	// source sent its overlap with it. Each source's buffer holds only my
	// entries, ordered by (node, position), so one cursor per source walks
	// it.
	outLens := make([]int64, len(lens))
	size := 0
	for i, t := range totals {
		lo, hi := dataset.BlockRange(int(t), p, me)
		outLens[i] = int64(hi - lo)
		size += hi - lo
	}
	out := make([]E, 0, size)
	cursors := make([]int, p)
	for i, t := range totals {
		lo, hi := dataset.BlockRange(int(t), p, me)
		var srcLo int64
		for r, row := range byRank {
			srcHi := srcLo + row[i]
			if ovLo, ovHi := max(srcLo, int64(lo)), min(srcHi, int64(hi)); ovLo < ovHi {
				n := int(ovHi - ovLo)
				out = append(out, recv[r][cursors[r]:cursors[r]+n]...)
				cursors[r] += n
			}
			srcLo = srcHi
		}
	}
	c.Compute(c.Model().SplitTime(len(out)))
	return out, outLens
}
