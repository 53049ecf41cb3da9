package comm

import (
	"fmt"
	"unsafe"
)

// sizeOf returns the in-memory (and, for the flat types this repository
// transfers, the wire) size of one element of type T.
func sizeOf[T any]() int {
	var t T
	return int(unsafe.Sizeof(t))
}

// ensureLen returns buf resliced to length n, reallocating only when the
// capacity is insufficient. It is the growth primitive of the *Into
// collective variants and of the scratch arenas built on top of them.
func ensureLen[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// The *Into collectives write into a caller-provided output buffer
// (growing it only when too small; nil allocates) so steady-state callers
// allocate nothing per call. Two rules keep reuse race-free under the
// barrier protocol:
//
//  1. out must not alias x: other ranks fold the caller's deposited x
//     concurrently with the caller writing out.
//  2. The caller must not mutate x (nor reuse out as a later input) until
//     it has returned from a subsequent collective in which every rank
//     participates — returning from that collective proves every rank has
//     entered it, and therefore has finished folding this one's deposits.
//
// The per-level induction loop satisfies rule 2 naturally: every scratch
// buffer is refilled at the next level, after the current level's trailing
// collectives.

// AllToAllInto performs one step of all-to-all personalized communication:
// every rank provides one buffer per destination (send[d] goes to rank d)
// and receives one buffer per source (recv[s] came from rank s). Buffers
// may be empty or nil; lengths may differ per pair (all-to-allv). recv is
// reused as the received-buffer index (see the *Into reuse rules above —
// the received buffers themselves may alias the senders' buffers either
// way, only the p-entry index is pooled).
//
// This is the primitive of the paper's parallel hashing paradigm: with m
// keys hashed per processor it runs in O(m) time provided m is Ω(p).
func AllToAllInto[T any](c *Comm, send, recv [][]T) [][]T {
	p := c.Size()
	if len(send) != p {
		panic(fmt.Sprintf("comm: AllToAll send has %d buffers; world has %d ranks", len(send), p))
	}
	es, me := sizeOf[T](), c.Rank()
	own := 0
	for d, buf := range send {
		if d != me {
			own += len(buf) * es
		}
	}
	recv = ensureLen(recv, p)
	maxSent := exchangeColumn(c, send, recv, own)
	got := 0
	for s, buf := range recv {
		if s != me {
			got += len(buf) * es
		}
	}
	c.charge(int64(own), int64(got), &c.Stats().AllToAlls, c.Model().AllToAll(p, maxSent))
	return recv
}

// foldRanks is the one rank-order fold under every reduction and scan. It
// folds elements [off, off+len(out)) of the deposits of ranks [lo, hi)
// into out, in rank order (so non-commutative ops stay deterministic):
// over what out already holds when seeded (a scan starts from its zero
// vector), otherwise starting from a copy of the first deposit. Every
// deposit it reads must be n elements long, like the caller's own.
func foldRanks[T any](c *Comm, name string, all []deposit, lo, hi, n int, out []T, off int, seeded bool, op func(a, b T) T) {
	for r := lo; r < hi; r++ {
		v := depositSlice[T](c, all, r, name)
		if len(v) != n {
			panic(&ProtocolError{Op: name, Rank: c.Phys(),
				Detail: fmt.Sprintf("length mismatch: rank %d has %d elements, rank %d has %d", c.Rank(), n, r, len(v))})
		}
		v = v[off : off+len(out)]
		if !seeded {
			copy(out, v)
			seeded = true
			continue
		}
		for i := range out {
			out[i] = op(out[i], v[i])
		}
	}
}

// AllReduceInto combines equal-length vectors from every rank elementwise
// with op (applied in rank order, so non-commutative ops are still
// deterministic) and returns the combined vector on every rank, written
// into out (see the *Into reuse rules above).
func AllReduceInto[T any](c *Comm, x, out []T, op func(a, b T) T) []T {
	p, n := c.Size(), len(x)
	all := exchangeSlices(c, x)
	out = ensureLen(out, n)
	foldRanks(c, "AllReduce", all, 0, p, n, out, 0, false, op)
	bytes := n * sizeOf[T]()
	c.charge(int64(bytes), int64(bytes), &c.Stats().AllReduces, c.Model().AllReduce(p, bytes))
	return out
}

// AllReduceSumInto is AllReduceInto specialised to elementwise integer
// sums, the operation used for count matrices.
func AllReduceSumInto(c *Comm, x, out []int64) []int64 {
	return AllReduceInto(c, x, out, func(a, b int64) int64 { return a + b })
}

// ExScanInto computes an exclusive prefix scan into out (see the *Into
// reuse rules above): rank r receives the fold (in rank order) of the
// vectors contributed by ranks 0..r-1; rank 0 receives a vector of zero
// values. This is the operation FindSplitI uses to turn local class-count
// matrices into the global count matrix at the start of each rank's list
// fragment.
func ExScanInto[T any](c *Comm, x, out []T, op func(a, b T) T, zero T) []T {
	return scanInto(c, "ExScan", false, x, out, op, zero)
}

// scanInto is both exclusive scans: the fold of the ranks before this one
// or, reversed, of the ranks after it.
func scanInto[T any](c *Comm, name string, reverse bool, x, out []T, op func(a, b T) T, zero T) []T {
	p, n := c.Size(), len(x)
	all := exchangeSlices(c, x)
	out = ensureLen(out, n)
	for i := range out {
		out[i] = zero
	}
	lo, hi := 0, c.Rank()
	if reverse {
		lo, hi = c.Rank()+1, p
	}
	foldRanks(c, name, all, lo, hi, n, out, 0, true, op)
	bytes := n * sizeOf[T]()
	c.charge(int64(bytes), int64(bytes), &c.Stats().Scans, c.Model().Scan(p, bytes))
	return out
}

// ExScanSumInto is ExScanInto specialised to integer sums.
func ExScanSumInto(c *Comm, x, out []int64) []int64 {
	return ExScanInto(c, x, out, func(a, b int64) int64 { return a + b }, 0)
}

// ReverseExScanInto is ExScanInto with the rank order reversed: rank r
// receives the fold (in increasing rank order) of the vectors contributed
// by ranks r+1..p-1; the last rank receives zero values. FindSplitII uses
// it to learn the first attribute value of the next non-empty segment to
// the right, in O(log p) modeled rounds instead of an O(p)-bytes allgather.
func ReverseExScanInto[T any](c *Comm, x, out []T, op func(a, b T) T, zero T) []T {
	return scanInto(c, "ReverseExScan", true, x, out, op, zero)
}

// Allgather returns every rank's contribution, indexed by rank.
// Contributions may have different lengths (allgatherv) and, as with
// AllToAllInto, may alias the senders' buffers: treat them as read-only.
func Allgather[T any](c *Comm, x []T) [][]T {
	p := c.Size()
	es := sizeOf[T]()
	all := exchangeSlices(c, x)
	out := make([][]T, p)
	maxEach, recvBytes := 0, 0
	for r := 0; r < p; r++ {
		v := depositSlice[T](c, all, r, "Allgather")
		out[r] = v
		if b := len(v) * es; b > maxEach {
			maxEach = b
		}
		if r != c.Rank() {
			recvBytes += len(v) * es
		}
	}
	c.charge(int64((p-1)*len(x)*es), int64(recvBytes), &c.Stats().Allgathers, c.Model().Allgather(p, maxEach))
	return out
}

// CandidateGatherInto gathers one equal-length contribution vector from
// every rank and returns them concatenated in rank order, written into out
// (see the *Into reuse rules above) — the fixed-size vote primitive of
// top-k attribute-voting split finding: each rank deposits its nomination
// ballot and every rank receives the full ballot box. Unlike Allgather
// (whose per-rank results may alias the senders' buffers on the simulated
// machine), the result is a private flat copy, and unlike allgatherv, equal
// contribution lengths are a protocol invariant: a rank whose ballot
// disagrees in size is a data-boundary fault, reported as a typed
// *ProtocolError. The communication pattern — and the modeled cost — is an
// allgather of len(x) elements per rank.
func CandidateGatherInto[T any](c *Comm, x, out []T) []T {
	p := c.Size()
	es := sizeOf[T]()
	n := len(x)
	all := exchangeSlices(c, x)
	out = ensureLen(out, p*n)
	for r := 0; r < p; r++ {
		v := depositSlice[T](c, all, r, "CandidateGather")
		if len(v) != n {
			panic(&ProtocolError{Op: "CandidateGather", Rank: c.Phys(),
				Detail: fmt.Sprintf("ballot length mismatch: rank %d has %d elements, rank %d has %d", c.Rank(), n, r, len(v))})
		}
		copy(out[r*n:(r+1)*n], v)
	}
	// Each rank sends its ballot to the other p-1 ranks and receives their
	// p-1 ballots.
	bytes := int64((p - 1) * n * es)
	c.charge(bytes, bytes, &c.Stats().CandidateGathers, c.Model().Allgather(p, n*es))
	return out
}

// Reduce combines equal-length vectors elementwise with op onto the root
// rank. The root receives the combined vector; every other rank receives
// nil. op is applied in rank order.
func Reduce[T any](c *Comm, root int, x []T, op func(a, b T) T) []T {
	p := c.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("comm: Reduce root %d out of range [0,%d)", root, p))
	}
	n := len(x)
	bytes := n * sizeOf[T]()
	all := exchangeSlices(c, x)
	if c.Rank() != root {
		c.charge(int64(bytes), 0, &c.Stats().Reduces, c.Model().Reduce(p, bytes))
		return nil
	}
	c.charge(0, int64((p-1)*bytes), &c.Stats().Reduces, c.Model().Reduce(p, bytes))
	out := make([]T, n)
	foldRanks(c, "Reduce", all, 0, p, n, out, 0, false, op)
	return out
}

// ReduceSum is Reduce specialised to integer sums.
func ReduceSum(c *Comm, root int, x []int64) []int64 {
	return Reduce(c, root, x, func(a, b int64) int64 { return a + b })
}

// ReduceScatterInto combines equal-length vectors from every rank
// elementwise with op (applied in rank order) and scatters the result into
// out (see the *Into reuse rules above): rank r receives the contiguous
// segment of counts[r] elements starting at counts[0]+…+counts[r-1] of the
// combined vector. counts must be identical on every rank and sum to the
// vector length (MPI_Reduce_scatter).
//
// This is the histogram-exchange primitive of binned split finding: every
// rank contributes the full local count vector but owns — and pays receive
// bytes for — only its own slice of the global histogram.
func ReduceScatterInto[T any](c *Comm, x, out []T, counts []int, op func(a, b T) T) []T {
	p := c.Size()
	if len(counts) != p {
		panic(fmt.Sprintf("comm: ReduceScatter has %d counts; world has %d ranks", len(counts), p))
	}
	n := len(x)
	total, off := 0, 0
	for r, k := range counts {
		if k < 0 {
			panic(fmt.Sprintf("comm: ReduceScatter counts[%d] = %d negative", r, k))
		}
		if r < c.Rank() {
			off += k
		}
		total += k
	}
	if total != n {
		panic(fmt.Sprintf("comm: ReduceScatter counts sum to %d; vector has %d elements", total, n))
	}
	es := sizeOf[T]()
	all := exchangeSlices(c, x)
	mine := counts[c.Rank()]
	out = ensureLen(out, mine)
	foldRanks(c, "ReduceScatter", all, 0, p, n, out, off, false, op)
	// Each rank sends every element it does not keep and receives the
	// other p-1 contributions to the elements it does keep.
	c.charge(int64((n-mine)*es), int64((p-1)*mine*es), &c.Stats().ReduceScatters, c.Model().ReduceScatter(p, n*es))
	return out
}

// ReduceScatterSum32Into is ReduceScatterInto specialised to elementwise
// uint32 sums, the wire format of the binned histogram exchange (record ids
// are int32, so any global class count fits in 32 bits at half the wire
// cost of the int64 count matrices).
func ReduceScatterSum32Into(c *Comm, x, out []uint32, counts []int) []uint32 {
	return ReduceScatterInto(c, x, out, counts, func(a, b uint32) uint32 { return a + b })
}
