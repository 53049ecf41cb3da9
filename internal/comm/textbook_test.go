package comm

// The textbook message-passing collectives of Kumar, Grama, Gupta and
// Karypis's "Introduction to Parallel Computing" (the paper's reference
// [6], which it cites for its all-to-all, reduction and prefix
// operations), built purely from the point-to-point send and recv of
// p2p.go: binomial-tree broadcast and reduction, ring allgather,
// shifted-pairwise all-to-all personalized exchange, and the
// distance-doubling parallel prefix.
//
// The package's collectives exchange deposits directly and charge
// closed-form costs from timing.Model. These are the cross-check: the same
// operations decomposed into real point-to-point messages, whose
// virtual-clock cost emerges from the P2P latency/bandwidth terms alone.
// crosscheck_test.go asserts both result equivalence with the package's
// collectives and cost agreement with the model's formulas, validating the
// linear communication model the evaluation rests on (the paper benchmarks
// its machine the same way).

import "fmt"

// binomialBcast distributes the root's vector to every rank along a
// binomial tree: ⌈log2 p⌉ rounds; in round k the first 2^k (relative)
// ranks forward to ranks 2^k..2^(k+1)-1.
func binomialBcast[T any](c *Comm, root int, x []T) []T {
	p := c.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("comm: binomialBcast root %d out of range [0,%d)", root, p))
	}
	if p == 1 {
		return x
	}
	rel := (c.Rank() - root + p) % p
	var data []T
	if rel == 0 {
		data = x
	}
	for d := 1; d < p; d *= 2 {
		if rel < d {
			if dst := rel + d; dst < p {
				send(c, (dst+root)%p, data)
			}
		} else if rel < 2*d {
			data = recv[T](c, (rel-d+root)%p)
		}
	}
	return data
}

// binomialReduce combines equal-length vectors elementwise onto the root
// along the reversed binomial tree. op is applied so that lower ranks fold
// on the left, matching Reduce's deterministic order for non-commutative
// operations. Non-root ranks receive nil.
func binomialReduce[T any](c *Comm, root int, x []T, op func(a, b T) T) []T {
	p := c.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("comm: binomialReduce root %d out of range [0,%d)", root, p))
	}
	acc := make([]T, len(x))
	copy(acc, x)
	if p == 1 {
		return acc
	}
	rel := (c.Rank() - root + p) % p

	// Binomial tree, distances ascending so every subtree completes
	// before it forwards: in the round with distance d, relative ranks
	// ≡ d (mod 2d) send their fold to rel-d and leave; ranks ≡ 0 (mod 2d)
	// fold in rel+d's segment (which covers the adjacent higher ranks, so
	// lower segments always fold on the left — deterministic for
	// non-commutative ops; relative rank order is rotated by the root).
	for d := 1; d < p; d *= 2 {
		switch rel & (2*d - 1) {
		case d:
			send(c, (rel-d+root)%p, acc)
			return nil
		case 0:
			if src := rel + d; src < p {
				v := recv[T](c, (src+root)%p)
				if len(v) != len(acc) {
					panic("comm: binomialReduce length mismatch")
				}
				for i := range acc {
					acc[i] = op(acc[i], v[i])
				}
			}
		}
	}
	if rel != 0 {
		return nil
	}
	return acc
}

// reduceBcastAllReduce is binomialReduce to rank 0 followed by
// binomialBcast — the general-p textbook composition (2·⌈log2 p⌉ rounds).
func reduceBcastAllReduce[T any](c *Comm, x []T, op func(a, b T) T) []T {
	red := binomialReduce(c, 0, x, op)
	return binomialBcast(c, 0, red)
}

// ringAllgather collects every rank's vector on every rank with the ring
// algorithm: p-1 steps, each forwarding the most recently received block
// to the right neighbour. Variable lengths are supported.
func ringAllgather[T any](c *Comm, x []T) [][]T {
	p := c.Size()
	out := make([][]T, p)
	out[c.Rank()] = x
	if p == 1 {
		return out
	}
	right := (c.Rank() + 1) % p
	left := (c.Rank() - 1 + p) % p
	block := x
	blockOwner := c.Rank()
	for step := 0; step < p-1; step++ {
		// Even ranks send first to break the ring's send/receive cycle
		// deterministically (mailboxes are buffered, but a fixed order
		// keeps virtual clocks reproducible).
		if c.Rank()%2 == 0 {
			send(c, right, block)
			block = recv[T](c, left)
		} else {
			incoming := recv[T](c, left)
			send(c, right, block)
			block = incoming
		}
		blockOwner = (blockOwner - 1 + p) % p
		out[blockOwner] = block
	}
	return out
}

// pairwiseAllToAll performs the personalized exchange with the
// shifted-pairwise algorithm: p-1 steps; in step k each rank sends its
// buffer for rank (rank+k) mod p and receives from (rank-k) mod p.
func pairwiseAllToAll[T any](c *Comm, bufs [][]T) [][]T {
	p := c.Size()
	if len(bufs) != p {
		panic(fmt.Sprintf("comm: pairwiseAllToAll has %d buffers; world has %d ranks", len(bufs), p))
	}
	got := make([][]T, p)
	got[c.Rank()] = bufs[c.Rank()]
	for k := 1; k < p; k++ {
		dst := (c.Rank() + k) % p
		src := (c.Rank() - k + p) % p
		send(c, dst, bufs[dst])
		got[src] = recv[T](c, src)
	}
	return got
}

// doublingExScan computes the exclusive prefix with the distance-doubling
// algorithm: ⌈log2 p⌉ rounds build the inclusive prefix (each round
// prepends the fold of the segment twice as far to the left), and one
// final shift to the right neighbour turns it exclusive.
//
// Invariant: entering the round with distance d, run holds the fold of
// ranks [max(0, r-d+1), r]; receiving the left segment [max(0, r-2d+1),
// r-d] extends the coverage to distance 2d. After the last round run is
// the inclusive prefix fold of ranks [0, r].
func doublingExScan[T any](c *Comm, x []T, op func(a, b T) T, zero T) []T {
	p := c.Size()
	r := c.Rank()
	n := len(x)

	run := make([]T, n)
	copy(run, x)
	for d := 1; d < p; d *= 2 {
		if r+d < p {
			send(c, r+d, run)
		}
		if r-d >= 0 {
			t := recv[T](c, r-d)
			if len(t) != n {
				panic("comm: doublingExScan length mismatch")
			}
			for i := range run {
				run[i] = op(t[i], run[i])
			}
		}
	}

	// Shift: exclusive[r] = inclusive[r-1]; rank 0 gets the identity.
	if r+1 < p {
		send(c, r+1, run)
	}
	if r == 0 {
		out := make([]T, n)
		for i := range out {
			out[i] = zero
		}
		return out
	}
	return recv[T](c, r-1)
}
