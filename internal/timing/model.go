// Package timing provides the linear communication/computation cost model
// used to derive machine-independent ("modeled") parallel runtimes.
//
// The ScalParC paper benchmarks its platform (a Cray T3D running Cray's MPI)
// "assuming a linear model of communication": a point-to-point transfer of m
// bytes costs latency + m/bandwidth, and an all-to-all personalized exchange
// costs a per-processor latency times p plus bytes/bandwidth. The model here
// is exactly that, with constants calibrated to mid-1990s T3D-class numbers.
// Every simulated processor carries a virtual clock; the comm layer advances
// clocks by these costs, and collectives synchronize clocks to the maximum,
// so max-over-ranks of the final clock is the modeled parallel runtime T_p.
//
// Absolute seconds are not the point — the paper's testbed cannot be
// reconstructed — but the comp/comm ratios this model produces preserve the
// shape of the paper's Figure 3: speedups that degrade as p grows for fixed
// N and improve as N grows for fixed p.
package timing

import "math"

// Model holds the cost constants of the simulated machine.
// All times are in seconds, bandwidths in bytes/second, rates in items/second.
type Model struct {
	// P2PLatency is the fixed startup cost of one point-to-point message.
	P2PLatency float64
	// P2PBandwidth is the streaming bandwidth of a point-to-point message.
	P2PBandwidth float64

	// A2ALatencyPerProc is the per-processor startup cost of an all-to-all
	// personalized exchange: a p-processor exchange pays p times this.
	A2ALatencyPerProc float64
	// A2ABandwidth is the aggregate per-processor bandwidth of all-to-all.
	A2ABandwidth float64

	// ScanRate is the per-processor rate, in attribute-list entries per
	// second, of the split-determining scan (gini evaluation per entry).
	ScanRate float64
	// SplitRate is the per-processor rate, in attribute-list entries per
	// second, of the splitting phase (partitioning entries among children,
	// filling hash/enquiry buffers, applying node-table answers).
	SplitRate float64
	// SortRate is the per-processor rate, in entries per second, of the
	// local sort inside the parallel sample sort (counted once per entry
	// per log-factor by the caller).
	SortRate float64
	// HashRate is the per-processor rate, in updates or enquiries per
	// second, of applying node-table operations that arrived over the wire.
	HashRate float64
}

// T3D returns the default machine model: a Cray T3D-like machine. The
// latency/bandwidth pairs mirror the paper's reported benchmark structure
// (tens of microseconds of point-to-point latency, tens of MB/s of
// point-to-point bandwidth, a smaller per-processor all-to-all latency with
// a higher aggregate all-to-all bandwidth); the compute rates correspond to
// a ~150 MHz Alpha 21064 doing a handful of operations per list entry.
func T3D() Model {
	return Model{
		P2PLatency:        30e-6,
		P2PBandwidth:      35e6,
		A2ALatencyPerProc: 25e-6,
		A2ABandwidth:      40e6,
		ScanRate:          2.0e6,
		SplitRate:         2.5e6,
		SortRate:          5.0e6, // ~20 cycles/comparison at 150 MHz ≈ 7.5M cmp/s; derated for cache misses
		HashRate:          4.0e6,
	}
}

// P2P returns the modeled cost of one point-to-point message of n bytes.
func (m Model) P2P(bytes int) float64 {
	return m.P2PLatency + float64(bytes)/m.P2PBandwidth
}

// AllToAll returns the modeled cost of one all-to-all personalized exchange
// among p processors where the busiest processor sends maxBytes in total.
func (m Model) AllToAll(p, maxBytes int) float64 {
	// Each float64(x*y) in this file rounds its product, so no CPU fuses it
	// into the addition: the same costs on every architecture (make fma).
	return float64(float64(p)*m.A2ALatencyPerProc) + float64(maxBytes)/m.A2ABandwidth
}

// AllReduce returns the modeled cost of an all-reduce of n bytes among p
// processors (recursive-doubling: 2·log2(p) rounds of latency plus data).
func (m Model) AllReduce(p, bytes int) float64 {
	return m.treeCost(p, bytes, 2)
}

// Scan returns the modeled cost of a parallel (exclusive) prefix scan of n
// bytes among p processors (log2(p) rounds).
func (m Model) Scan(p, bytes int) float64 {
	return m.treeCost(p, bytes, 1)
}

// Allgather returns the modeled cost of an allgather where each of the p
// processors contributes bytesEach bytes (ring algorithm: every processor
// receives (p-1)·bytesEach bytes).
func (m Model) Allgather(p, bytesEach int) float64 {
	if p <= 1 {
		return 0
	}
	return float64(float64(p-1)*m.P2PLatency) + float64((p-1)*bytesEach)/m.P2PBandwidth
}

// Reduce returns the modeled cost of a reduction of n bytes to one root
// (log2(p) rounds).
func (m Model) Reduce(p, bytes int) float64 {
	return m.treeCost(p, bytes, 1)
}

// Bcast returns the modeled cost of broadcasting n bytes from one root
// (log2(p) rounds).
func (m Model) Bcast(p, bytes int) float64 {
	return m.treeCost(p, bytes, 1)
}

// ReduceScatter returns the modeled cost of a reduce-scatter of a combined
// vector of n total bytes among p processors (recursive halving: log2(p)
// latency rounds, with each processor streaming the (p-1)/p fraction of the
// vector it does not keep).
func (m Model) ReduceScatter(p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(p)))
	return float64(rounds*m.P2PLatency) + float64(p-1)/float64(p)*float64(bytes)/m.P2PBandwidth
}

// Barrier returns the modeled cost of a barrier among p processors.
func (m Model) Barrier(p int) float64 {
	return m.treeCost(p, 0, 2)
}

func (m Model) treeCost(p, bytes int, passes float64) float64 {
	if p <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(p)))
	return passes * rounds * (m.P2PLatency + float64(bytes)/m.P2PBandwidth)
}

// ScanTime returns the modeled time to gini-scan n attribute-list entries.
func (m Model) ScanTime(n int) float64 { return float64(n) / m.ScanRate }

// SplitTime returns the modeled time to partition n attribute-list entries.
func (m Model) SplitTime(n int) float64 { return float64(n) / m.SplitRate }

// SortTime returns the modeled time for the local-sort work of n entries
// (n·log2(n) comparisons at SortRate comparisons/second).
func (m Model) SortTime(n int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n) * math.Log2(float64(n)) / m.SortRate
}

// HashTime returns the modeled time to apply n node-table operations.
func (m Model) HashTime(n int) float64 { return float64(n) / m.HashRate }
