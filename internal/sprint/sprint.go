// Package sprint implements the parallel formulation of SPRINT's splitting
// phase that the paper's section 3.2 analyses as unscalable: the record-id
// to child-number hash table is built *replicated on every processor* by
// gathering all processors' assignments, so each processor receives O(N)
// bytes of communication and holds O(N) bytes of table per level — against
// ScalParC's O(N/p) for both.
//
// Everything else (presort, FindSplit phases, list layout) is shared with
// package scalparc; only the RecordMap strategy differs, which is exactly
// the difference the paper describes. The induced tree is identical — the
// comparison is about runtime and memory, not accuracy. The shared engine
// also means SPRINT runs get the same per-phase/per-level trace as
// ScalParC (Result.Trace): the replicated table's gathers and hash work
// land in PerformSplitI, its local lookups in PerformSplitII.
package sprint

import (
	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/nodetable"
	"repro/internal/scalparc"
	"repro/internal/splitter"
)

// replicatedMap is SPRINT's per-level hash table: the complete rid -> child
// mapping materialised on every rank.
type replicatedMap struct {
	c     *comm.Comm
	child []uint8 // indexed by global rid
}

// ReplicatedTable is the RecordMap factory implementing parallel SPRINT's
// splitting phase.
func ReplicatedTable(c *comm.Comm, n int) scalparc.RecordMap {
	m := &replicatedMap{c: c, child: make([]uint8, n)}
	c.Mem().Alloc(int64(n)) // the O(N)-per-processor table
	return m
}

// Update gathers every rank's assignments onto every rank and applies them
// all: the communication volume per processor is proportional to the total
// number of records at the level — O(N) at the upper tree levels.
func (m *replicatedMap) Update(assignments []nodetable.Assignment) {
	all := comm.Allgather(m.c, assignments)
	applied := 0
	for _, part := range all {
		for _, a := range part {
			m.child[a.Rid] = a.Child
		}
		applied += len(part)
	}
	m.c.Mem().Alloc(int64(applied) * 8) // received copies of the whole level
	m.c.Compute(m.c.Model().HashTime(applied))
	m.c.Mem().Free(int64(applied) * 8)
}

// Lookup is purely local — the one advantage of replication.
func (m *replicatedMap) Lookup(rids []int32) []uint8 {
	out := make([]uint8, len(rids))
	for i, rid := range rids {
		out[i] = m.child[rid]
	}
	m.c.Compute(m.c.Model().HashTime(len(rids)))
	return out
}

// Free releases the table's memory accounting.
func (m *replicatedMap) Free() {
	m.c.Mem().Free(int64(len(m.child)))
	m.child = nil
}

// Train runs the parallel SPRINT formulation: ScalParC's induction engine
// with the replicated hash table splitting phase.
func Train(w *comm.World, tab *dataset.Table, cfg splitter.Config) (*scalparc.Result, error) {
	return scalparc.TrainOpts(w, tab, cfg, scalparc.Options{RecordMap: ReplicatedTable})
}
