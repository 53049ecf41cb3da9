package infer

import "fmt"

// PredictRowsInto classifies row-major records into out, which must have
// one slot per row. The storage is caller-owned — nothing is retained —
// which is what a serving micro-batcher needs: it coalesces decoded
// request rows into one slice-of-rows and answers a whole batch from a
// single call, with its own pooled buffers on both sides.
//
// Unlike table columns (AppendRow rejects non-finite values), serving rows
// are untrusted: NaN continuous values and out-of-domain categorical codes
// are routed to the compile-time-resolved majority branch, exactly as
// Predict and the pointer walkers do, so batched answers stay bit-identical
// to the oracle (tree.Forest.Predict per row; see the rows fuzz
// differential).
func (m *Model) PredictRowsInto(rows [][]float64, out []int) error {
	if len(out) != len(rows) {
		return fmt.Errorf("infer: out has %d slots for %d rows", len(out), len(rows))
	}
	nattrs := m.schema.NumAttrs()
	for i, r := range rows {
		if len(r) != nattrs {
			return fmt.Errorf("infer: row %d has %d values; schema has %d attributes", i, len(r), nattrs)
		}
	}
	var votes []int32
	if len(m.roots) > 1 {
		// Only a tally needs a workspace; a one-root model's serving
		// path stays off the pool.
		sc := m.getScratch()
		defer m.putScratch(sc)
		votes = sc.votes
	}
	m.vote(votes, out, 0, len(rows), func(root int32, base, n int) { m.walkRows(rows, root, out, base, n) })
	return nil
}

// walkRows is the row-major kernel: walkColumns' level-synchronous cursor
// walk over untrusted rows, routed by the shared rule (route).
func (m *Model) walkRows(rows [][]float64, root int32, out []int, base, n int) {
	nodes := m.nodes
	var cur, rid [batchRows]int32
	for i := 0; i < n; i++ {
		cur[i] = root
		rid[i] = int32(base + i)
	}
	for active := n; active > 0; {
		w := 0
		for i := 0; i < active; i++ {
			nd := &nodes[cur[i]]
			r := rid[i]
			if nd.kind() == nodeLeaf {
				out[r] = int(nd.payload())
				continue
			}
			cur[w] = m.route(nd, rows[r][nd.payload()])
			rid[w] = r
			w++
		}
		active = w
	}
}
