// Package sliq implements SLIQ (Mehta, Agrawal, Rissanen — EDBT 1996), the
// predecessor design the paper builds on (reference [7]): a serial
// decision-tree classifier for large datasets whose attribute lists carry
// only (value, record id) pairs and stay *unsplit* for the whole
// induction, while a memory-resident **class list** maps every record id
// to its current leaf.
//
// Each level makes one sequential pass over every attribute list: because
// the continuous lists are globally pre-sorted, a single scan evaluates
// the gini of every candidate split point of every active leaf
// simultaneously (each leaf sees its records in sorted order). Applying
// the chosen splits is another sequential pass that rewrites class-list
// leaf pointers — no list is ever physically partitioned.
//
// The attribute lists are scanned strictly sequentially, which is what
// makes SLIQ disk-friendly: TrainDisk runs the same induction with the
// lists living in an extmem store, counting the real disk traffic. The
// memory-resident class list — O(N) no matter what — is SLIQ's scalability
// wall and the opening move of SPRINT's and ScalParC's designs.
//
// Split selection and the node rule come from package splitter, so SLIQ
// induces exactly the same tree as the serial SPRINT-style classifier and
// as ScalParC.
package sliq

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/extmem"
	"repro/internal/gini"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/tree"
)

// listSource abstracts where the attribute lists live: memory or disk.
type listSource interface {
	scanCont(attr int, fn func(dataset.ContEntry)) error
	scanCat(attr int, fn func(dataset.CatEntry)) error
}

// TrainTraced builds the tree with in-memory attribute lists on a modeled
// serial clock: SLIQ runs as the only rank of a one-processor world, so
// every list scan is charged to the cost model and attributed to a phase
// exactly as a parallel run's computation is, producing the same
// per-phase/per-level breakdown the parallel engines report. SLIQ merges
// FindSplitI into its evaluation scan and never physically splits a list,
// so FindSplitI and PerformSplitII report zero by construction: the
// evaluation scans land in FindSplitII and the class-list rewrite in
// PerformSplitI.
func TrainTraced(tab *dataset.Table, cfg splitter.Config, model timing.Model) (*tree.Tree, *trace.Trace, float64, error) {
	w := comm.NewWorld(1, model)
	c := w.Rank(0)
	lists := dataset.BuildLists(tab, 0)
	c.SetPhase(trace.Sort, 0)
	lists.SortContinuous()
	for _, l := range lists.Cont {
		c.Compute(model.SortTime(len(l)))
	}
	c.SetPhase(trace.Other, 0)
	t, err := induce(c, tab, cfg, &memSource{lists: lists})
	if err != nil {
		return nil, nil, 0, err
	}
	tr := w.Trace()
	return t, tr, tr.TotalSeconds(), nil
}

// DiskStats reports the disk traffic of a TrainDisk run.
type DiskStats = extmem.Stats

// TrainDisk builds the same tree with the attribute lists on disk in an
// extmem store under dir (written once, then only scanned), returning the
// store's I/O counters. bufSize is the scan buffer in bytes.
func TrainDisk(tab *dataset.Table, cfg splitter.Config, dir string, bufSize int) (*tree.Tree, DiskStats, error) {
	store, err := extmem.NewStore(dir, bufSize)
	if err != nil {
		return nil, DiskStats{}, err
	}
	src := &diskSource{store: store}
	lists := dataset.BuildLists(tab, 0)
	lists.SortContinuous()
	for a, attr := range tab.Schema.Attrs {
		if attr.Kind == dataset.Continuous {
			err = store.WriteCont(listName(a), lists.Cont[a])
		} else {
			err = store.WriteCat(listName(a), lists.Cat[a])
		}
		if err != nil {
			store.Close()
			return nil, DiskStats{}, err
		}
	}
	// The disk run reports I/O, not modeled time: its clock is discarded.
	t, err := induce(comm.NewWorld(1, timing.T3D()).Rank(0), tab, cfg, src)
	stats := store.Stats()
	if cerr := store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return t, stats, err
}

func listName(attr int) string { return fmt.Sprintf("attr%03d", attr) }

type memSource struct{ lists *dataset.Lists }

func (m *memSource) scanCont(a int, fn func(dataset.ContEntry)) error {
	for _, e := range m.lists.Cont[a] {
		fn(e)
	}
	return nil
}

func (m *memSource) scanCat(a int, fn func(dataset.CatEntry)) error {
	for _, e := range m.lists.Cat[a] {
		fn(e)
	}
	return nil
}

type diskSource struct{ store *extmem.Store }

func (d *diskSource) scanCont(a int, fn func(dataset.ContEntry)) error {
	return d.store.ScanCont(listName(a), func(e dataset.ContEntry) error {
		fn(e)
		return nil
	})
}

func (d *diskSource) scanCat(a int, fn func(dataset.CatEntry)) error {
	return d.store.ScanCat(listName(a), func(e dataset.CatEntry) error {
		fn(e)
		return nil
	})
}

// nodeState is one active leaf of the growing tree.
type nodeState struct {
	node  *tree.Node
	depth int
}

// contScan is one leaf's running state during a continuous list pass.
type contScan struct {
	m       *gini.Matrix
	prevVal float64
	started bool
	best    splitter.Candidate
}

// induce runs SLIQ as the one rank c, charging its list passes to c's
// clock.
func induce(c *comm.Comm, tab *dataset.Table, cfg splitter.Config, src listSource) (*tree.Tree, error) {
	if err := tab.Schema.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalize()
	if err := cfg.Validate(tab.Schema); err != nil {
		return nil, err
	}
	n := tab.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("sliq: empty training set")
	}
	schema := tab.Schema
	model := c.Model()

	// The class list: SLIQ's memory-resident rid -> leaf mapping.
	classList := make([]int32, n)
	root := &tree.Node{Hist: tab.ClassHistogram()}
	active := []*nodeState{{node: root, depth: 0}}

	for level := 0; len(active) > 0; level++ {
		needSplit := make([]bool, len(active))
		for i, ns := range active {
			needSplit[i] = cfg.TrySplit(ns.node, ns.depth)
		}

		// Evaluation pass: one scan per attribute list evaluates every
		// active leaf's candidates at once. Every list is scanned in full
		// each level — retired records included — which is exactly SLIQ's
		// cost profile, so the full list length is charged.
		c.SetPhase(trace.FindSplitII, level)
		best := make([]splitter.Candidate, len(active))
		for a, attr := range schema.Attrs {
			if attr.Kind == dataset.Continuous {
				states := make([]*contScan, len(active))
				for i := range active {
					if needSplit[i] {
						states[i] = &contScan{m: gini.NewMatrix(active[i].node.Hist, nil)}
					}
				}
				err := src.scanCont(a, func(e dataset.ContEntry) {
					l := classList[e.Rid]
					if l < 0 || states[l] == nil {
						return
					}
					st := states[l]
					if st.started && st.prevVal != e.Val {
						cand := splitter.Candidate{
							Valid:     true,
							Gini:      st.m.Split(),
							Attr:      int32(a),
							Kind:      splitter.ContSplit,
							Threshold: st.prevVal,
						}
						st.best = splitter.Best(st.best, cand)
					}
					st.m.Move(e.Cid)
					st.prevVal = e.Val
					st.started = true
				})
				if err != nil {
					return nil, err
				}
				for i, st := range states {
					if st != nil {
						best[i] = splitter.Best(best[i], st.best)
					}
				}
			} else {
				counts := make([]*splitter.CountMatrix, len(active))
				for i := range active {
					if needSplit[i] {
						counts[i] = splitter.NewCountMatrix(attr.Cardinality(), schema.NumClasses())
					}
				}
				err := src.scanCat(a, func(e dataset.CatEntry) {
					l := classList[e.Rid]
					if l < 0 || counts[l] == nil {
						return
					}
					counts[l].Add(e.Val, e.Cid)
				})
				if err != nil {
					return nil, err
				}
				for i, m := range counts {
					if m != nil {
						best[i] = splitter.Best(best[i], splitter.BestCategorical(m, a, cfg.CategoricalBinary))
					}
				}
			}
			c.Compute(model.ScanTime(n))
		}

		// Decisions: best[i] is Invalid for a node that did not try.
		doSplit := make([]bool, len(active))
		for i, ns := range active {
			doSplit[i] = splitter.Decide(ns.node, best[i], schema)
		}

		// Apply pass: first retire records whose leaf is finished, then
		// one scan per splitting attribute rewrites the class list (the
		// evaluation of this level read the old list; newClassList takes
		// the writes).
		newClassList := make([]int32, n)
		pendingChild := make([]uint8, n)
		const retired, pending, assigned = int32(-1), int32(-2), int32(-3)
		for rid := 0; rid < n; rid++ {
			l := classList[rid]
			if l < 0 || !doSplit[l] {
				newClassList[rid] = retired
			} else {
				newClassList[rid] = pending // must be claimed by an apply scan
			}
		}

		childHists := make([][][]int64, len(active))
		for i, ns := range active {
			if doSplit[i] {
				childHists[i] = make([][]int64, len(ns.node.Children))
				for k := range childHists[i] {
					childHists[i][k] = make([]int64, schema.NumClasses())
				}
			}
		}

		// The class-list rewrite is SLIQ's analogue of ScalParC's
		// PerformSplitI; there is no PerformSplitII because lists are
		// never physically partitioned.
		c.SetPhase(trace.PerformSplitI, level)
		splitAttrs := map[int]bool{}
		for i := range active {
			if doSplit[i] {
				splitAttrs[int(best[i].Attr)] = true
			}
		}
		for a, attr := range schema.Attrs {
			if !splitAttrs[a] {
				continue
			}
			if attr.Kind == dataset.Continuous {
				err := src.scanCont(a, func(e dataset.ContEntry) {
					l := classList[e.Rid]
					if l < 0 || !doSplit[l] || int(best[l].Attr) != a {
						return
					}
					child := best[l].ContChild(e.Val)
					newClassList[e.Rid] = assigned
					pendingChild[e.Rid] = child
					childHists[l][child][e.Cid]++
				})
				if err != nil {
					return nil, err
				}
			} else {
				err := src.scanCat(a, func(e dataset.CatEntry) {
					l := classList[e.Rid]
					if l < 0 || !doSplit[l] || int(best[l].Attr) != a {
						return
					}
					child := best[l].CatChild(e.Val)
					newClassList[e.Rid] = assigned
					pendingChild[e.Rid] = child
					childHists[l][child][e.Cid]++
				})
				if err != nil {
					return nil, err
				}
			}
			c.Compute(model.SplitTime(n))
		}

		// Materialise children now that their histograms are complete.
		var next []*nodeState
		childIndex := make([][]int32, len(active))
		for i, ns := range active {
			if !doSplit[i] {
				continue
			}
			splitter.Grow(ns.node, childHists[i])
			childIndex[i] = make([]int32, len(ns.node.Children))
			for k, child := range ns.node.Children {
				childIndex[i][k] = -1
				if !child.Leaf {
					childIndex[i][k] = int32(len(next))
					next = append(next, &nodeState{node: child, depth: ns.depth + 1})
				}
			}
		}

		// Decode the staged assignments into next-level leaf indices.
		for rid := 0; rid < n; rid++ {
			switch newClassList[rid] {
			case retired:
			case assigned:
				newClassList[rid] = childIndex[classList[rid]][pendingChild[rid]]
			default:
				return nil, fmt.Errorf("sliq: record %d missed by every apply scan", rid)
			}
		}
		c.Compute(model.HashTime(n))
		classList = newClassList
		active = next
	}
	return &tree.Tree{Schema: schema, Root: root}, nil
}
