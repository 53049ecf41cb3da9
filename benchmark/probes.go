package main

// The traced run of a training workload and the outside-in layer probes.
// Every probe times calls into one module's public functions on inputs of
// the workload's shape (at the workload's p, inside World.Run where the
// function is a collective) or reads a counter the public API returns.
// Each names, in README.md, the end-to-end metric it should move.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/tcptransport"
	"repro/internal/dataset"
	"repro/internal/gini"
	"repro/internal/histogram"
	"repro/internal/nodetable"
	"repro/internal/psort"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/tree"
)

// traceTraining is the traced run: one untraced job and one job inside a
// span (their difference is the tracing overhead), the same job at p=1,
// the exact counters of the last result, and the layer probes, closed by
// the budget that says how much of the train span the probes explain.
func traceTraining(rc *runCtx, wl trainWorkload, fx *fixture, timed func(int, string) (*outcome, float64, error)) error {
	rc.tr.on = false
	_, untraced, err := timed(0, "job (untraced)")
	if err != nil {
		return err
	}
	rc.tr.on = true

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o, traced, err := timed(1, "job")
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	rc.set("bench.trace_overhead_share", (traced-untraced)/untraced, 1)
	if !wl.remote { // the workers' heaps are not this process's
		rc.set("scalparc.allocs_per_train", float64(after.Mallocs-before.Mallocs), 1)
		rc.set("scalparc.alloc_mb_per_train", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), 1)
	}

	var p1 float64
	rc.tr.do("scalparc", "job p=1", 2, func() {
		p1 = timeIt(func() { _, err = wl.job(rc, fx, 1) }).Seconds()
	})
	if err != nil {
		return fmt.Errorf("p=1 job: %w", err)
	}
	rc.set("scalparc.wall_p1_s", p1, 1)
	rc.set("scalparc.speedup_p2", p1/traced, 1)

	// Exact figures of the traced job.
	rc.set("scalparc.modeled_s", o.modeledSeconds, 1)
	rc.set("scalparc.levels", float64(o.levels), 1)
	rc.set("scalparc.nodes", float64(o.nodes()), 1)
	rc.set("scalparc.peak_tracked_mb_per_rank", float64(o.peakTracked)/(1<<20), 1)
	rc.set("comm.bytes_sent", float64(o.stats.BytesSent), 1)
	rc.set("comm.collective_calls", float64(collectiveCalls(o.stats)), 1)
	for phase, name := range map[trace.Phase]string{
		trace.Sort: "presort", trace.FindSplitI: "findsplit1", trace.FindSplitII: "findsplit2",
		trace.PerformSplitI: "performsplit1", trace.PerformSplitII: "performsplit2",
	} {
		rc.set("scalparc.modeled_"+name+"_s", float64(o.phasePicos[phase])/1e12, 1)
	}
	rc.set("datagen.generate_s", fx.genWall, 1)
	rc.set("serial.train_wall_s", fx.serialWall, 1)
	if wl.remote {
		rc.set("tcptransport.job_overhead_s", traced-o.innerWall, 1)
		// The same table on the simulated machine, warm (set-up's oracle
		// run was this process's first and pays for growing the heap).
		var sim *outcome
		rc.tr.do("scalparc", "TrainOpts sim", 3, func() { sim, err = simJob(rc, fx, procs) })
		if err != nil {
			return fmt.Errorf("sim job: %w", err)
		}
		rc.set("tcptransport.wall_over_sim", o.innerWall/sim.innerWall, 1)
	}
	trees := 1.0
	if o.forest != nil {
		trees = float64(o.forest.NumTrees())
		rc.set("scalparc.forest_wall_per_tree_s", traced/trees, 1)
	}

	// The model: serialized form, compiled form, batch prediction.
	pm, err := probeModel(rc, modelOf(o), fx.heldOut)
	if err != nil {
		return err
	}
	if o.forest != nil {
		rc.set("infer.forest_table_ns_per_row", pm.nsPerRow, pm.passes)
		hits := 0
		for i, c := range pm.model.walk(fx.heldOut) {
			if c == int(fx.heldOut.Class[i]) {
				hits++
			}
		}
		rc.set("scalparc.forest_heldout_accuracy", float64(hits)/float64(fx.heldOut.NumRows()), 1)
	} else {
		rc.set("infer.table_ns_per_row", pm.nsPerRow, pm.passes)
	}

	// Layer probes on the workload's table, and what each explains of the
	// train span. A forest trains `trees` bootstrap tables of the table's
	// size; its per-level record counts are not in ForestResult, so only
	// the per-table layers are estimated there.
	var budget []budgetRow
	explain := func(layer string, seconds float64, how string) {
		budget = append(budget, budgetRow{layer, seconds, how})
	}
	lists := probeLists(rc, fx.tab)
	explain("dataset", trees*lists.buildWall/procs, "BuildLists of the whole table / p (each rank builds its block)")

	sortWall := probeSort(rc, fx.tab)
	rc.set("psort.sort_s", sortWall, rc.sz.probeReps)
	rc.set("psort.sort_share", trees*sortWall/traced, 1)
	explain("psort", trees*sortWall, "psort.Sort over every continuous column at p=2")

	conts := float64(len(fx.tab.Schema.ContIndices()))
	cats := float64(len(fx.tab.Schema.CatIndices()))
	attrs := conts + cats
	var recordLevels, activeNodes float64 // summed over the levels of the traced job
	for _, l := range o.perLevel {
		recordLevels += float64(l.Records)
		activeNodes += float64(l.ActiveNodes)
	}

	if wl.exact {
		scan := probeGiniScan(rc, lists.sorted)
		rc.set("gini.scan_ns_per_entry", scan, rc.sz.probeReps)
		explain("gini", scan*1e-9*recordLevels*conts/procs, "scan ns/entry x records at active nodes x continuous attributes / p")
	} else {
		cutsWall, binOf := probeHistogram(rc, fx, lists)
		rc.set("histogram.cuts_s", cutsWall, rc.sz.probeReps)
		rc.set("histogram.binof_ns_per_value", binOf, rc.sz.probeReps)
		explain("histogram", cutsWall+binOf*1e-9*recordLevels*conts/procs, "Cuts of every column + BinOf ns/value x records at active nodes x continuous attributes / p")
	}
	bestCat := probeBestCategorical(rc, fx.tab)
	rc.set("splitter.best_categorical_ns", bestCat, rc.sz.probeReps)
	explain("splitter", bestCat*1e-9*activeNodes*cats/procs, "BestCategorical ns x active nodes x categorical attributes / p")

	upd, look := probeNodeTable(rc, fx.tab.NumRows())
	rc.set("nodetable.update_ns_per_rid", upd, rc.sz.probeReps)
	rc.set("nodetable.lookup_ns_per_rid", look, rc.sz.probeReps)
	explain("nodetable", (upd+look*(attrs-1))*1e-9*recordLevels, "(Update ns/rid + Lookup ns/rid x (attributes-1)) x records at active nodes; includes the table's own all-to-alls")

	cp := probeComm(rc)
	rc.set("comm.alltoall_ns_per_byte", cp.allToAllNsPerByte, rc.sz.probeReps)
	rc.set("comm.exscan_us_per_call", cp.exScanUs, rc.sz.probeCalls)
	rc.set("comm.allreduce_us_per_call", cp.allReduceUs, rc.sz.probeCalls)
	rc.set("comm.reducescatter32_ns_per_elem", cp.reduceScatterNsPerElem, rc.sz.probeReps)
	perRank := func(calls int64) float64 { return float64(calls) / procs }
	small := (perRank(o.stats.Scans)*cp.exScanUs + perRank(o.stats.AllReduces+o.stats.Reduces+o.stats.ReduceScatters)*cp.allReduceUs) * 1e-6
	explain("comm", small, "per-rank scans x ExScan us/call + reductions x AllReduce us/call (all-to-alls are under nodetable)")

	if wl.remote {
		tp, err := probeTCP(rc)
		if err != nil {
			return err
		}
		rc.set("tcptransport.connect_s", tp.connectWall, 1)
		rc.set("tcptransport.exchange_small_us", tp.smallUs, rc.sz.probeCalls)
		rc.set("tcptransport.exchange_mb_per_s", tp.mbPerSecond, rc.sz.probeReps)
		explain("tcptransport", traced-o.innerWall, "Launch->Wait minus rank 0's own training wall: spawn, mesh connect, data generation, result hand-off")
	}

	explained := 0.0
	for _, b := range budget {
		explained += b.Seconds
	}
	// What the outside probes do not explain stays named, never dropped.
	rc.set("scalparc.self_s", traced-explained, 1)
	rc.budget = append(budget,
		budgetRow{"scalparc", traced - explained, "train span minus the estimates above (scalparc.self_s)"},
		budgetRow{"train span", traced, "the traced job, from the Train/Launch call to its return"})
	return nil
}

func collectiveCalls(s comm.Stats) int64 {
	return s.Barriers + s.AllToAlls + s.AllReduces + s.Scans + s.Allgathers + s.Reduces +
		s.ReduceScatters + s.CandidateGathers + s.Bcasts + s.Gathers
}

// probeModel measures the model's three forms: tree.Encode/DecodeModel,
// infer.Compile*, and the compiled batch kernel over the table.
func probeModel(rc *runCtx, compile func() (model, error), tab *dataset.Table) (prediction, error) {
	pr, err := measurePredict(rc, compile, tab, predictPasses)
	if err != nil {
		return pr, err
	}
	rc.set("infer.compile_s", pr.compileWall, 1)
	rc.set("infer.model_bytes", float64(pr.model.compiled.Footprint().Bytes), 1)

	// Once each: a deep tree's JSON runs to tens of MB and takes seconds.
	var buf bytes.Buffer
	rc.tr.do("tree", "Encode", 0, func() {
		rc.set("tree.encode_s", timeIt(func() { err = pr.model.forest.Encode(&buf) }).Seconds(), 1)
	})
	if err != nil {
		return pr, fmt.Errorf("encode: %w", err)
	}
	rc.set("tree.model_bytes", float64(buf.Len()), 1)
	rc.tr.do("tree", "DecodeModel", 0, func() {
		rc.set("tree.decode_s", timeIt(func() { _, err = tree.DecodeModel(bytes.NewReader(buf.Bytes())) }).Seconds(), 1)
	})
	if err != nil {
		return pr, fmt.Errorf("decode: %w", err)
	}
	return pr, nil
}

type listsProbe struct {
	buildWall float64
	sorted    []dataset.ContEntry // the first continuous column, sorted
	lists     *dataset.Lists
}

func probeLists(rc *runCtx, tab *dataset.Table) listsProbe {
	var lp listsProbe
	rc.tr.do("dataset", "BuildLists", 0, func() {
		lp.buildWall = medianOf(rc.sz.probeReps, func() { lp.lists = dataset.BuildLists(tab, 0) })
	})
	rc.set("dataset.build_lists_s", lp.buildWall, rc.sz.probeReps)
	rc.set("dataset.lists_bytes", float64(lp.lists.Bytes()), 1)
	lp.lists.SortContinuous()
	lp.sorted = lp.lists.Cont[tab.Schema.ContIndices()[0]]
	return lp
}

// probeSort is the presort as the engine runs it: every rank's block of
// every continuous column through psort.Sort, inside World.Run at p=2.
func probeSort(rc *runCtx, tab *dataset.Table) float64 {
	var wall float64
	rc.tr.do("psort", "Sort every continuous column", 0, func() {
		walls := make([]float64, rc.sz.probeReps)
		for rep := range walls {
			n := tab.NumRows()
			local := make([]*dataset.Lists, procs)
			for r := range local {
				lo, hi := dataset.BlockRange(n, procs, r)
				local[r] = dataset.BuildLists(tab.Slice(lo, hi), lo)
			}
			w := comm.NewWorld(procs, timing.T3D())
			walls[rep] = timeIt(func() {
				w.Run(func(c *comm.Comm) {
					mine := local[c.Rank()]
					for _, a := range tab.Schema.ContIndices() {
						mine.Cont[a] = psort.Sort(c, mine.Cont[a])
					}
				})
			}).Seconds()
		}
		wall = median(walls)
	})
	return wall
}

var giniSink float64

// probeGiniScan walks one sorted column the way FindSplitII does: Move per
// entry, Split at every distinct-value boundary.
func probeGiniScan(rc *runCtx, list []dataset.ContEntry) float64 {
	total := make([]int64, 2)
	for _, e := range list {
		total[e.Cid]++
	}
	zero := make([]int64, len(total))
	m := gini.NewMatrix(total, zero)
	var ns float64
	rc.tr.do("gini", "Matrix Reset/Move/Split scan", 0, func() {
		ns = medianOf(rc.sz.probeReps, func() {
			m.Reset(total, zero)
			best := 2.0
			for j, e := range list {
				m.Move(e.Cid)
				if j+1 < len(list) && list[j+1].Val == e.Val {
					continue
				}
				if g := m.Split(); g < best {
					best = g
				}
			}
			giniSink += best
		}) * 1e9 / float64(len(list))
	})
	return ns
}

var intSink int

// probeHistogram times the binned path's two kernels: the quantile cut
// vector of every continuous column, and BinOf over one column's values.
func probeHistogram(rc *runCtx, fx *fixture, lp listsProbe) (cutsWall, binOfNs float64) {
	n := fx.tab.NumRows()
	positions := histogram.CutPositions(n, fx.opts.Bins)
	var cuts []float64
	rc.tr.do("histogram", "Cuts of every continuous column", 0, func() {
		vals := make([]float64, len(positions))
		cutsWall = medianOf(rc.sz.probeReps, func() {
			for _, a := range fx.tab.Schema.ContIndices() {
				col := lp.lists.Cont[a]
				for i, pos := range positions {
					vals[i] = col[pos].Val
				}
				cuts = histogram.Cuts(vals)
			}
		})
	})
	rc.tr.do("histogram", "BinOf over one column", 0, func() {
		binOfNs = medianOf(rc.sz.probeReps, func() {
			sum := 0
			for _, e := range lp.sorted {
				sum += histogram.BinOf(cuts, e.Val)
			}
			intSink += sum
		}) * 1e9 / float64(n)
	})
	return cutsWall, binOfNs
}

var candSink splitter.Candidate

func probeBestCategorical(rc *runCtx, tab *dataset.Table) float64 {
	cats := tab.Schema.CatIndices()
	if len(cats) == 0 {
		return 0
	}
	// The widest categorical attribute costs the most.
	a := cats[0]
	for _, c := range cats {
		if tab.Schema.Attrs[c].Cardinality() > tab.Schema.Attrs[a].Cardinality() {
			a = c
		}
	}
	m := splitter.NewCountMatrix(tab.Schema.Attrs[a].Cardinality(), tab.Schema.NumClasses())
	for row, v := range tab.CatColumn(a) {
		m.Add(v, tab.Class[row])
	}
	var ns float64
	rc.tr.do("splitter", "BestCategorical", 0, func() {
		calls := rc.sz.probeCalls
		ns = medianOf(rc.sz.probeReps, func() {
			for i := 0; i < calls; i++ {
				candSink = splitter.BestCategorical(m, a, false)
			}
		}) * 1e9 / float64(calls)
	})
	return ns
}

// probeNodeTable runs one Update and one Lookup of all n record ids on the
// distributed node table at p=2. The rids reach each rank in shuffled
// order, as they do off a splitting attribute's sorted list.
func probeNodeTable(rc *runCtx, n int) (updateNs, lookupNs float64) {
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(n)
	assigns := make([][]nodetable.Assignment, procs)
	rids := make([][]int32, procs)
	for r := range assigns {
		lo, hi := dataset.BlockRange(n, procs, r)
		for _, rid := range perm[lo:hi] {
			assigns[r] = append(assigns[r], nodetable.Assignment{Rid: int32(rid), Child: uint8(rid & 1)})
			rids[r] = append(rids[r], int32(rid))
		}
	}
	rc.tr.do("nodetable", "Update + Lookup of every rid", 0, func() {
		upd := make([]float64, rc.sz.probeReps)
		look := make([]float64, rc.sz.probeReps)
		w := comm.NewWorld(procs, timing.T3D())
		w.Run(func(c *comm.Comm) {
			t := nodetable.New(c, n)
			defer t.Free()
			for rep := range upd {
				c.Barrier()
				t0 := time.Now()
				t.Update(assigns[c.Rank()])
				c.Barrier()
				t1 := time.Now()
				got := t.Lookup(rids[c.Rank()])
				c.Barrier()
				t2 := time.Now()
				if c.Rank() == 0 {
					upd[rep], look[rep] = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
					intSink += int(got[0])
				}
			}
		})
		updateNs = median(upd) * 1e9 / float64(n)
		lookupNs = median(look) * 1e9 / float64(n)
	})
	return updateNs, lookupNs
}

type commProbe struct {
	allToAllNsPerByte      float64
	exScanUs               float64
	allReduceUs            float64
	reduceScatterNsPerElem float64
}

// probeComm times the *Into collectives on the simulated world at p=2: two
// bulk shapes (all-to-all bytes, reduce-scatter elements) and two small
// per-call shapes (the 64-element vectors a level's count scan carries).
func probeComm(rc *runCtx) commProbe {
	var cp commProbe
	elems := rc.sz.probeBytes / 8
	rc.tr.do("comm", "collective probes", 0, func() {
		w := comm.NewWorld(procs, timing.T3D())
		w.Run(func(c *comm.Comm) {
			// timeAll runs f on every rank between barriers and returns the
			// wall rank 0 saw.
			timeAll := func(f func()) float64 {
				c.Barrier()
				start := time.Now()
				f()
				c.Barrier()
				return time.Since(start).Seconds()
			}
			send := make([][]int64, procs)
			for r := range send {
				send[r] = make([]int64, elems)
			}
			var recv [][]int64
			small := make([]int64, 64)
			var smallOut []int64
			big := make([]uint32, 4*elems)
			counts := make([]int, procs)
			for r := range counts {
				counts[r] = len(big) / procs
			}
			var bigOut []uint32

			a2a := make([]float64, rc.sz.probeReps)
			rs := make([]float64, rc.sz.probeReps)
			for rep := range a2a {
				a2a[rep] = timeAll(func() { recv = comm.AllToAllInto(c, send, recv) })
				rs[rep] = timeAll(func() { bigOut = comm.ReduceScatterSum32Into(c, big, bigOut, counts) })
			}
			calls := rc.sz.probeCalls
			scan := timeAll(func() {
				for i := 0; i < calls; i++ {
					smallOut = comm.ExScanSumInto(c, small, smallOut)
				}
			})
			reduce := timeAll(func() {
				for i := 0; i < calls; i++ {
					smallOut = comm.AllReduceSumInto(c, small, smallOut)
				}
			})
			if c.Rank() == 0 {
				cp.allToAllNsPerByte = median(a2a) * 1e9 / float64(procs*elems*8)
				cp.reduceScatterNsPerElem = median(rs) * 1e9 / float64(len(big))
				cp.exScanUs = scan * 1e6 / float64(calls)
				cp.allReduceUs = reduce * 1e6 / float64(calls)
			}
		})
	})
	return cp
}

type tcpProbe struct {
	connectWall float64
	smallUs     float64
	mbPerSecond float64
}

// probeTCP times the transport alone, inside this process: the mesh
// connect, then Exchange of 64-byte and of bulk frames between the two
// ranks.
func probeTCP(rc *runCtx) (tcpProbe, error) {
	var tp tcpProbe
	var err error
	rc.tr.do("tcptransport", "ConnectLocal + Exchange", 0, func() {
		var ts []*tcptransport.T
		tp.connectWall = timeIt(func() { ts, err = tcptransport.ConnectLocal(procs) }).Seconds()
		if err != nil {
			return
		}
		defer func() {
			for _, t := range ts {
				t.Close()
			}
		}()
		// exchange runs `calls` Exchanges of `size` bytes on every rank at
		// once and returns the wall of the slowest.
		exchange := func(size, calls int) float64 {
			errs := make([]error, procs)
			var wg sync.WaitGroup
			start := time.Now()
			for r, t := range ts {
				wg.Add(1)
				go func(r int, t *tcptransport.T) {
					defer wg.Done()
					frame := comm.Frame{Elem: 1, Data: make([]byte, size)}
					for i := 0; i < calls && errs[r] == nil; i++ {
						_, errs[r] = t.Exchange(comm.TagDeposit, frame)
					}
				}(r, t)
			}
			wg.Wait()
			for _, e := range errs {
				if e != nil {
					err = e
				}
			}
			return time.Since(start).Seconds()
		}
		tp.smallUs = exchange(64, rc.sz.probeCalls) * 1e6 / float64(rc.sz.probeCalls)
		if err != nil {
			return
		}
		bulk := make([]float64, rc.sz.probeReps)
		for rep := range bulk {
			bulk[rep] = exchange(rc.sz.probeBytes, 8)
		}
		tp.mbPerSecond = float64(8*rc.sz.probeBytes) / (1 << 20) / median(bulk)
	})
	if err != nil {
		return tp, fmt.Errorf("tcptransport probe: %w", err)
	}
	return tp, nil
}
