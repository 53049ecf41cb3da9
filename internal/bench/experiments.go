package bench

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"text/tabwriter"

	"repro/classify"
	"repro/internal/atomicfile"
	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/nodetable"
	"repro/internal/scalparc"
	"repro/internal/serial"
	"repro/internal/sliq"
	"repro/internal/splitter"
	"repro/internal/sprint"
	"repro/internal/trace"
)

// human formats a record count the way the paper's figure legend does.
func human(n int) string {
	if n >= 1_000_000 && n%100_000 == 0 {
		return fmt.Sprintf("%.1fm", float64(n)/1e6)
	}
	if n >= 1000 {
		return fmt.Sprintf("%.3gk", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

// gridTable prints one panel of Figure 3: a row per training-set size, a
// column per processor count.
func gridTable(w io.Writer, g *Grid, title, cellFormat string, cell func(Point) float64) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "records\\procs")
	for _, p := range g.Procs {
		fmt.Fprintf(tw, "\t%d", p)
	}
	fmt.Fprintln(tw)
	for _, n := range g.Sizes {
		fmt.Fprintf(tw, "%s", human(n))
		for _, p := range g.Procs {
			fmt.Fprintf(tw, cellFormat, cell(g.MustAt(n, p)))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Fig3a prints Figure 3(a): parallel runtime (modeled seconds) against the
// number of processors, one row per training-set size.
func Fig3a(w io.Writer, g *Grid) {
	gridTable(w, g, "FIG3a — ScalParC parallel runtime (modeled seconds) vs processors",
		"\t%.2f", func(pt Point) float64 { return pt.ModeledSeconds })
}

// Fig3b prints Figure 3(b): memory required per processor (MB) against the
// number of processors, one row per training-set size.
func Fig3b(w io.Writer, g *Grid) {
	gridTable(w, g, "FIG3b — ScalParC memory per processor (MB) vs processors",
		"\t%.3f", func(pt Point) float64 { return float64(pt.PeakMemBytes) / 1e6 })
}

// Speedups prints the section 5 prose claims: relative speedups across
// processor ranges, improving with training-set size, plus the headline
// largest-run time.
func Speedups(w io.Writer, g *Grid) {
	fmt.Fprintln(w, "TXT-SPD — relative speedups (paper: improve with problem size)")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	lowFrom, lowTo, highFrom, highTo := speedupRanges(g.Procs)
	fmt.Fprintf(tw, "records\trel. speedup %d->%d (ideal %.0fx)\trel. speedup %d->%d (ideal %.0fx)\truntime @ p=%d\n",
		lowFrom, lowTo, float64(lowTo)/float64(lowFrom),
		highFrom, highTo, float64(highTo)/float64(highFrom), highTo)
	for _, n := range g.Sizes {
		fmt.Fprintf(tw, "%s\t%.2fx\t%.2fx\t%.2fs\n",
			human(n),
			g.RelativeSpeedup(n, lowFrom, lowTo),
			g.RelativeSpeedup(n, highFrom, highTo),
			g.MustAt(n, highTo).ModeledSeconds)
	}
	tw.Flush()
	biggest := g.Sizes[len(g.Sizes)-1]
	fmt.Fprintf(w, "headline: %s records classified in %.1f seconds on %d processors\n",
		human(biggest), g.MustAt(biggest, highTo).ModeledSeconds, highTo)
}

// speedupRanges picks the paper's 8->32 and 32->128 processor ranges when
// available, falling back to first->middle and middle->last.
func speedupRanges(procs []int) (lowFrom, lowTo, highFrom, highTo int) {
	has := map[int]bool{}
	for _, p := range procs {
		has[p] = true
	}
	if has[8] && has[32] && has[128] {
		return 8, 32, 32, 128
	}
	mid := procs[len(procs)/2]
	return procs[0], mid, mid, procs[len(procs)-1]
}

// MemFactors prints the section 5 prose claims on memory: per-doubling
// drop factors near 2 for small p, deviating for large p as collective
// buffers grow.
func MemFactors(w io.Writer, g *Grid) {
	fmt.Fprintln(w, "TXT-MEM — memory drop factor per processor doubling (ideal 2.0)")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "records")
	for i := 0; i+1 < len(g.Procs); i++ {
		if g.Procs[i+1] == 2*g.Procs[i] {
			fmt.Fprintf(tw, "\t%d->%d", g.Procs[i], g.Procs[i+1])
		}
	}
	fmt.Fprintln(tw)
	for _, n := range g.Sizes {
		fmt.Fprintf(tw, "%s", human(n))
		for i := 0; i+1 < len(g.Procs); i++ {
			if g.Procs[i+1] == 2*g.Procs[i] {
				fmt.Fprintf(tw, "\t%.2f", g.MemFactor(n, g.Procs[i]))
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// SprintCmp runs and prints the section 3.2 comparison: ScalParC vs the
// parallel SPRINT formulation at a fixed training-set size across
// processor counts — modeled runtime, busiest-rank traffic, and peak
// memory per processor.
func SprintCmp(e *Env, n int, procs []int) error {
	w := e.Out
	fmt.Fprintf(w, "CMP-SPRINT — ScalParC vs parallel SPRINT at %s records\n", human(n))
	run := func(algo classify.Algorithm) (*Grid, error) {
		cfg := SweepConfig{
			Function: e.Function, Seed: e.Seed, MaxDepth: e.MaxDepth,
			Sizes: []int{n}, Procs: procs, Algo: algo, Machine: e.Machine,
		}
		pts, err := cfg.Run()
		if err != nil {
			return nil, err
		}
		return NewGrid(pts), nil
	}
	sc, err := run(classify.ScalParC)
	if err != nil {
		return err
	}
	sp, err := run(classify.SPRINT)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "procs\truntime scalparc\truntime sprint\trecv/rank scalparc\trecv/rank sprint\tmem/rank scalparc\tmem/rank sprint")
	for _, p := range procs {
		a, b := sc.MustAt(n, p), sp.MustAt(n, p)
		fmt.Fprintf(tw, "%d\t%.2fs\t%.2fs\t%.2fMB\t%.2fMB\t%.2fMB\t%.2fMB\n",
			p, a.ModeledSeconds, b.ModeledSeconds,
			float64(a.MaxBytesRecv)/1e6, float64(b.MaxBytesRecv)/1e6,
			float64(a.PeakMemBytes)/1e6, float64(b.PeakMemBytes)/1e6)
	}
	tw.Flush()
	return nil
}

// Blocks runs and prints the ABL-BLOCK ablation: the blocked node-table
// update protocol against an unblocked variant under the pathological skew
// of section 3.3.2 (one processor sources every update).
func Blocks(e *Env, n int, procs []int) error {
	fmt.Fprintf(e.Out, "ABL-BLOCK — node-table updates under total skew (%s updates, all from rank 0)\n", human(n))
	tw := tabwriter.NewWriter(e.Out, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "procs\tpeak sender mem (blocked)\tpeak sender mem (unblocked)\trounds (blocked)")
	for _, p := range procs {
		peak := func(block int) (int64, int64) {
			world := comm.NewWorld(p, e.Machine)
			world.Run(func(c *comm.Comm) {
				nt := nodetable.NewWithBlock(c, n, block)
				defer nt.Free()
				var as []nodetable.Assignment
				if c.Rank() == 0 {
					as = make([]nodetable.Assignment, n)
					for rid := range as {
						as[rid] = nodetable.Assignment{Rid: int32(rid), Child: 1}
					}
				}
				nt.Update(as)
			})
			return world.PeakMemory()[0], world.Stats()[0].AllToAlls
		}
		blocked, rounds := peak((n + p - 1) / p)
		unblocked, _ := peak(0)
		fmt.Fprintf(tw, "%d\t%.3fMB\t%.3fMB\t%d\n", p,
			float64(blocked)/1e6, float64(unblocked)/1e6, rounds)
	}
	return tw.Flush()
}

// SerialMemoryWall runs and prints MOT-SERIAL: the section 2 motivation —
// under a main-memory budget, the serial classifier's splitting phase must
// stage its hash table and re-read the attribute lists, multiplying disk
// I/O; ScalParC's aggregate memory grows with p and never stages.
func SerialMemoryWall(e *Env, n int, budgets []int64) error {
	w := e.Out
	fmt.Fprintf(w, "MOT-SERIAL — staged serial splitting under a memory budget (%s records)\n", human(n))
	tab, err := e.quest(n, 0)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "hash-table budget\tstages\tlist entries read\textra reads vs unconstrained")
	for _, b := range budgets {
		_, st, err := serial.TrainConstrained(tab, splitter.Config{}, b)
		if err != nil {
			return err
		}
		overhead := float64(st.ExtraEntriesRead) / float64(st.EntriesRead-st.ExtraEntriesRead)
		fmt.Fprintf(tw, "%.3gMB\t%d\t%.1fM\t+%.0f%%\n",
			float64(b)/1e6, st.Stages, float64(st.EntriesRead)/1e6, 100*overhead)
	}
	tw.Flush()
	fmt.Fprintf(w, "(the root alone needs a %.3gMB table; ScalParC spreads it O(N/p) per processor)\n",
		float64(n*5)/1e6)
	return nil
}

// ablation runs and prints one design ablation: at each processor count it
// trains tab twice on the same world — the paper's choice, then alt — and
// prints a row holding both runtimes and both values of the communication
// figure the ablation is about, as cells formats them.
func ablation(e *Env, tab *dataset.Table, procs []int, alt scalparc.Options, header string, cells func(*scalparc.Result) (runtime, figure string)) error {
	tw := tabwriter.NewWriter(e.Out, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, header)
	for _, p := range procs {
		world := comm.NewWorld(p, e.Machine)
		var runtime, figure [2]string
		for i, opts := range []scalparc.Options{{}, alt} {
			res, err := scalparc.TrainOpts(world, tab, splitter.Config{}, opts)
			if err != nil {
				return err
			}
			runtime[i], figure[i] = cells(res)
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\n", p, runtime[0], runtime[1], figure[0], figure[1])
	}
	return tw.Flush()
}

// allToAlls is the cell pair of the ablations that trade collective steps:
// modeled runtime and rank 0's all-to-all count.
func allToAlls(res *scalparc.Result) (runtime, figure string) {
	return fmt.Sprintf("%.2fs", res.ModeledSeconds), fmt.Sprint(res.Stats[0].AllToAlls)
}

// PerNode runs and prints the ABL-NODE ablation: ScalParC's per-level
// communication batching against the per-node structure section 3.1
// argues against. Label noise keeps the tree wide so the difference in
// communication steps is visible.
func PerNode(e *Env, n int, procs []int) error {
	fmt.Fprintf(e.Out, "ABL-NODE — per-level vs per-node communication at %s records (20%% label noise)\n", human(n))
	tab, err := e.quest(n, 0.2)
	if err != nil {
		return err
	}
	return ablation(e, tab, procs, scalparc.Options{PerNodeComms: true},
		"procs\truntime per-level\truntime per-node\tall-to-alls per-level\tall-to-alls per-node", allToAlls)
}

// Batched runs and prints the ABL-BATCH ablation: PerformSplitII's
// one-attribute-at-a-time enquiries (the paper's memory-bounding choice)
// against the technical report's batched single enquiry per level.
func Batched(e *Env, n int, procs []int) error {
	fmt.Fprintf(e.Out, "ABL-BATCH — per-attribute vs batched node-table enquiries at %s records\n", human(n))
	tab, err := e.quest(n, 0)
	if err != nil {
		return err
	}
	return ablation(e, tab, procs, scalparc.Options{BatchedEnquiry: true},
		"procs\truntime per-attr\truntime batched\tall-to-alls per-attr\tall-to-alls batched", allToAlls)
}

// Rebalance runs and prints the ABL-REBAL ablation: the paper's fixed
// data distribution against per-level list rebalancing, on the
// pathological spine-shaped correlated dataset where the fixed
// distribution concentrates deep levels' work on few processors.
func Rebalance(e *Env, n int, procs []int) error {
	fmt.Fprintf(e.Out, "ABL-REBAL — fixed distribution vs per-level rebalancing (%s records, correlated spine data)\n", human(n))
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Continuous},
			{Name: "b", Kind: dataset.Continuous},
			{Name: "c", Kind: dataset.Continuous},
		},
		Classes: []string{"L", "R"},
	}
	rng := rand.New(rand.NewSource(9))
	tab := dataset.NewTable(schema, n)
	for i := 0; i < n; i++ {
		v := rng.Float64()
		cls := 0
		for hi := 1.0; v < hi/2; hi /= 2 {
			cls = 1 - cls
		}
		if err := tab.AppendRow([]float64{v, v, v}, cls); err != nil {
			return err
		}
	}
	return ablation(e, tab, procs, scalparc.Options{RebalanceLevels: true},
		"procs\truntime fixed\truntime rebalanced\ttraffic/rank fixed\ttraffic/rank rebalanced",
		func(res *scalparc.Result) (runtime, figure string) {
			var maxSent int64
			for _, s := range res.Stats {
				maxSent = max(maxSent, s.BytesSent)
			}
			return fmt.Sprintf("%.3fs", res.ModeledSeconds), fmt.Sprintf("%.2fMB", float64(maxSent)/1e6)
		})
}

// WeakScaling runs and prints EXP-WEAK: scaled (weak) speedup in the
// isoefficiency framework of the paper's reference [6]. The problem grows
// with the machine (N = basePerProc·p); a runtime-scalable algorithm —
// per-processor overhead O(N/p) per level, the paper's §3 design goal —
// keeps the parallel runtime near-constant and the scaled efficiency
// T_1(base)/T_p(N=base·p) near 1.
func WeakScaling(e *Env, basePerProc int, procs []int) error {
	fmt.Fprintf(e.Out, "EXP-WEAK — weak scaling at %s records per processor\n", human(basePerProc))
	tw := tabwriter.NewWriter(e.Out, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "procs\trecords\truntime\tscaled efficiency")
	var base float64
	for _, p := range procs {
		n := basePerProc * p
		res, err := trainQuest(e, n, p, splitter.Config{MaxDepth: 10})
		if err != nil {
			return err
		}
		if base == 0 {
			base = res.ModeledSeconds * float64(p) / float64(procs[0]) // normalise to the first point
		}
		fmt.Fprintf(tw, "%d\t%s\t%.2fs\t%.2f\n", p, human(n), res.ModeledSeconds, base/res.ModeledSeconds)
	}
	return tw.Flush()
}

// trainQuest generates n Quest records and trains them on p processors of
// e's machine — the one-run experiments' shared preamble.
func trainQuest(e *Env, n, p int, cfg splitter.Config) (*scalparc.Result, error) {
	tab, err := e.quest(n, 0)
	if err != nil {
		return nil, err
	}
	return scalparc.TrainOpts(comm.NewWorld(p, e.Machine), tab, cfg, scalparc.Options{})
}

// Levels runs and prints EXP-LEVELS: the per-level breakdown of one
// training run — active nodes, records in play, and each level's share of
// the modeled runtime (the granularity of the paper's analysis).
func Levels(e *Env, n, p int) error {
	w := e.Out
	fmt.Fprintf(w, "EXP-LEVELS — per-level breakdown (%s records, %d processors)\n", human(n), p)
	res, err := trainQuest(e, n, p, splitter.Config{})
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "level\tactive nodes\tsplit nodes\trecords\tmodeled time")
	for i, ls := range res.PerLevel {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.3fs\n", i, ls.ActiveNodes, ls.SplitNodes, ls.Records, ls.ModeledSeconds)
	}
	tw.Flush()
	fmt.Fprintf(w, "presort %.3fs + %d levels = %.3fs total\n",
		res.PresortModeledSeconds, res.Levels, res.ModeledSeconds)
	return nil
}

// Micro prints the communication-subsystem benchmark the paper's section 5
// opens with: the linear model's latency/bandwidth constants, plus modeled
// costs for representative operation sizes.
func Micro(e *Env) error {
	w, machine := e.Out, e.Machine
	fmt.Fprintln(w, "MICRO — simulated machine communication model (linear latency/bandwidth)")
	fmt.Fprintf(w, "point-to-point: latency %.1f us, bandwidth %.0f MB/s\n",
		machine.P2PLatency*1e6, machine.P2PBandwidth/1e6)
	fmt.Fprintf(w, "all-to-all:     latency %.1f us/processor, bandwidth %.0f MB/s\n",
		machine.A2ALatencyPerProc*1e6, machine.A2ABandwidth/1e6)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "operation\tp=16, 1KB/rank\tp=128, 1KB/rank\tp=128, 1MB/rank")
	type op struct {
		name string
		f    func(p, bytes int) float64
	}
	for _, o := range []op{
		{"all-to-all", machine.AllToAll},
		{"all-reduce", machine.AllReduce},
		{"prefix scan", machine.Scan},
		{"allgather", machine.Allgather},
	} {
		fmt.Fprintf(tw, "%s\t%.1f us\t%.1f us\t%.1f ms\n", o.name,
			o.f(16, 1024)*1e6, o.f(128, 1024)*1e6, o.f(128, 1<<20)*1e3)
	}
	return tw.Flush()
}

// Phases prints the per-phase/per-level breakdown of one ScalParC run:
// where every modeled second and every byte of the section 5 totals goes,
// by the paper's four phases and tree level. If e.Trace is set the per-rank
// virtual timelines are also written there as Chrome trace-event JSON.
func Phases(e *Env, n, p int) error {
	w := e.Out
	fmt.Fprintf(w, "EXP-PHASES — per-phase breakdown (%s records, %d processors)\n", human(n), p)
	res, err := trainQuest(e, n, p, splitter.Config{MaxDepth: e.MaxDepth})
	if err != nil {
		return err
	}
	res.Trace.WriteText(w)
	if e.Trace != "" {
		if err := writeArtifact(filepath.Dir(e.Trace), filepath.Base(e.Trace), res.Trace.WriteChrome); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Chrome trace to %s\n", e.Trace)
	}
	return nil
}

// writeArtifact is the one place this package writes a file: name inside
// dir, created if missing, replaced atomically. A failure is the os error,
// which names the path.
func writeArtifact(dir, name string, fill func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return atomicfile.Write(filepath.Join(dir, name), fill)
}

// PhaseCmp compares where the modeled time goes across the three
// classifiers: ScalParC, parallel SPRINT (same engine, replicated record
// map), and serial SLIQ (one-rank modeled trace). Times are each run's
// critical rank; the column totals are each run's modeled runtime.
func PhaseCmp(e *Env, n, p int) error {
	w := e.Out
	fmt.Fprintf(w, "CMP-PHASES — critical-rank seconds per phase (%s records, %d processors)\n", human(n), p)
	tab, err := e.quest(n, 0)
	if err != nil {
		return err
	}
	traces := make([]*trace.Trace, 0, 3)
	names := []string{"scalparc", "sprint", "sliq (serial)"}

	scRes, err := scalparc.TrainOpts(comm.NewWorld(p, e.Machine), tab, splitter.Config{}, scalparc.Options{})
	if err != nil {
		return err
	}
	traces = append(traces, scRes.Trace)
	spRes, err := sprint.Train(comm.NewWorld(p, e.Machine), tab, splitter.Config{})
	if err != nil {
		return err
	}
	traces = append(traces, spRes.Trace)
	_, slTrace, _, err := sliq.TrainTraced(tab, splitter.Config{}, e.Machine)
	if err != nil {
		return err
	}
	traces = append(traces, slTrace)

	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprint(tw, "phase")
	for _, name := range names {
		fmt.Fprintf(tw, "\t%s", name)
	}
	fmt.Fprintln(tw)
	order := []trace.Phase{trace.Sort, trace.FindSplitI, trace.FindSplitII, trace.PerformSplitI, trace.PerformSplitII, trace.Other}
	for _, ph := range order {
		fmt.Fprintf(tw, "%s", ph)
		for _, tr := range traces {
			crit := tr.Ranks[tr.CriticalRank()].PhasePicos()
			fmt.Fprintf(tw, "\t%.3fs", float64(crit[ph])/1e12)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "total")
	for _, tr := range traces {
		fmt.Fprintf(tw, "\t%.3fs", tr.TotalSeconds())
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}
