package bench

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"text/tabwriter"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/scalparc"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
)

// phaseComm totals one phase's communication over all ranks and levels of a
// run's trace.
func phaseComm(tr *trace.Trace, ph trace.Phase) (sent, ops int64) {
	for _, rt := range tr.Ranks {
		for _, b := range rt.Buckets() {
			if b.Phase == ph {
				sent += b.BytesSent
				ops += b.Ops
			}
		}
	}
	return sent, ops
}

// accuracy is the share of tab's rows whose predicted class is the true one.
func accuracy(pred []int, tab *dataset.Table) float64 {
	hits := 0
	for i, c := range tab.Class {
		if pred[i] == int(c) {
			hits++
		}
	}
	return float64(hits) / float64(len(tab.Class))
}

// SplitPoint is one split-finding mode's measurement: a row of the
// EXP-BINNED and EXP-VOTE tables.
type SplitPoint struct {
	Mode           string // "exact", "binned", or "vote"
	VoteK          int
	ModeledSeconds float64
	Nodes          int
	FindSplitOps   int64
	FindSplitBytes int64
	Accuracy       float64
}

// measureSplits trains each split-finding mode on a fresh p-rank world and
// reduces every run to a point, scoring its tree on the held-out table.
func measureSplits(modes []scalparc.Options, p int, machine timing.Model, cfg splitter.Config, train, test *dataset.Table) ([]SplitPoint, []*scalparc.Result, error) {
	points := make([]SplitPoint, len(modes))
	results := make([]*scalparc.Result, len(modes))
	for i, opts := range modes {
		res, err := scalparc.TrainOpts(comm.NewWorld(p, machine), train, cfg, opts)
		if err != nil {
			return nil, nil, err
		}
		sent, ops := phaseComm(res.Trace, trace.FindSplitI)
		results[i] = res
		points[i] = SplitPoint{
			Mode:           opts.Split.String(),
			VoteK:          opts.VoteK,
			ModeledSeconds: res.ModeledSeconds,
			Nodes:          res.Tree.NumNodes(),
			FindSplitOps:   ops,
			FindSplitBytes: sent,
			Accuracy:       accuracy(res.Tree.PredictTable(test), test),
		}
	}
	return points, results, nil
}

// splitTable prints one row per measured mode: what FindSplitI cost (the
// collective count is the latency term, the bytes the bandwidth term) and
// what the resulting tree is worth on held-out data.
func splitTable(w io.Writer, modes []scalparc.Options, points []SplitPoint, withRuntime bool) {
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	row := func(cells ...string) {
		if !withRuntime {
			cells = slices.Delete(cells, 1, 2)
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	row("mode", "runtime", "nodes", "FindSplitI ops", "FindSplitI sent", "held-out accuracy")
	for i, pt := range points {
		name := "exact"
		switch modes[i].Split {
		case scalparc.SplitBinned:
			name = fmt.Sprintf("binned B=%d", modes[i].Bins)
		case scalparc.SplitVote:
			name = fmt.Sprintf("vote k=%d", modes[i].VoteK)
		}
		row(name, fmt.Sprintf("%.3fs", pt.ModeledSeconds), fmt.Sprint(pt.Nodes), fmt.Sprint(pt.FindSplitOps),
			fmt.Sprintf("%.1fKB", float64(pt.FindSplitBytes)/1e3), fmt.Sprintf("%.4f", pt.Accuracy))
	}
	tw.Flush()
}

// BinnedSweep runs and prints EXP-BINNED: exact vs histogram-binned split
// finding on Quest data at one processor count, sweeping the bin budget.
// The table reports what the reduce-scatter actually buys and costs:
// FindSplitI collective operations (the latency term binning collapses to
// one per level) and FindSplitI bytes (which binning INCREASES on this
// all-continuous schema — the exact prefix-scan formulation communicates
// only O(nodes·attrs·classes) per level, independent of both N and B, so a
// dense B-bin histogram cannot undercut it; see EXPERIMENTS.md).
func BinnedSweep(e *Env, n, p int) error {
	w := e.Out
	fmt.Fprintf(w, "EXP-BINNED — exact vs binned split finding (%s records, %d processors)\n", human(n), p)
	tab, err := datagen.Generate(datagen.Config{
		Function: e.Function, Attrs: datagen.Seven, Seed: e.Seed, Perturbation: 0.05,
	}, n)
	if err != nil {
		return err
	}
	train, test := tab.Split(0.75)

	modes := []scalparc.Options{{}}
	for _, b := range []int{8, 64, 256} {
		modes = append(modes, scalparc.Options{Split: scalparc.SplitBinned, Bins: b})
	}
	points, _, err := measureSplits(modes, p, e.Machine, splitter.Config{}, train, test)
	if err != nil {
		return err
	}
	splitTable(w, modes, points, true)
	fmt.Fprintln(w, "(bytes grow with B and with the approximation's larger node count;")
	fmt.Fprintln(w, " the binned win is one collective per level and balanced receive volume)")
	return nil
}

// guardDataset builds the deterministic categorical-heavy table BinnedGuard
// runs on: two continuous attributes with d distinct values in exactly
// equal frequency (so with Bins = d the quantile cuts enumerate every value
// boundary and the binned tree equals the exact tree), plus three
// cardinality-16 categorical attributes whose count matrices dominate the
// exact path's FindSplitI volume.
func guardDataset(n, d int) *dataset.Table {
	cat := func(name string) dataset.Attribute {
		vals := make([]string, 16)
		for v := range vals {
			vals[v] = fmt.Sprintf("%s%d", name, v)
		}
		return dataset.Attribute{Name: name, Kind: dataset.Categorical, Values: vals}
	}
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "y", Kind: dataset.Continuous},
			cat("j"), cat("k"), cat("l"),
		},
		Classes: []string{"C0", "C1"},
	}
	rng := rand.New(rand.NewSource(17))
	cols := make([][]float64, 2)
	for a := range cols {
		col := make([]float64, n)
		for i := range col {
			col[i] = float64(i % d)
		}
		rng.Shuffle(n, func(i, j int) { col[i], col[j] = col[j], col[i] })
		cols[a] = col
	}
	tab := dataset.NewTable(s, n)
	for i := 0; i < n; i++ {
		j, k, l := rng.Intn(16), rng.Intn(16), rng.Intn(16)
		cls := 0
		if cols[0][i] > float64(d/2) != (j < 8) || rng.Intn(12) == 0 {
			cls = 1
		}
		if err := tab.AppendRow([]float64{cols[0][i], cols[1][i], float64(j), float64(k), float64(l)}, cls); err != nil {
			panic(err)
		}
	}
	return tab
}

// BinnedGuard runs and prints GUARD-BINNED, the CI benchmark-regression
// guard for the reduce-scatter FindSplitI. It trains exact and binned mode
// on a categorical-heavy dataset in the binned path's degeneracy regime
// (equal-frequency continuous values, Bins = distinct values), where the
// two trees are provably identical and the dense uint32 histogram exchange
// is strictly cheaper than the exact path's int64 count-matrix reductions.
// It returns an error — failing CI — if any of the three invariants
// regresses: identical trees, fewer FindSplitI collective operations, or
// fewer FindSplitI bytes.
func BinnedGuard(e *Env, n, p int) error {
	w, machine := e.Out, e.Machine
	d := 8
	fmt.Fprintf(w, "GUARD-BINNED — binned FindSplitI must beat exact on its home turf (%s records, %d processors)\n", human(n), p)
	tab := guardDataset(n, d)
	cfg := splitter.Config{MinSplit: 16}

	exact, err := scalparc.TrainOpts(comm.NewWorld(p, machine), tab, cfg, scalparc.Options{})
	if err != nil {
		return err
	}
	binned, err := scalparc.TrainOpts(comm.NewWorld(p, machine), tab, cfg,
		scalparc.Options{Split: scalparc.SplitBinned, Bins: d})
	if err != nil {
		return err
	}

	eSent, eOps := phaseComm(exact.Trace, trace.FindSplitI)
	bSent, bOps := phaseComm(binned.Trace, trace.FindSplitI)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tnodes\tFindSplitI ops\tFindSplitI sent")
	fmt.Fprintf(tw, "exact\t%d\t%d\t%.1fKB\n", exact.Tree.NumNodes(), eOps, float64(eSent)/1e3)
	fmt.Fprintf(tw, "binned B=%d\t%d\t%d\t%.1fKB\n", d, binned.Tree.NumNodes(), bOps, float64(bSent)/1e3)
	tw.Flush()

	if !binned.Tree.Equal(exact.Tree) {
		return fmt.Errorf("binned guard: degeneracy regression — binned tree differs from exact with Bins = distinct values")
	}
	if bOps >= eOps {
		return fmt.Errorf("binned guard: FindSplitI collective ops regression — binned %d >= exact %d", bOps, eOps)
	}
	if bSent >= eSent {
		return fmt.Errorf("binned guard: FindSplitI bytes regression — binned %d >= exact %d", bSent, eSent)
	}
	fmt.Fprintf(w, "ok: identical trees, %.2fx fewer FindSplitI ops, %.2fx fewer FindSplitI bytes\n",
		float64(eOps)/float64(bOps), float64(eSent)/float64(bSent))
	return nil
}
