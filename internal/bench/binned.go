package bench

import (
	"fmt"
	"io"
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
func measureSplits(modes []scalparc.Options, p int, machine timing.Model, cfg splitter.Config, train, test *dataset.Table) ([]SplitPoint, error) {
	points := make([]SplitPoint, len(modes))
	for i, opts := range modes {
		res, err := scalparc.TrainOpts(comm.NewWorld(p, machine), train, cfg, opts)
		if err != nil {
			return nil, err
		}
		sent, ops := phaseComm(res.Trace, trace.FindSplitI)
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
	return points, nil
}

// splitTable prints one row per measured mode: what FindSplitI cost (the
// collective count is the latency term, the bytes the bandwidth term) and
// what the resulting tree is worth on held-out data.
func splitTable(w io.Writer, modes []scalparc.Options, points []SplitPoint) {
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	row := func(cells ...string) { fmt.Fprintln(tw, strings.Join(cells, "\t")) }
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
	points, err := measureSplits(modes, p, e.Machine, splitter.Config{}, train, test)
	if err != nil {
		return err
	}
	splitTable(w, modes, points)
	fmt.Fprintln(w, "(bytes grow with B and with the approximation's larger node count;")
	fmt.Fprintln(w, " the binned win is one collective per level and balanced receive volume)")
	return nil
}
