package bench

import (
	"fmt"
	"os"
	"text/tabwriter"

	"repro/classify"
)

// Faults runs and prints EXP-FAULT: the cost of surviving a fail-stop
// crash. One rank is killed mid-induction (FindSplitI at level 2, a point
// every tree in this configuration reaches) and the run recovers on the
// shrunk machine two ways — full replay from the root, and restart from a
// level-boundary checkpoint taken every level into a temporary directory.
// Both must induce the exact fault-free tree; the table reports what the
// recovery costs in modeled runtime over the fault-free baseline.
func Faults(e *Env, n int, procs []int) error {
	w := e.Out
	fmt.Fprintf(w, "EXP-FAULT — crash recovery overhead at %s records (crash@FindSplitI:2, recover on p-1)\n", human(n))
	tab, err := classify.GenerateQuest(classify.QuestConfig{Function: e.Function, Records: n, Seed: e.Seed})
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "procs\tfault-free\treplay recovery\tckpt recovery\treplay overhead\tckpt overhead\ttree")
	for _, p := range procs {
		base := classify.Config{Processors: p, Machine: e.Machine}
		clean, err := classify.Train(tab, base)
		if err != nil {
			return err
		}
		crash := base
		crash.Faults = fmt.Sprintf("crash@FindSplitI:2:%d", p/2)
		replay, err := classify.Train(tab, crash)
		if err != nil {
			return err
		}
		if crash.CheckpointDir, err = os.MkdirTemp("", "exp-fault-"); err != nil {
			return err
		}
		ckpt, err := classify.Train(tab, crash)
		os.RemoveAll(crash.CheckpointDir)
		if err != nil {
			return err
		}
		for _, m := range []*classify.Model{replay, ckpt} {
			if m.Metrics.Recoveries != 1 || m.Metrics.FinalRanks != p-1 {
				return fmt.Errorf("bench: p=%d run did not recover: %+v", p, m.Metrics)
			}
		}
		identical := replay.Tree.Equal(clean.Tree) && ckpt.Tree.Equal(clean.Tree)
		verdict := "identical"
		if !identical {
			verdict = "DIFFERS"
		}
		t0 := clean.Metrics.ModeledSeconds
		over := func(t float64) float64 { return 100 * (t - t0) / t0 }
		fmt.Fprintf(tw, "%d\t%.3fs\t%.3fs\t%.3fs\t+%.1f%%\t+%.1f%%\t%s\n",
			p, t0, replay.Metrics.ModeledSeconds, ckpt.Metrics.ModeledSeconds,
			over(replay.Metrics.ModeledSeconds), over(ckpt.Metrics.ModeledSeconds), verdict)
	}
	tw.Flush()
	return nil
}
