package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/tree"
)

// Env is what one benchrunner invocation hands every experiment it runs:
// where to print, the workload knobs, and where the BENCH_*.json archive is.
type Env struct {
	Out      io.Writer
	Scale    float64      // fraction of the paper's record counts to run
	Function int          // Quest classification function
	Seed     int64        // generator seed
	MaxDepth int          // maximum tree depth (0 = unlimited)
	Machine  timing.Model // the simulated machine (see ScaledMachine)
	BenchDir string       // directory holding the frozen BENCH_*.json archive
	Trace    string       // file EXP-PHASES writes its Chrome trace to, if set

	grid *Grid // the Figure 3 sweep feeds four experiments; it runs once
}

// records scales one of the paper's training-set sizes (an index into
// PaperSizes) down to this run.
func (e *Env) records(series int) int {
	return int(float64(PaperSizes[series]) * e.Scale)
}

// quest generates n records of the paper's workload — the seven-attribute
// Quest schema — for one classification function and seed, flipping the
// given share of class labels.
func quest(function int, seed int64, n int, labelNoise float64) (*dataset.Table, error) {
	return datagen.Generate(datagen.Config{
		Function: function, Attrs: datagen.Seven, Seed: seed, LabelNoise: labelNoise,
	}, n)
}

func (e *Env) quest(n int, labelNoise float64) (*dataset.Table, error) {
	return quest(e.Function, e.Seed, n, labelNoise)
}

// questTree grows the serial classifier's tree on a quest table — the model
// the inference fixtures serve.
func questTree(function int, seed int64, n int, labelNoise float64) (*tree.Tree, error) {
	tab, err := quest(function, seed, n, labelNoise)
	if err != nil {
		return nil, err
	}
	return serial.Train(tab, splitter.Config{})
}

// sweep returns the Figure 3 sweep, running it on first use.
func (e *Env) sweep() (*Grid, error) {
	if e.grid == nil {
		cfg := DefaultSweep(e.Scale)
		cfg.Function, cfg.Seed, cfg.MaxDepth = e.Function, e.Seed, e.MaxDepth
		fmt.Fprintf(e.Out, "sweep: sizes %v, procs %v (scale %.4g of the paper's sizes)\n\n",
			cfg.Sizes, cfg.Procs, e.Scale)
		points, err := cfg.Run()
		if err != nil {
			return nil, err
		}
		e.grid = NewGrid(points)
	}
	return e.grid, nil
}

// onSweep adapts a printer of the Figure 3 grid to an experiment.
func onSweep(print func(io.Writer, *Grid)) func(*Env) error {
	return func(e *Env) error {
		g, err := e.sweep()
		if err != nil {
			return err
		}
		print(e.Out, g)
		return nil
	}
}

// Experiment is one row of DESIGN.md's per-experiment index.
type Experiment struct {
	Name string // what -exp calls it
	// Guard marks a CI regression gate that needs a clock: `make guard`
	// and the CI workflow each run it as its own step. Exact invariants
	// are package tests, so a guard is never Recorded.
	Guard bool
	// Recorded marks an experiment whose output rides the virtual clocks
	// alone — the same bytes on every host — and is archived in
	// experiments_output.txt (`make experiments-check` regenerates and
	// diffs exactly these).
	Recorded bool
	Run      func(*Env) error
}

// Experiments is every experiment benchrunner can run, in the order it
// runs them whatever order -exp names them in.
var Experiments = []Experiment{
	{Name: "fig3a", Recorded: true, Run: onSweep(Fig3a)},
	{Name: "fig3b", Recorded: true, Run: onSweep(Fig3b)},
	{Name: "speedups", Recorded: true, Run: onSweep(Speedups)},
	{Name: "memfactors", Recorded: true, Run: onSweep(MemFactors)},
	{Name: "sprintcmp", Recorded: true, Run: func(e *Env) error {
		return SprintCmp(e, e.records(2), []int{2, 4, 8, 16, 32}) // the 0.8m series
	}},
	{Name: "serialwall", Recorded: true, Run: func(e *Env) error {
		n := e.records(2)
		budget := int64(n) // records * 1 byte: forces ~5 stages at the root
		return SerialMemoryWall(e, n, []int64{1 << 30, int64(n) * 5, budget * 2, budget})
	}},
	{Name: "pernode", Recorded: true, Run: func(e *Env) error { return PerNode(e, e.records(0), []int{4, 16, 64}) }},
	{Name: "batched", Recorded: true, Run: func(e *Env) error { return Batched(e, e.records(0), []int{4, 16, 64}) }},
	{Name: "rebalance", Recorded: true, Run: func(e *Env) error { return Rebalance(e, e.records(0), []int{4, 16, 64}) }},
	{Name: "blocks", Recorded: true, Run: func(e *Env) error { return Blocks(e, e.records(0), []int{2, 4, 8, 16}) }},
	{Name: "weak", Recorded: true, Run: func(e *Env) error {
		return WeakScaling(e, int(float64(PaperSizes[0])*e.Scale/4), []int{2, 4, 8, 16, 32, 64})
	}},
	{Name: "phases", Recorded: true, Run: func(e *Env) error { return Phases(e, e.records(2), 16) }},
	{Name: "phasecmp", Recorded: true, Run: func(e *Env) error { return PhaseCmp(e, e.records(0), 8) }},
	{Name: "levels", Recorded: true, Run: func(e *Env) error { return Levels(e, e.records(2), 16) }},
	{Name: "binned", Recorded: true, Run: func(e *Env) error { return BinnedSweep(e, e.records(0), 8) }},
	{Name: "vote", Recorded: true, Run: Vote},
	{Name: "hotpathguard", Guard: true, Run: HotpathGuard},
	{Name: "predictguard", Guard: true, Run: PredictGuard},
	// serveguard measures real wall-clock HTTP serving on loopback.
	{Name: "serveguard", Guard: true, Run: ServeGuard},
	{Name: "forest", Recorded: true, Run: Forest},
	{Name: "fault", Run: func(e *Env) error { return Faults(e, e.records(0), []int{4, 8, 16}) }},
	{Name: "micro", Recorded: true, Run: Micro},
}

// Names lists, comma-separated and in registry order, the experiments keep
// accepts; a nil keep accepts every one.
func Names(keep func(Experiment) bool) string {
	var names []string
	for _, x := range Experiments {
		if keep == nil || keep(x) {
			names = append(names, x.Name)
		}
	}
	return strings.Join(names, ", ")
}

// Select resolves a comma-separated -exp list against the registry. Besides
// experiment names the list may hold two groups: "all" is every experiment,
// "recorded" every one archived in experiments_output.txt. Any other name is
// an error before anything runs.
func Select(list string) ([]Experiment, error) {
	want := map[string]bool{"all": false, "recorded": false}
	for _, x := range Experiments {
		want[x.Name] = false
	}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if _, known := want[name]; !known {
			return nil, fmt.Errorf("unknown experiment %q (want %s, all, or recorded)", name, Names(nil))
		}
		want[name] = true
	}
	var selected []Experiment
	for _, x := range Experiments {
		if want[x.Name] || want["all"] || want["recorded"] && x.Recorded {
			selected = append(selected, x)
		}
	}
	return selected, nil
}
