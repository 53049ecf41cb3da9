// Command benchrunner regenerates the paper's evaluation: every figure,
// the prose's quantitative claims, and the design ablations listed in
// DESIGN.md's per-experiment index. The experiments themselves are rows of
// the registry in internal/bench; this command only selects and runs them.
//
//	benchrunner -exp all                 # everything at the default scale
//	benchrunner -exp fig3a -scale 1.0    # Figure 3(a) at the paper's full sizes
//	benchrunner -exp sprintcmp           # ScalParC vs parallel SPRINT
//
// Record counts are the paper's {0.2 .. 6.4} million multiplied by -scale
// (default 1/16; the curve shapes depend on N/p and survive scaling —
// see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/comm/tcptransport"
)

func main() {
	// EXP-TCP re-executes this binary once per rank; a worker invocation
	// runs its rank's share of the training and exits.
	if tcptransport.IsWorker() {
		if err := bench.TCPWorker(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	usesFiles := func(x bench.Experiment) bool { return x.Trajectory != bench.NoTrajectory }
	appends := func(x bench.Experiment) bool { return x.Trajectory == bench.Appends }

	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	exp := fs.String("exp", "all", "comma-separated experiments: "+bench.Names(nil)+
		"; or all (every one but "+bench.Names(appends)+", which append to a BENCH_*.json file), or recorded (the ones archived in experiments_output.txt)")
	scale := fs.Float64("scale", 1.0/16, "fraction of the paper's record counts to run")
	function := fs.Int("function", 2, "Quest classification function")
	seed := fs.Int64("seed", 1, "generator seed")
	maxDepth := fs.Int("depth", 0, "maximum tree depth (0 = unlimited)")
	traceOut := fs.String("trace", "", "write the per-rank timelines of the per-phase breakdown (EXP-PHASES) as Chrome trace-event JSON to this file")
	benchDir := fs.String("benchdir", ".", "directory holding the BENCH_*.json trajectory files ("+bench.Names(usesFiles)+")")
	benchLabel := fs.String("benchlabel", "", "label of the run appended to the BENCH_*.json files ("+bench.Names(appends)+")")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 || *scale > 1 {
		return fmt.Errorf("-scale %v out of (0, 1]", *scale)
	}
	selected, err := bench.Select(*exp)
	if err != nil {
		return err
	}

	env := &bench.Env{
		Out: out, Scale: *scale, Function: *function, Seed: *seed, MaxDepth: *maxDepth,
		// Latencies scale with the data so reduced sweeps keep the full-size
		// comp/comm balance (see bench.ScaledMachine).
		Machine:  bench.ScaledMachine(*scale),
		BenchDir: *benchDir, Label: *benchLabel, Trace: *traceOut,
	}
	for _, x := range selected {
		if err := x.Run(env); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}
