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
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	exp := fs.String("exp", "all", "comma-separated experiments: "+bench.Names(nil)+
		"; or all, or recorded (the ones archived in experiments_output.txt)")
	scale := fs.Float64("scale", 1.0/16, "fraction of the paper's record counts to run")
	function := fs.Int("function", 2, "Quest classification function")
	seed := fs.Int64("seed", 1, "generator seed")
	maxDepth := fs.Int("depth", 0, "maximum tree depth (0 = unlimited)")
	traceOut := fs.String("trace", "", "write the per-rank timelines of the per-phase breakdown (EXP-PHASES) as Chrome trace-event JSON to this file")
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
		Machine: bench.ScaledMachine(*scale),
		Trace:   *traceOut,
	}
	for _, x := range selected {
		if err := x.Run(env); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}
