// Command datagen generates synthetic Quest training sets (the paper's
// workload) as CSV.
//
// Usage:
//
//	datagen -function 2 -records 100000 -seed 1 -o train.csv
//	datagen -function 7 -records 50000 -nine -noise 0.05
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/classify"
	"repro/internal/atomicfile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	function := fs.Int("function", 2, "Quest classification function (1..10)")
	records := fs.Int("records", 10000, "number of records")
	seed := fs.Int64("seed", 1, "random seed")
	nine := fs.Bool("nine", false, "emit the full nine-attribute schema (default: the paper's seven)")
	noise := fs.Float64("noise", 0, "label noise probability")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tab, err := classify.GenerateQuest(classify.QuestConfig{
		Function:       *function,
		Records:        *records,
		Seed:           *seed,
		NineAttributes: *nine,
		LabelNoise:     *noise,
	})
	if err != nil {
		return err
	}

	if *out == "" {
		return classify.WriteCSV(stdout, tab)
	}
	err = atomicfile.Write(*out, func(w io.Writer) error { return classify.WriteCSV(w, tab) })
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", tab.NumRows(), *out)
	return nil
}
