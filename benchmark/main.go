// Command benchmark is the repo's benchmark: six named workloads, wall-clock
// end-to-end metrics with fixed regression bounds, and outside-in per-layer
// probes for training, the TCP transport, forests and serving. See README.md.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's contract)
//	bench -all [--seed N] [--runs R] [--out SET.json]        every workload, each run in a fresh process
//	bench compare A.json B.json                              two sets, metric by metric
//	bench spec                                               BENCHMARK.json, from the registry in spec.go
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"

	"repro/internal/comm/tcptransport"
)

func main() {
	// Launch re-executes this binary once per rank of a TCP job.
	if tcptransport.IsWorker() {
		if err := tcpWorkerMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark tcp worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			if len(args) != 3 {
				return errors.New("usage: compare A.json B.json")
			}
			return compareFiles(stdout, args[1], args[2])
		case "spec":
			return writeSpec(stdout)
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (see `spec`)")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	secs := fs.Float64("seconds", runSeconds, "length of the timed window")
	traceFlag := fs.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
	traceOut := fs.String("trace-out", "", "with --trace 1: write the spans here as Chrome trace-event JSON")
	scale := fs.String("scale", "full", "input scale: full (every recorded number) or tiny (smoke test)")
	all := fs.Bool("all", false, "run every workload, untraced and traced, each in a fresh child process")
	runs := fs.Int("runs", 1, "with -all: untraced runs per workload, on seeds seed, seed+1, ...")
	out := fs.String("out", "", "with -all: write the set of records here, for `compare`")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *all {
		return runAll(stdout, *seed, *secs, *scale, *runs, *out)
	}
	wl := findWorkload(*workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q; want one of %s", *workload, strings.Join(workloadNames(), ", "))
	}
	rec, tr, err := runWorkload(wl, *seed, *secs, *traceFlag == 1, *scale, stdout)
	if err != nil {
		return err
	}
	if *traceOut != "" && tr.on {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := tr.writeChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if err := rec.print(stdout); err != nil {
		return err
	}
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their oracle check", rec.Workload, rec.Failed, rec.Attempted)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// runWorkload is one run in this process.
func runWorkload(wl *workloadSpec, seed int64, secs float64, traced bool, scale string, stdout io.Writer) (*record, *tracer, error) {
	rc, err := newRunCtx(wl.Name, seed, secs, traced, scale, stdout)
	if err != nil {
		return nil, nil, err
	}
	host := readHostLabel()
	rc.logf("workload %s seed %d seconds %g trace %t scale %s", wl.Name, seed, secs, traced, scale)
	if err := wl.run(rc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	if traced {
		self := rc.tr.selfTimes()
		layers := make([]string, 0, len(self))
		for layer := range self {
			layers = append(layers, layer)
		}
		sort.Strings(layers)
		for _, layer := range layers {
			rc.logf("self %-14s %10.4f s", layer, self[layer].Seconds())
		}
	}
	rec, err := rc.finish(host)
	return rec, rc.tr, err
}

// set is what `-all` writes and `compare` reads: every record of one pass
// over the workloads.
type set struct {
	Seed    int64    `json:"seed"`
	Runs    int      `json:"runs"`
	Seconds float64  `json:"seconds"`
	Scale   string   `json:"scale"`
	Records []record `json:"records"`
}

// runAll runs every workload — `runs` untraced runs on consecutive seeds
// and one traced run — each in a fresh child process, so no workload
// inherits another's heap, page cache of binaries aside.
func runAll(stdout io.Writer, seed int64, secs float64, scale string, runs int, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	s := set{Seed: seed, Runs: runs, Seconds: secs, Scale: scale}
	var failed []string
	for _, wl := range workloads {
		for r := 0; r <= runs; r++ {
			traced, runSeed := r == runs, seed+int64(r)
			if traced {
				runSeed = seed
			}
			args := []string{"--workload", wl.Name, "--seed", fmt.Sprint(runSeed), "--seconds", fmt.Sprint(secs), "--scale", scale, "--trace", "0"}
			if traced {
				args[len(args)-1] = "1"
			}
			rec, err := runChild(stdout, self, args)
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s (seed %d, trace %t): %v", wl.Name, runSeed, traced, err))
			}
			if rec != nil { // a run that failed its oracle still printed its record
				s.Records = append(s.Records, *rec)
			}
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(s, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d run(s) failed:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

// runChild runs one workload in a child process, passes its output through
// (minus the record line) and returns the record.
func runChild(stdout io.Writer, self string, args []string) (*record, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var outBuf bytes.Buffer
	cmd.Stdout = &outBuf
	runErr := cmd.Run()
	var rec *record
	sc := bufio.NewScanner(&outBuf)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, recordPrefix); ok {
			rec = &record{}
			if err := json.Unmarshal([]byte(rest), rec); err != nil {
				return nil, fmt.Errorf("decoding child record: %w", err)
			}
			continue
		}
		fmt.Fprintln(stdout, line)
	}
	if runErr == nil && rec == nil {
		runErr = errors.New("child printed no record")
	}
	return rec, runErr
}
