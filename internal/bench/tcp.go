package bench

// EXP-TCP: real wall-clock scaling of the TCP process-per-rank backend.
//
// Every other experiment measures the modeled machine — deterministic
// virtual clocks on the goroutine-simulated backend. EXP-TCP is the one
// place the repo measures reality: the same induction over
// tcptransport's worker processes, timed with the host clock, recorded
// next to the modeled figures in the checked-in BENCH_tcp.json
// trajectory. The coordinator (benchrunner) re-executes itself once per
// rank, exactly as cmd/scalparc -transport=tcp does.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/comm"
	"repro/internal/comm/tcptransport"
	"repro/internal/scalparc"
	"repro/internal/splitter"
	"repro/internal/timing"
)

// TCPRecords is the fixed workload each measurement trains, so runs
// recorded months apart stay comparable.
const TCPRecords = 200_000

// tcpFile is the checked-in EXP-TCP trajectory; its notes document the file
// for readers of the raw JSON.
var tcpFile = trajectoryFile{"BENCH_tcp.json", "EXP-TCP", "EXP-TCP trajectory: real wall-clock ScalParC induction (Quest F2, 200k records, exact splits) over the process-per-rank localhost TCP backend, one OS process per rank. wall_seconds is host time for the slowest rank's whole induction (presort + all levels); modeled_seconds is the deterministic virtual clock, identical on the simulated backend. Speedup is relative to the p=1 run in the same row set and is bounded by numcpu: with p ranks time-slicing fewer cores the points measure the transport's overhead (deposit-exchange collectives pay p-1 real copies on the wire that the simulated machine's aliasing gets for free), not parallel scaling."}

// TCPPoint is one processor count's measurement in an EXP-TCP run.
type TCPPoint struct {
	Procs          int     `json:"procs"`
	WallSeconds    float64 `json:"wall_seconds"`
	ModeledSeconds float64 `json:"modeled_seconds"`
	RowsPerSec     float64 `json:"rows_per_sec"`
	Speedup        float64 `json:"speedup"`
}

// TCPRun is one labeled EXP-TCP measurement with host metadata.
type TCPRun struct {
	hostMeta
	Records int        `json:"records"`
	Points  []TCPPoint `json:"points"`
}

// tcpWorkerResult is what the rank-0 worker reports back.
type tcpWorkerResult struct {
	WallSeconds    float64 `json:"wall_seconds"`
	ModeledSeconds float64 `json:"modeled_seconds"`
	Levels         int     `json:"levels"`
}

// TCPWorker is the rank-worker entry point benchrunner's main calls when
// it finds itself re-executed with the tcptransport worker environment.
// It parses the workload flags the coordinator passed, trains over the
// wire, and (on rank 0) publishes the timing figures.
func TCPWorker(args []string) error {
	fs := flag.NewFlagSet("tcpworker", flag.ContinueOnError)
	records := fs.Int("records", TCPRecords, "records to train")
	function := fs.Int("function", 2, "Quest function")
	seed := fs.Int64("seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tab, err := quest(*function, *seed, *records, 0)
	if err != nil {
		return err
	}
	tr, err := tcptransport.FromEnv()
	if err != nil {
		return err
	}
	defer tr.Close()
	w := comm.NewTransportWorld(tr, timing.T3D())
	res, err := scalparc.TrainOpts(w, tab, splitter.Config{}, scalparc.Options{})
	if err != nil {
		return err
	}
	if tr.Rank() != 0 {
		return nil
	}
	data, err := json.Marshal(tcpWorkerResult{
		WallSeconds:    res.WallSeconds,
		ModeledSeconds: res.ModeledSeconds,
		Levels:         res.Levels,
	})
	if err != nil {
		return err
	}
	return tcptransport.WriteResult(data)
}

// tcpMeasure launches one process-per-rank training and returns the
// rank-0 worker's timing report.
func tcpMeasure(p, records, function int, seed int64) (tcpWorkerResult, error) {
	args := []string{
		"-records", fmt.Sprint(records),
		"-function", fmt.Sprint(function),
		"-seed", fmt.Sprint(seed),
	}
	var res tcpWorkerResult
	job, err := tcptransport.Launch(p, args, os.Stderr)
	if err != nil {
		return res, err
	}
	data, err := job.Wait()
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("decoding worker result: %w", err)
	}
	return res, nil
}

// TCP runs and records EXP-TCP: it trains the fixed workload at each
// processor count on real worker processes, appends a labeled run to
// e.BenchDir's BENCH_tcp.json, and prints the resulting trajectory.
func TCP(e *Env) error {
	w := e.Out
	fmt.Fprintln(w, "EXP-TCP — real wall-clock scaling, one OS process per rank (appending to BENCH_tcp.json)")
	run := TCPRun{hostMeta: newHostMeta(e.Label), Records: TCPRecords}
	var base float64
	for _, p := range []int{1, 2, 4} {
		res, err := tcpMeasure(p, TCPRecords, 2, 1)
		if err != nil {
			return fmt.Errorf("p=%d: %w", p, err)
		}
		pt := TCPPoint{
			Procs:          p,
			WallSeconds:    res.WallSeconds,
			ModeledSeconds: res.ModeledSeconds,
			RowsPerSec:     float64(TCPRecords) / res.WallSeconds,
		}
		if p == 1 {
			base = res.WallSeconds
		}
		if base > 0 {
			pt.Speedup = base / res.WallSeconds
		}
		run.Points = append(run.Points, pt)
		fmt.Fprintf(w, "  p=%-2d  wall %7.3fs  modeled %7.3fs  %9.0f rows/s  speedup %.2fx\n",
			p, pt.WallSeconds, pt.ModeledSeconds, pt.RowsPerSec, pt.Speedup)
	}
	_, err := record(w, e.BenchDir, tcpFile, run, "trajectory (p=4 wall seconds, speedup over p=1):",
		func(_ int, r *TCPRun) (line string) {
			for _, pt := range r.Points {
				if pt.Procs == 4 {
					line += fmt.Sprintf("  %7.3fs  %.2fx", pt.WallSeconds, pt.Speedup)
				}
			}
			return line
		})
	return err
}
