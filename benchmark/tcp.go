package main

// train-tcp-exact: train-deep-exact's table and options, one OS process per
// rank over localhost. The benchmark binary is its own rank worker: Launch
// re-executes it with the worker environment set, and main hands control to
// tcpWorkerMain before it looks at anything else.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/comm"
	"repro/internal/comm/tcptransport"
	"repro/internal/dataset"
	"repro/internal/scalparc"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
)

// tcpResult is the header of the result file the rank-0 worker hands back:
// one line of JSON, followed by the tree exactly as tree.Encode wrote it
// (an unlimited-depth tree encodes to tens of MB, so it is not wrapped in
// the JSON a second time).
type tcpResult struct {
	ModeledSeconds float64                `json:"modeled_seconds"`
	ModeledPicos   int64                  `json:"modeled_picos"`
	WallSeconds    float64                `json:"wall_seconds"`
	Levels         int                    `json:"levels"`
	PerLevel       []scalparc.LevelStats  `json:"per_level"`
	Stats          comm.Stats             `json:"stats"` // summed over ranks
	PhasePicos     [trace.NumPhases]int64 `json:"phase_picos"`
	PeakTracked    int64                  `json:"peak_tracked"`
}

// rankReport is what every rank contributes to the pooled result.
type rankReport struct {
	Stats       comm.Stats
	PeakTracked int64
	FinalPicos  int64
	PhasePicos  [trace.NumPhases]int64
}

// tcpWorkerMain is one rank's whole life: rebuild the table from the seed,
// connect the mesh the environment describes, train, pool the per-rank
// counters, and (on rank 0) publish the result.
func tcpWorkerMain(args []string) error {
	fs := flag.NewFlagSet("tcp-worker", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "generator seed")
	scale := fs.String("scale", "full", "input scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sz, ok := scales[*scale]
	if !ok {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	tab, err := deepTable(*seed, sz)
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
	// A transport-backed world only observes its own rank: one more
	// collective pools the exact traffic counts, the tracked peaks and the
	// modeled phase times. It advances the virtual clock, so the modeled
	// time is read first.
	modeledPicos := w.MaxClockPicos()
	mine, err := json.Marshal(rankReport{
		Stats: res.Stats[tr.Rank()], PeakTracked: res.PeakMemoryPerRank[tr.Rank()],
		FinalPicos: res.Trace.FinalPicos[tr.Rank()], PhasePicos: res.Trace.Ranks[tr.Rank()].PhasePicos(),
	})
	if err != nil {
		return err
	}
	var pooled [][]byte
	w.Run(func(c *comm.Comm) { pooled = comm.Allgather(c, mine) })
	if tr.Rank() != 0 {
		return nil
	}
	out := tcpResult{
		ModeledSeconds: res.ModeledSeconds, ModeledPicos: modeledPicos, WallSeconds: res.WallSeconds,
		Levels: res.Levels, PerLevel: res.PerLevel,
	}
	var criticalClock int64 = -1
	for _, data := range pooled {
		var rr rankReport
		if err := json.Unmarshal(data, &rr); err != nil {
			return fmt.Errorf("decoding a peer's report: %w", err)
		}
		out.Stats.Add(rr.Stats)
		out.PeakTracked = max(out.PeakTracked, rr.PeakTracked)
		// The phase times reported are the critical rank's, as on the sim.
		if rr.FinalPicos > criticalClock {
			criticalClock, out.PhasePicos = rr.FinalPicos, rr.PhasePicos
		}
	}
	header, err := json.Marshal(out)
	if err != nil {
		return err
	}
	buf := bytes.NewBuffer(append(header, '\n'))
	if err := res.Tree.Encode(buf); err != nil {
		return err
	}
	return tcptransport.WriteResult(buf.Bytes())
}

// tcpJob is one training job as its caller sees it: spawn the workers, wait
// for them, read the result. The tree comes back as bytes; the oracle check
// decodes nothing, it compares them with the simulated run's.
func tcpJob(rc *runCtx, _ *fixture, p int) (*outcome, error) {
	job, err := tcptransport.Launch(p, []string{"-seed", fmt.Sprint(rc.seed), "-scale", rc.scale}, os.Stderr)
	if err != nil {
		return nil, err
	}
	defer job.Close()
	data, err := job.Wait()
	if err != nil {
		return nil, err
	}
	header, encoded, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return nil, errors.New("worker result has no header line")
	}
	var res tcpResult
	if err := json.Unmarshal(header, &res); err != nil {
		return nil, fmt.Errorf("decoding worker result: %w", err)
	}
	return &outcome{
		encoded: encoded, modeledSeconds: res.ModeledSeconds, modeledPicos: res.ModeledPicos,
		levels: res.Levels, perLevel: res.PerLevel, stats: res.Stats, phasePicos: res.PhasePicos,
		peakTracked: res.PeakTracked, innerWall: res.WallSeconds,
	}, nil
}

func runTrainTCP(rc *runCtx) error {
	return runTraining(rc, trainWorkload{
		exact: true, remote: true,
		// The oracle is the simulated run on the same table: the transport
		// must change neither the tree's bytes nor one modeled picosecond.
		setup: func(rc *runCtx) (*fixture, error) {
			fx := &fixture{}
			err := generate(rc, fx, "Generate", func() (*dataset.Table, error) { return deepTable(rc.seed, rc.sz) })
			if err != nil {
				return nil, err
			}
			var sim *outcome
			rc.tr.do("scalparc", "TrainOpts sim (oracle)", 0, func() { sim, err = simJob(rc, fx, procs) })
			if err != nil {
				return nil, err
			}
			h := sha256.New()
			if err := sim.tree.Encode(h); err != nil {
				return nil, err
			}
			fx.oracleTree, fx.oracleSum, fx.oraclePicos = sim.tree, h.Sum(nil), sim.modeledPicos
			return fx, nil
		},
		job: tcpJob,
		check: func(fx *fixture, o *outcome) error {
			if sum := sha256.Sum256(o.encoded); !bytes.Equal(sum[:], fx.oracleSum) {
				return errors.New("TCP tree bytes differ from the simulated run's")
			}
			if o.modeledPicos != fx.oraclePicos {
				return fmt.Errorf("TCP modeled time is %d ps, the simulated run's is %d ps", o.modeledPicos, fx.oraclePicos)
			}
			o.tree = fx.oracleTree // byte-equal, so the same tree
			return nil
		},
	})
}
