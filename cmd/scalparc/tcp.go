package main

// TCP transport mode: -transport=tcp runs each rank as a separate OS
// process over localhost TCP instead of a goroutine on the simulated
// machine. The coordinator (the process the user started) binds every
// rank's listener, re-executes itself once per rank with the same
// command line plus the worker environment, and waits; each worker
// rebuilds the identical dataset from the shared flags, trains over the
// wire, and the surviving dense-rank-0 worker publishes the tree and
// metrics back through a result file: one header line — the metrics as
// JSON, comm and memory stats pooled over every surviving rank — then the
// tree document exactly as Tree.Encode wrote it (a deep tree is megabytes,
// so it is neither wrapped in the header's JSON nor parsed twice).
//
// With -detect-timeout the workers suspect silent peers by heartbeat
// timeout, and with -checkpoint the coordinator becomes a supervisor:
// when an attempt dies wholesale (every survivor aborted, or the result
// writer was lost), it respawns the surviving world size from the last
// complete on-disk checkpoint instead of giving up.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/classify"
	"repro/internal/comm"
	"repro/internal/comm/tcptransport"
)

// trainTCPCoordinator spawns the rank workers and reassembles their
// result into a Model, so the rest of run() treats a TCP run exactly
// like a simulated one. When checkpointing is on it also retries: a
// failed attempt is relaunched at the surviving world size with the
// resume environment set, and with the fault spec cleared — injected
// faults are one-shot, they struck the attempt they were scheduled for.
func trainTCPCoordinator(args []string, procs int, workerOut io.Writer, detect time.Duration, ckptDir string, stdout io.Writer) (*classify.Model, error) {
	opts := tcptransport.LaunchOpts{}
	if detect > 0 {
		// The watchdog grace mirrors the detection timeout: by the time
		// the run is decided the survivors already waited one detect to
		// suspect the hung rank, so one more is enough for every live
		// worker to finish writing its files. The floor absorbs process
		// scheduling noise at very small timeouts.
		opts.Grace = detect
		if opts.Grace < 100*time.Millisecond {
			opts.Grace = 100 * time.Millisecond
		}
	}
	p := procs
	launchArgs := args
	for attempt := 0; ; attempt++ {
		job, err := tcptransport.LaunchWith(p, launchArgs, workerOut, opts)
		if err != nil {
			return nil, err
		}
		data, werr := job.Wait()
		if werr == nil {
			job.Close()
			header, doc, _ := bytes.Cut(data, []byte("\n"))
			var metrics classify.Metrics
			if err := json.Unmarshal(header, &metrics); err != nil {
				return nil, fmt.Errorf("decoding worker result: %w", err)
			}
			tree, err := classify.DecodeTree(bytes.NewReader(doc))
			if err != nil {
				return nil, fmt.Errorf("decoding worker tree: %w", err)
			}
			// Coordinator-level respawns are recoveries the workers of the
			// final attempt never saw; fold them into the reported count.
			metrics.Recoveries += attempt
			return &classify.Model{Tree: tree, Metrics: metrics}, nil
		}
		survivors := job.Survivors()
		job.Close()
		if ckptDir == "" || survivors < 1 || attempt+1 >= procs {
			return nil, werr
		}
		fmt.Fprintf(stdout, "tcp attempt %d failed (%v); respawning %d survivor(s) from checkpoint %s\n",
			attempt+1, werr, survivors, ckptDir)
		p = survivors
		opts.Resume = true
		// Flag order wins ties, so appending overrides any fault spec in
		// the original command line without rewriting it.
		launchArgs = append(append([]string(nil), args...), "-faults=")
	}
}

// trainTCPWorker is one rank's whole life: connect the mesh described by
// the worker environment, train, and (if this process ends up as the
// lowest surviving physical rank) publish the result. Every exit
// publishes a status verdict so the coordinator can size a respawn: a
// rank killed by fault injection is "dead", a rank that lost every peer
// under detection is "orphaned", and a rank that finished is "ok". A
// hung rank writes nothing — that silence is what the watchdog keys on.
func trainTCPWorker(train *classify.Table, cfg classify.Config, detect time.Duration) error {
	tr, err := tcptransport.FromEnvTimeout(detect)
	if err != nil {
		return err
	}
	defer tr.Close()
	if tcptransport.IsResume() {
		cfg.Resume = true
	}
	mach := cfg.Machine
	if mach == (classify.Machine{}) {
		mach = classify.DefaultMachine()
	}
	w := comm.NewTransportWorld(tr, mach)
	if detect > 0 {
		// Charge the modeled clocks the same timeout the wire observes,
		// so the reported runtime reflects the detection latency.
		w.SetDetectTimeout(detect.Seconds())
	}
	model, err := classify.TrainWorld(w, train, cfg)
	if err != nil {
		if errors.Is(err, tcptransport.ErrOrphaned) {
			_ = tcptransport.WriteStatus("orphaned")
			return nil
		}
		if !w.Live(tr.Rank()) {
			_ = tcptransport.WriteStatus("dead")
			return nil
		}
		return err
	}
	poolStats(w, &model.Metrics)
	for phys := 0; phys < tr.Rank(); phys++ {
		if w.Live(phys) {
			return tcptransport.WriteStatus("ok")
		}
	}
	// Per-process phase traces don't cross the wire; -phases and -trace
	// are rejected up front for -transport=tcp.
	model.Metrics.Trace = nil
	header, err := json.Marshal(model.Metrics)
	if err != nil {
		return err
	}
	result := bytes.NewBuffer(append(header, '\n'))
	if err := model.Tree.Encode(result); err != nil {
		return err
	}
	if err := tcptransport.WriteResult(result.Bytes()); err != nil {
		return err
	}
	// The status write comes after the result write: the coordinator's
	// watchdog starts its grace clock at the first "ok".
	return tcptransport.WriteStatus("ok")
}

// poolStats runs one more SPMD section over the survivors to pool the
// per-process communication and memory stats: a transport-backed world
// only observes its own rank, so without this the published metrics
// would cover 1/p of the machine.
func poolStats(w *comm.World, m *classify.Metrics) {
	w.SetFaultInjector(nil) // training is done; no more injected faults
	var sent, recv, suspicions int64
	var peaks []int64
	w.Run(func(c *comm.Comm) {
		for {
			ok := func() (ok bool) {
				defer func() {
					if r := recover(); r != nil {
						var rf *comm.RankFailure
						if e, isErr := r.(error); isErr && errors.As(e, &rf) && rf.Recoverable() {
							return
						}
						panic(r)
					}
				}()
				st := c.Stats()
				mine := []int64{st.BytesSent, st.BytesRecv, c.Mem().Peak(), st.Suspicions}
				all := comm.AllgatherFlat(c, mine)
				sent, recv, suspicions, peaks = 0, 0, 0, peaks[:0]
				for i := 0; i+3 < len(all); i += 4 {
					sent += all[i]
					recv += all[i+1]
					peaks = append(peaks, all[i+2])
					suspicions += all[i+3]
				}
				return true
			}()
			if ok {
				return
			}
			// A peer process died between training and the stats
			// exchange: shrink with the other survivors and retry.
			if c.TryShrink() != nil {
				// The vote itself evicted or orphaned this rank; the
				// training result is already in hand, so publish this
				// rank's own stats unpooled rather than aborting.
				st := c.Stats()
				sent, recv, suspicions = st.BytesSent, st.BytesRecv, st.Suspicions
				peaks = []int64{c.Mem().Peak()}
				return
			}
		}
	})
	m.BytesSent, m.BytesRecv = sent, recv
	m.PeakMemoryPerRank = peaks
	m.FinalRanks = w.LiveRanks()
	m.Suspicions = suspicions
}
