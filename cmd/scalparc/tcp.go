package main

// TCP transport mode: -transport=tcp runs each rank as a separate OS
// process over localhost TCP instead of a goroutine on the simulated
// machine. The coordinator (the process the user started) binds every
// rank's listener, re-executes itself once per rank with the same
// command line plus the worker environment, and waits; each worker
// rebuilds the identical dataset from the shared flags, trains over the
// wire, and the surviving dense-rank-0 worker publishes the model and
// metrics back through a result file, one format for a tree and a forest:
// one header line — the metrics as JSON (a tree's with every surviving
// rank's books, phase trace included) — then the model document exactly as
// Encode wrote it (a deep tree is megabytes, so it is neither wrapped in
// the header's JSON nor parsed twice), read back by the one model parser.
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
	"slices"
	"time"

	"repro/classify"
	"repro/internal/comm"
	"repro/internal/comm/tcptransport"
)

// tcpResult is a finished TCP job as the coordinator reads it: the result
// writer's metrics header and model, and what only the coordinator saw —
// the respawns it took and the final attempt's ids.
type tcpResult struct {
	procs    int
	header   []byte
	model    *classify.Forest
	respawns int
	ids      []int
}

// trainTCPCoordinator spawns the rank workers and reads back their result,
// so the rest of run() treats a TCP run exactly like a simulated one. When
// checkpointing is on it also retries: a failed attempt is relaunched at
// the surviving world size with the resume environment set, and with the
// fault spec cleared — injected faults are one-shot, they struck the
// attempt they were scheduled for. A respawned attempt's rank r stands for
// its parent attempt's r-th survivor, so the reported lost ranks are the
// original run's.
func trainTCPCoordinator(args []string, procs int, workerOut io.Writer, detect time.Duration, ckptDir string, stdout io.Writer) (*tcpResult, error) {
	opts := tcptransport.LaunchOpts{}
	if detect > 0 {
		// The watchdog grace mirrors the detection timeout: the run is
		// decided only once the result is written or a worker ended
		// orphaned or failed, so a rank still running is either exiting
		// or one the survivors already waited a detect to suspect, and
		// one more is enough for the former. The floor absorbs process
		// scheduling noise at very small timeouts.
		opts.Grace = detect
		if opts.Grace < 100*time.Millisecond {
			opts.Grace = 100 * time.Millisecond
		}
	}
	ids := make([]int, procs) // ids[r]: the original rank this attempt's rank r stands for
	for r := range ids {
		ids[r] = r
	}
	launchArgs := args
	for attempt := 0; ; attempt++ {
		job, err := tcptransport.LaunchWith(len(ids), launchArgs, workerOut, opts)
		if err != nil {
			return nil, err
		}
		data, werr := job.Wait()
		if werr == nil {
			job.Close()
			header, doc, _ := bytes.Cut(data, []byte("\n"))
			model, err := classify.DecodeModel(bytes.NewReader(doc))
			if err != nil {
				return nil, fmt.Errorf("decoding worker model: %w", err)
			}
			return &tcpResult{procs: procs, header: header, model: model, respawns: attempt, ids: ids}, nil
		}
		survivors := job.Survivors()
		job.Close()
		if ckptDir == "" || len(survivors) < 1 || attempt+1 >= procs {
			return nil, werr
		}
		fmt.Fprintf(stdout, "tcp attempt %d failed (%v); respawning %d survivor(s) from checkpoint %s\n",
			attempt+1, werr, len(survivors), ckptDir)
		for i, r := range survivors {
			ids[i] = ids[r]
		}
		ids = ids[:len(survivors)]
		opts.Resume = true
		// Flag order wins ties, so appending overrides any fault spec in
		// the original command line without rewriting it.
		launchArgs = append(append([]string(nil), args...), "-faults=")
	}
}

// tree is a single-tree job's model. The final attempt's workers never saw
// the coordinator's respawns or earlier attempts' losses: a rank of the
// run as asked for is lost unless the final attempt ran it and kept it.
func (r *tcpResult) tree() (*classify.Model, error) {
	var m classify.Metrics
	if err := json.Unmarshal(r.header, &m); err != nil {
		return nil, fmt.Errorf("decoding worker result: %w", err)
	}
	if len(r.model.Trees) != 1 {
		return nil, fmt.Errorf("decoding worker result: a forest of %d trees, not a tree", len(r.model.Trees))
	}
	m.Recoveries += r.respawns
	m.Processors = r.procs
	gone := m.Lost
	m.Lost = nil
	for id := range r.procs {
		if rank := slices.Index(r.ids, id); rank < 0 || slices.Contains(gone, rank) {
			m.Lost = append(m.Lost, id)
		}
	}
	return &classify.Model{Tree: r.model.Trees[0], Metrics: m}, nil
}

// forest is a forest job's model; a respawn counts as a recovery, as it
// does for a tree.
func (r *tcpResult) forest() (*classify.ForestModel, error) {
	var m classify.ForestMetrics
	if err := json.Unmarshal(r.header, &m); err != nil {
		return nil, fmt.Errorf("decoding worker result: %w", err)
	}
	m.Recoveries += r.respawns
	m.Processors = r.procs
	return &classify.ForestModel{Forest: r.model, Metrics: m}, nil
}

// trainTCPWorker is one rank's whole life: connect the mesh described by
// the worker environment, train the tree, or the forest when one is given
// (its Engine is cfg), and (if this process ends up as the lowest surviving
// physical rank) publish the result. Its outcome is the worker's verdict,
// which main turns into the exit status the coordinator reads
// (tcptransport.ExitCode): nil for a finished rank, ErrDead for a rank
// killed by fault injection, ErrOrphaned for a rank that lost every peer
// under detection, any other error for a failure. A hung rank never
// returns — the watchdog reaps it.
func trainTCPWorker(train *classify.Table, cfg classify.Config, forest *classify.ForestConfig, detect time.Duration) error {
	tr, err := tcptransport.FromEnvTimeout(detect)
	if err != nil {
		return err
	}
	defer tr.Close()
	if tcptransport.IsResume() {
		cfg.Resume = true
	}
	w := comm.NewTransportWorld(tr, cfg.Machine)
	if detect > 0 {
		// Charge the modeled clocks the same timeout the wire observes,
		// so the reported runtime reflects the detection latency.
		w.SetDetectTimeout(detect.Seconds())
	}
	// A forest that lost trees to the error that ended its world still has
	// a model: the trees before it, lost ones recorded.
	var metrics any
	var model interface{ Encode(io.Writer) error }
	if forest == nil {
		var m *classify.Model
		if m, err = classify.TrainWorld(w, train, cfg); m != nil {
			metrics, model = m.Metrics, m.Tree
		}
	} else {
		f := *forest
		f.Engine = cfg
		var m *classify.ForestModel
		if m, err = classify.TrainForestWorld(w, train, f); m != nil {
			metrics, model = m.Metrics, m.Forest
		}
	}
	switch {
	case errors.Is(err, tcptransport.ErrOrphaned):
		return err
	case !w.Live(tr.Rank()):
		return tcptransport.ErrDead
	case model == nil:
		return err
	}
	for phys := 0; phys < tr.Rank(); phys++ {
		if w.Live(phys) {
			return nil
		}
	}
	header, err := json.Marshal(metrics)
	if err != nil {
		return err
	}
	result := bytes.NewBuffer(append(header, '\n'))
	if err := model.Encode(result); err != nil {
		return err
	}
	return tcptransport.WriteResult(result.Bytes())
}
