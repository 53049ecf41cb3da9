package bench

// EXP-VOTE / GUARD-VOTE: top-k attribute-voting split finding on wide,
// sparsely-informative schemas — the workload the vote protocol exists
// for. The fixed scenario is the Quest seven-attribute projection padded
// with 193 pure-noise continuous attributes (200 attributes total, a
// handful informative), where the binned reduce-scatter must ship every
// attribute's histogram each level but voting ships only the elected
// candidates'.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/scalparc"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
)

// VoteFile is the checked-in EXP-VOTE trajectory (relative to the repo
// root). The remaining constants pin the scenario: the wide Quest table
// (seed, function, rows, noise attributes), the histogram resolution, and
// the training regime. MinSplit/MaxDepth keep every need-split node large
// relative to the rank count, the regime in which small-k vote trees are
// processor-invariant (DESIGN.md §10) — the guard's tree-identity gate
// depends on it.
const (
	VoteFile     = "BENCH_vote.json"
	VoteRecords  = 1600
	VoteNoise    = 193 // 7 Quest attributes + 193 noise = 200 total
	VoteProcs    = 4
	VoteBins     = 32
	VoteMinSplit = 40
	VoteMaxDepth = 3
	voteFunction = 2
	voteSeed     = 3
	voteTestSeed = 99
	voteTestRows = 800
)

// voteNotes documents the trajectory file for readers of the raw JSON.
const voteNotes = "EXP-VOTE trajectory: exact vs binned vs top-k voting split finding on the wide Quest scenario (F2, 1600 records, 7 informative + 193 noise attributes, 4 processors, B=32, MinSplit 40, depth cap 3; virtual T3D clocks, so points are host-independent and bit-stable). findsplit_bytes/findsplit_ops total the FindSplitI phase's communication across all ranks and levels; accuracy is held out on an independently seeded 800-row table. The vote rows show the k-knob trading bytes against fidelity: k >= attrs is provably the binned tree, small k ships only the elected candidates' histograms."

// VotePoint is one split-finding mode's measurement in an EXP-VOTE run.
type VotePoint struct {
	Mode           string  `json:"mode"` // "exact", "binned", or "vote"
	VoteK          int     `json:"vote_k,omitempty"`
	ModeledSeconds float64 `json:"modeled_seconds"`
	Nodes          int     `json:"nodes"`
	FindSplitOps   int64   `json:"findsplit_ops"`
	FindSplitBytes int64   `json:"findsplit_bytes"`
	Accuracy       float64 `json:"accuracy"`
}

// VoteRun is one labeled EXP-VOTE measurement. The virtual-clock points
// are host-independent; the host metadata records where the run happened
// anyway, for parity with the other trajectories.
type VoteRun struct {
	Label     string      `json:"label"`
	Date      string      `json:"date"`
	GoVersion string      `json:"go"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	NumCPU    int         `json:"numcpu"`
	Records   int         `json:"records"`
	Attrs     int         `json:"attrs"`
	Points    []VotePoint `json:"points"`
}

// VoteTrajectory is the on-disk shape of BENCH_vote.json: an append-only
// trajectory of runs, oldest first.
type VoteTrajectory struct {
	Experiment string    `json:"experiment"`
	Notes      string    `json:"notes"`
	Runs       []VoteRun `json:"runs"`
}

// voteTables generates the pinned wide training table and an
// independently seeded held-out table from the same distribution.
func voteTables() (train, test *dataset.Table, err error) {
	train, err = datagen.GenerateWide(datagen.Config{
		Function: voteFunction, Attrs: datagen.Seven, Seed: voteSeed,
	}, VoteRecords, VoteNoise)
	if err != nil {
		return nil, nil, err
	}
	test, err = datagen.GenerateWide(datagen.Config{
		Function: voteFunction, Attrs: datagen.Seven, Seed: voteTestSeed,
	}, voteTestRows, VoteNoise)
	if err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

func voteConfig() splitter.Config {
	return splitter.Config{MinSplit: VoteMinSplit, MaxDepth: VoteMaxDepth}
}

// voteMeasure trains one mode on the pinned scenario and reduces the run
// to a trajectory point.
func voteMeasure(mode string, opts scalparc.Options, train, test *dataset.Table, p int) (VotePoint, *scalparc.Result, error) {
	world := comm.NewWorld(p, timing.T3D())
	res, err := scalparc.TrainOpts(world, train, voteConfig(), opts)
	if err != nil {
		return VotePoint{}, nil, err
	}
	sent, ops := phaseComm(res.Trace, trace.FindSplitI)
	return VotePoint{
		Mode:           mode,
		VoteK:          opts.VoteK,
		ModeledSeconds: res.ModeledSeconds,
		Nodes:          res.Tree.NumNodes(),
		FindSplitOps:   ops,
		FindSplitBytes: sent,
		Accuracy:       heldOutAccuracy(res.Tree, test),
	}, res, nil
}

// voteSweepPoints measures the sweep's fixed mode ladder: exact, binned,
// and voting across the k knob up to the degenerate k = attrs.
func voteSweepPoints(w io.Writer, train, test *dataset.Table) ([]VotePoint, error) {
	numAttrs := train.Schema.NumAttrs()
	type row struct {
		mode string
		opts scalparc.Options
	}
	rows := []row{
		{"exact", scalparc.Options{}},
		{"binned", scalparc.Options{Split: scalparc.SplitBinned, Bins: VoteBins}},
	}
	for _, k := range []int{1, 3, 8, numAttrs} {
		rows = append(rows, row{"vote",
			scalparc.Options{Split: scalparc.SplitVote, Bins: VoteBins, VoteK: k}})
	}

	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\truntime\tnodes\tFindSplitI ops\tFindSplitI sent\theld-out accuracy")
	var points []VotePoint
	for _, r := range rows {
		pt, _, err := voteMeasure(r.mode, r.opts, train, test, VoteProcs)
		if err != nil {
			return nil, err
		}
		name := pt.Mode
		switch pt.Mode {
		case "binned":
			name = fmt.Sprintf("binned B=%d", VoteBins)
		case "vote":
			name = fmt.Sprintf("vote k=%d", pt.VoteK)
		}
		fmt.Fprintf(tw, "%s\t%.3fs\t%d\t%d\t%.1fKB\t%.4f\n",
			name, pt.ModeledSeconds, pt.Nodes, pt.FindSplitOps,
			float64(pt.FindSplitBytes)/1e3, pt.Accuracy)
		points = append(points, pt)
	}
	tw.Flush()
	return points, nil
}

// Vote runs and records EXP-VOTE: exact vs binned vs top-k voting on the
// pinned wide scenario, appending a labeled run to dir's BENCH_vote.json
// and printing the resulting trajectory. The measurements ride the
// deterministic virtual clocks, so successive runs of the same source
// record identical points — drift in the trajectory is a code change, not
// host noise.
func Vote(w io.Writer, dir, label string) error {
	fmt.Fprintf(w, "EXP-VOTE — split finding on a wide schema (%s records, %d attributes, %d processors; appending to %s)\n",
		human(VoteRecords), 7+VoteNoise, VoteProcs, VoteFile)
	train, test, err := voteTables()
	if err != nil {
		return err
	}
	if label == "" {
		label = "measured " + time.Now().UTC().Format("2006-01-02")
	}
	run := VoteRun{
		Label:     label,
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Records:   VoteRecords,
		Attrs:     train.Schema.NumAttrs(),
	}
	run.Points, err = voteSweepPoints(w, train, test)
	if err != nil {
		return err
	}

	path := filepath.Join(dir, VoteFile)
	traj, err := loadTrajectory(path, VoteTrajectory{Experiment: "EXP-VOTE", Notes: voteNotes})
	if err != nil {
		return err
	}
	traj.Runs = append(traj.Runs, run)
	if err := saveTrajectory(path, traj); err != nil {
		return err
	}

	fmt.Fprintln(w, "\ntrajectory (vote k=3 point: FindSplitI bytes, accuracy):")
	for i := range traj.Runs {
		r := &traj.Runs[i]
		line := fmt.Sprintf("  %-38s", r.Label)
		for _, pt := range r.Points {
			if pt.Mode == "vote" && pt.VoteK == 3 {
				line += fmt.Sprintf("  %8.1fKB  acc %.4f", float64(pt.FindSplitBytes)/1e3, pt.Accuracy)
			}
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

// GUARD-VOTE thresholds: the byte gate demands voting at least halve the
// binned FindSplitI volume on the wide scenario, and the fidelity gate
// holds the held-out accuracy within one percentage point of the exact
// tree's.
const (
	voteGuardByteFactor  = 2.0
	voteGuardAccuracyGap = 0.01
)

// writeVoteArtifact dumps the failing vote run's per-rank virtual
// timelines as a Chrome trace into VOTE_ARTIFACT_DIR (CI uploads it on
// guard failure), so a tripped gate leaves the full per-phase
// communication picture behind, not just the two totals.
func writeVoteArtifact(tr *trace.Trace) error {
	dir := os.Getenv("VOTE_ARTIFACT_DIR")
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "vote_guard_trace.json"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.WriteChrome(f)
}

// VoteGuard runs and prints GUARD-VOTE, the CI regression gate for the
// voting FindSplit path. On the pinned wide scenario it verifies, in
// order: the degeneracy proof (k >= attrs reproduces the binned tree
// exactly), processor-invariance of the small-k tree across {1,2,4,8}
// ranks, at least a 2x FindSplitI byte reduction against binned mode at
// p=4, and held-out accuracy within a percentage point of the exact
// tree's. It returns an error — failing CI — if any gate regresses; the
// failing vote run's Chrome trace lands in VOTE_ARTIFACT_DIR for CI to
// upload.
func VoteGuard(w io.Writer) error {
	fmt.Fprintf(w, "GUARD-VOTE — top-k voting must beat binned on a wide schema (%s records, %d attributes, %d processors)\n",
		human(VoteRecords), 7+VoteNoise, VoteProcs)
	train, test, err := voteTables()
	if err != nil {
		return err
	}
	numAttrs := train.Schema.NumAttrs()

	exact, _, err := voteMeasure("exact", scalparc.Options{}, train, test, VoteProcs)
	if err != nil {
		return err
	}
	binned, binnedRes, err := voteMeasure("binned",
		scalparc.Options{Split: scalparc.SplitBinned, Bins: VoteBins}, train, test, VoteProcs)
	if err != nil {
		return err
	}
	voteOpts := scalparc.Options{Split: scalparc.SplitVote, Bins: VoteBins, VoteK: 3}
	vote, voteRes, err := voteMeasure("vote", voteOpts, train, test, VoteProcs)
	if err != nil {
		return err
	}
	_, degenRes, err := voteMeasure("vote",
		scalparc.Options{Split: scalparc.SplitVote, Bins: VoteBins, VoteK: numAttrs}, train, test, VoteProcs)
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tnodes\tFindSplitI ops\tFindSplitI sent\theld-out accuracy")
	for _, pt := range []VotePoint{exact, binned, vote} {
		name := pt.Mode
		switch pt.Mode {
		case "binned":
			name = fmt.Sprintf("binned B=%d", VoteBins)
		case "vote":
			name = fmt.Sprintf("vote k=%d", pt.VoteK)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1fKB\t%.4f\n",
			name, pt.Nodes, pt.FindSplitOps, float64(pt.FindSplitBytes)/1e3, pt.Accuracy)
	}
	tw.Flush()

	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("vote guard: "+format, args...))
	}

	// Gate 1: with k >= attrs every attribute is nominated everywhere, the
	// election is the full set, and the vote tree must be the binned tree.
	if !degenRes.Tree.Equal(binnedRes.Tree) {
		fail("degeneracy regression — k=%d vote tree differs from binned", numAttrs)
	}

	// Gate 2: the small-k tree must not depend on the processor count in
	// the pinned large-node regime (DESIGN.md §10).
	for _, p := range []int{1, 2, 8} {
		_, res, err := voteMeasure("vote", voteOpts, train, test, p)
		if err != nil {
			return err
		}
		if !res.Tree.Equal(voteRes.Tree) {
			fail("processor-variance regression — k=%d vote tree at p=%d differs from p=%d's", voteOpts.VoteK, p, VoteProcs)
		}
	}

	// Gate 3: voting must cut the wide schema's FindSplitI bytes at least
	// in half against the same-resolution binned exchange.
	if float64(vote.FindSplitBytes)*voteGuardByteFactor > float64(binned.FindSplitBytes) {
		fail("FindSplitI byte regression — vote %d > binned %d / %.0f",
			vote.FindSplitBytes, binned.FindSplitBytes, voteGuardByteFactor)
	}

	// Gate 4: the double approximation (binning, then electing candidates)
	// must stay within a point of the exact tree on held-out data.
	if gap := vote.Accuracy - exact.Accuracy; gap < -voteGuardAccuracyGap || gap > voteGuardAccuracyGap {
		fail("accuracy regression — vote %.4f vs exact %.4f (gap > %.0f%%)",
			vote.Accuracy, exact.Accuracy, voteGuardAccuracyGap*100)
	}

	if len(errs) > 0 {
		if aerr := writeVoteArtifact(voteRes.Trace); aerr != nil {
			errs = append(errs, fmt.Errorf("writing vote trace artifact: %w", aerr))
		}
		return errors.Join(errs...)
	}
	fmt.Fprintf(w, "ok: k>=attrs tree identical to binned, k=3 tree p-invariant, %.2fx fewer FindSplitI bytes than binned, accuracy within %.0f%% of exact\n",
		float64(binned.FindSplitBytes)/float64(vote.FindSplitBytes), voteGuardAccuracyGap*100)
	return nil
}
