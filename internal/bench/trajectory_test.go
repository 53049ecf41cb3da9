package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrajectoryFiles pins the one trajectory type against all seven
// checked-in BENCH_*.json: each loads through it and re-saves byte for byte,
// and each experiment's first run into an empty directory creates a file
// carrying that experiment's own id and notes.
func TestTrajectoryFiles(t *testing.T) {
	for _, tc := range []struct {
		file  trajectoryFile
		check func(*testing.T, trajectoryFile)
	}{
		{inductionFile, checkTrajectoryFile[BenchRun]},
		{scanFile, checkTrajectoryFile[BenchRun]},
		{predictFile, checkTrajectoryFile[BenchRun]},
		{serveFile, checkTrajectoryFile[ServeRun]},
		{tcpFile, checkTrajectoryFile[TCPRun]},
		{voteFile, checkTrajectoryFile[VoteRun]},
		{forestFile, checkTrajectoryFile[ForestRun]},
	} {
		t.Run(tc.file.name, func(t *testing.T) { tc.check(t, tc.file) })
	}
}

func checkTrajectoryFile[R hosted](t *testing.T, f trajectoryFile) {
	repoRoot := filepath.Join("..", "..")
	checkedIn, err := os.ReadFile(filepath.Join(repoRoot, f.name))
	if err != nil {
		t.Fatal(err)
	}
	traj, err := loadTrajectory[R](repoRoot, f)
	if err != nil {
		t.Fatal(err)
	}
	if traj.Experiment != f.experiment || traj.Notes != f.notes {
		t.Errorf("checked-in header = %q / %q, a fresh file would get %q / %q",
			traj.Experiment, traj.Notes, f.experiment, f.notes)
	}
	if len(traj.Runs) == 0 || traj.Baseline() != &traj.Runs[0] || traj.Latest() != &traj.Runs[len(traj.Runs)-1] {
		t.Fatalf("Baseline/Latest point at the wrong runs of %d", len(traj.Runs))
	}
	dir := t.TempDir()
	if err := saveJSON(filepath.Join(dir, f.name), traj); err != nil {
		t.Fatal(err)
	}
	if resaved, _ := os.ReadFile(filepath.Join(dir, f.name)); !bytes.Equal(resaved, checkedIn) {
		t.Errorf("re-saving %s changes its bytes", f.name)
	}

	// A first run into an empty directory, then a second on top of it.
	fresh := t.TempDir()
	var out bytes.Buffer
	for want := 1; want <= 2; want++ {
		saved, err := record(&out, fresh, f, *traj.Latest(), "header", func(i int, _ *R) string { return " row" })
		if err != nil {
			t.Fatal(err)
		}
		if saved.Experiment != f.experiment || saved.Notes != f.notes || len(saved.Runs) != want {
			t.Fatalf("after run %d the fresh file holds %q / %d runs", want, saved.Experiment, len(saved.Runs))
		}
	}
	back, err := loadTrajectory[R](fresh, f)
	if err != nil {
		t.Fatal(err)
	}
	if back.Experiment != f.experiment || back.Notes != f.notes || len(back.Runs) != 2 {
		t.Fatalf("fresh file reloads as %q / %d runs", back.Experiment, len(back.Runs))
	}
	label := (*traj.Latest()).host().Label
	if got := strings.Count(out.String(), "  "+label); got != 3 || !strings.Contains(out.String(), "\nheader\n") {
		t.Errorf("record printed %d labeled lines, want 1 + 2 under the header:\n%s", got, out.String())
	}
}
