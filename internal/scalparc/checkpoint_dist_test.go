package scalparc

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
)

// openStore opens a file-backed store on dir the way TrainOpts does: a
// fresh run clears the previous run's frames, a resuming one keeps them.
func openStore(t *testing.T, dir string, resume bool) *CheckpointStore {
	t.Helper()
	s, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !resume {
		s.clearFrames()
	}
	return s
}

// distPut writes a level's frame through the store, failing the test on a
// persistence error (the production path surfaces it via Err()).
func distPut(t *testing.T, s *CheckpointStore, level int, shared []byte) {
	t.Helper()
	s.put(level, shared)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDistCheckpointRoundTrip: the newest frame that reads back is the
// checkpoint. A save prunes every older level; an interrupted save's temp
// file names no frame, and a newer frame that cannot be read gives way to
// the one before it.
func TestDistCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, false)
	if ck := s.Latest(); ck != nil {
		t.Fatalf("empty store returned checkpoint %+v", ck)
	}
	distPut(t, s, 1, []byte("old"))
	distPut(t, s, 5, []byte("new"))
	if _, err := os.Stat(filepath.Join(dir, sharedName(1))); err == nil {
		t.Fatal("level 5's save left level 1's frame behind")
	}
	// Level 6: a save killed before its rename. Level 7: a frame path that
	// is not a readable file.
	if err := os.WriteFile(filepath.Join(dir, sharedName(6)+".123456.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, sharedName(7)), 0o755); err != nil {
		t.Fatal(err)
	}
	if ck := s.Latest(); ck == nil || ck.Level != 5 || !bytes.Equal(ck.Shared, []byte("new")) {
		t.Fatalf("Latest = %+v, want level 5's frame", ck)
	}
}

// TestDistCheckpointClearVsResume: constructing without resume clears a
// previous run's frames (stale state must never masquerade as this
// run's); constructing with resume preserves them — that is what the
// coordinator's respawn relies on.
func TestDistCheckpointClearVsResume(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, false)
	distPut(t, s, 0, []byte("shared"))
	if s.Latest() == nil {
		t.Fatal("frame not written")
	}
	// Unrelated files in the checkpoint dir must survive a clear; the temp
	// file of a save that was killed mid-write must not, nor a frame file of
	// another format.
	bystander := filepath.Join(dir, "notes.txt")
	litter := filepath.Join(dir, sharedName(7)+".123456.tmp")
	stale := filepath.Join(dir, "ck-L000003-W002-w001.frag")
	for _, path := range []string{bystander, litter, stale} {
		if err := os.WriteFile(path, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r := openStore(t, dir, true)
	if ck := r.Latest(); ck == nil || string(ck.Shared) != "shared" {
		t.Fatalf("resume store lost the previous run's checkpoint: %+v", ck)
	}

	f := openStore(t, dir, false)
	if ck := f.Latest(); ck != nil {
		t.Fatalf("fresh store kept a stale checkpoint: %+v", ck)
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Fatalf("clearing frames removed an unrelated file: %v", err)
	}
	for _, path := range []string{litter, stale} {
		if _, err := os.Stat(path); err == nil {
			t.Fatalf("clearing frames left %s behind", filepath.Base(path))
		}
	}
}

// TestCheckpointDirKeepsOneLevel: every save prunes the levels before it.
// After a run of at least four levels — fault-free, and with a crash that
// shrinks the world — the directory holds exactly one file, the newest
// level's frame, and it loads.
func TestCheckpointDirKeepsOneLevel(t *testing.T) {
	tab, err := datagen.Generate(datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: 1}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := splitter.Config{}.Normalize()
	const p = 3
	crash := faults.NewSchedule(p, faults.Event{Rank: 1, Phase: trace.FindSplitI, Level: 2, Kind: faults.Crash})
	for name, inj := range map[string]comm.FaultInjector{"fault-free": nil, "crash": crash} {
		dir := t.TempDir()
		res, err := TrainOpts(comm.NewWorld(p, timing.T3D()), tab, cfg, Options{CheckpointDir: dir, Faults: inj})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Levels < 4 {
			t.Fatalf("%s: only %d levels; too few to tell pruning from a short run", name, res.Levels)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		// The last level leaves no frontier, so the last save is the level
		// before it.
		if want := sharedName(res.Levels - 1); len(entries) != 1 || entries[0].Name() != want {
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Errorf("%s: checkpoint dir holds %v after %d levels, want only %s", name, names, res.Levels, want)
		}
		if ck := (&CheckpointStore{dir: dir}).Latest(); ck == nil || ck.Level != res.Levels-1 {
			t.Errorf("%s: newest frame %+v, want level %d", name, ck, res.Levels-1)
		}
	}
}
