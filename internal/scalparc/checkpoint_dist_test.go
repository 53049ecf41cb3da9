package scalparc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
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

// distPut writes one rank's frames through the store, failing the test on
// a persistence error (the production path surfaces it via Err()).
func distPut(t *testing.T, s *CheckpointStore, level, writer, writers int, shared, frag []byte) {
	t.Helper()
	s.put(level, writer, writers, shared, frag)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestDistCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, false)
	if ck := s.Latest(); ck != nil {
		t.Fatalf("empty store returned checkpoint %+v", ck)
	}
	const writers = 3
	for w := 0; w < writers; w++ {
		var shared []byte
		if w == 0 {
			shared = []byte("shared-L2")
		}
		distPut(t, s, 2, w, writers, shared, fmt.Appendf(nil, "frag-%d", w))
	}
	ck := s.Latest()
	if ck == nil {
		t.Fatal("complete frame set not found")
	}
	if ck.Level != 2 || ck.Writers != writers || !bytes.Equal(ck.Shared, []byte("shared-L2")) {
		t.Fatalf("checkpoint %+v", ck)
	}
	for w := 0; w < writers; w++ {
		if want := fmt.Sprintf("frag-%d", w); string(ck.Frags[w]) != want {
			t.Fatalf("frag %d = %q, want %q", w, ck.Frags[w], want)
		}
	}
}

// TestDistCheckpointSkipsIncompleteSets: a save a crash interrupted —
// missing a fragment, or missing the shared frame — must never be
// returned; Latest falls back to the older complete set.
func TestDistCheckpointSkipsIncompleteSets(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, false)
	const writers = 2
	for w := 0; w < writers; w++ {
		var shared []byte
		if w == 0 {
			shared = []byte("ok")
		}
		distPut(t, s, 1, w, writers, shared, []byte{byte(w)})
	}
	// Level 3: fragment from rank 1 only — rank 0 (and its shared frame)
	// died mid-save.
	distPut(t, s, 3, 1, writers, nil, []byte("orphan frag"))
	// Level 4: shared plus rank 0's fragment, rank 1's missing.
	distPut(t, s, 4, 0, writers, []byte("torn"), []byte("half"))

	ck := s.Latest()
	if ck == nil || ck.Level != 1 {
		t.Fatalf("Latest = %+v, want the complete level-1 set", ck)
	}
}

// TestDistCheckpointPrefersNewestComplete: max level wins; on a level
// tie (saves before and after a shrink), the larger writer count wins.
func TestDistCheckpointPrefersNewestComplete(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, false)
	put := func(level, writers int, tag string) {
		for w := 0; w < writers; w++ {
			var shared []byte
			if w == 0 {
				shared = []byte("s-" + tag)
			}
			distPut(t, s, level, w, writers, shared, []byte(tag))
		}
	}
	put(1, 3, "old")
	put(5, 2, "shrunk")
	put(5, 3, "full")
	ck := s.Latest()
	if ck == nil || ck.Level != 5 || ck.Writers != 3 || string(ck.Shared) != "s-full" {
		t.Fatalf("Latest = %+v, want the 3-writer level-5 set", ck)
	}
}

// TestDistCheckpointClearVsResume: constructing without resume clears a
// previous run's frames (stale state must never masquerade as this
// run's); constructing with resume preserves them — that is what the
// coordinator's respawn relies on.
func TestDistCheckpointClearVsResume(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, false)
	distPut(t, s, 0, 0, 1, []byte("shared"), []byte("frag"))
	if s.Latest() == nil {
		t.Fatal("frame set not written")
	}
	// Unrelated files in the checkpoint dir must survive a clear; the temp
	// file of a save that was killed mid-write must not.
	bystander := filepath.Join(dir, "notes.txt")
	litter := filepath.Join(dir, sharedName(7, 2)+".123456.tmp")
	for _, path := range []string{bystander, litter} {
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
	if _, err := os.Stat(litter); err == nil {
		t.Fatal("clearing frames left an interrupted save's temp file behind")
	}
}

// TestCheckpointDirKeepsTwoLevels: the directory does not grow by a frame
// set per level. After a run of at least four levels — fault-free, and with
// a crash that shrinks the world so later sets have fewer writers — only
// two levels' sets remain: the newest, and the one a torn save of it would
// fall back to. The newest still loads.
func TestCheckpointDirKeepsTwoLevels(t *testing.T) {
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
		levels, newest := map[int]bool{}, -1
		for _, e := range entries {
			var level int
			if n, _ := fmt.Sscanf(e.Name(), "ck-L%06d-", &level); n == 1 {
				levels[level], newest = true, max(newest, level)
			}
		}
		if len(levels) > 2 {
			t.Errorf("%s: %d levels' frame sets left after %d levels, want at most 2", name, len(levels), res.Levels)
		}
		if ck := (&CheckpointStore{dir: dir}).Latest(); ck == nil || ck.Level != newest {
			t.Errorf("%s: newest complete set %+v, want level %d", name, ck, newest)
		}
	}
}

// TestResumeOnSimulatedWorld: the frame files are one format for every
// world, so a simulated world resumes from them like a respawned TCP job
// does. A run checkpointed to completion, resumed by a fresh world over the
// same directory — at the writers' size and at a smaller one — continues
// from the last frame set (no presort) and returns the byte-identical tree,
// under each split finder.
func TestResumeOnSimulatedWorld(t *testing.T) {
	cfg := splitter.Config{}.Normalize()
	wide := wideVoteTable(t, 3, 31, 240, 24)
	for name, tc := range map[string]struct {
		tab  *dataset.Table
		opts Options
	}{
		"exact":  {faultTestTable(t), Options{}},
		"binned": {faultTestTable(t), Options{Split: SplitBinned, Bins: 16}},
		"vote":   {wide, Options{Split: SplitVote, Bins: 16, VoteK: wide.Schema.NumAttrs()}},
	} {
		const p = 3
		tc.opts.CheckpointDir = t.TempDir()
		full, err := TrainOpts(comm.NewWorld(p, timing.T3D()), tc.tab, cfg, tc.opts)
		if err != nil {
			t.Fatalf("%s: checkpointed run: %v", name, err)
		}
		if full.Levels < 3 {
			t.Fatalf("%s: only %d levels; the resume would have nothing left to restore", name, full.Levels)
		}
		want := encodeTree(t, full.Tree)
		tc.opts.Resume = true
		for _, q := range []int{p, p - 1} {
			res, err := TrainOpts(comm.NewWorld(q, timing.T3D()), tc.tab, cfg, tc.opts)
			if err != nil {
				t.Fatalf("%s: resume at p=%d: %v", name, q, err)
			}
			if !bytes.Equal(encodeTree(t, res.Tree), want) {
				t.Errorf("%s: tree resumed at p=%d differs from the run that wrote the checkpoint", name, q)
			}
			if res.PresortModeledSeconds != 0 {
				t.Errorf("%s: resume at p=%d presorted (%.3gs modeled): it replayed instead of restoring", name, q, res.PresortModeledSeconds)
			}
		}
	}
	if _, err := TrainOpts(comm.NewWorld(2, timing.T3D()), faultTestTable(t), cfg, Options{Resume: true}); err == nil {
		t.Error("Resume without a CheckpointDir accepted")
	}
}
