package main

// Chaos tests for the TCP backend: inject network-shaped faults (hung
// NICs, torn connections, delays) into real worker processes and assert
// the run still terminates within a detection-bounded window with the
// byte-identical tree of a fault-free run. TestTCPChaosHangFindSplitI is
// the always-on CI gate; the full kind x site x procs sweep runs under
// CHAOS_TCP=1 (make chaos-tcp).

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// dumpChaosTCP preserves a failing chaos run's coordinator output, tree
// file and Chrome trace (every survivor's timeline) in $CHAOS_ARTIFACT_DIR
// (set by `make chaos-tcp` in CI), so the evidence survives as a build
// artifact. Registered as a cleanup; a passing test writes nothing.
func dumpChaosTCP(t *testing.T, label string, out *bytes.Buffer, files ...string) {
	t.Cleanup(func() {
		dir := os.Getenv("CHAOS_ARTIFACT_DIR")
		if dir == "" || !t.Failed() {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("chaos artifact dir: %v", err)
			return
		}
		if err := os.WriteFile(filepath.Join(dir, label+".out.txt"), out.Bytes(), 0o644); err != nil {
			t.Logf("chaos artifact: %v", err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				continue // a missing tree file is itself the failure
			}
			dst := filepath.Join(dir, label+"-"+filepath.Base(f))
			if err := os.WriteFile(dst, data, 0o644); err != nil {
				t.Logf("chaos artifact: %v", err)
			}
		}
		t.Logf("wrote chaos artifacts for %s to %s", label, dir)
	})
}

// runChaos runs the CLI into out and appends a returned error there too,
// so a failing run's artifact ends with how every rank ended (Wait's
// error lists each rank's verdict, as do the "tcp attempt N failed" lines
// above it).
func runChaos(args []string, out *bytes.Buffer) error {
	err := run(args, out)
	if err != nil {
		fmt.Fprintln(out, "scalparc:", err)
	}
	return err
}

// chaosOracle trains the fault-free tree on the simulated backend and
// returns its -json-out bytes plus the wall time of the clean run, the
// baseline for the bounded-completion assertions.
func chaosOracle(t *testing.T, base []string, dir string) ([]byte, time.Duration) {
	t.Helper()
	path := filepath.Join(dir, "clean.json")
	args := append(append([]string(nil), base...), "-json-out", path)
	start := time.Now()
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	elapsed := time.Since(start)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, elapsed
}

// TestTCPChaosHangFindSplitI is the headline chaos scenario from the
// detection design: one worker process hangs (NIC silenced, process
// alive) in the middle of FindSplitI. Without heartbeats the run would
// block forever on the collective; with -detect-timeout the survivors
// must suspect the rank within the timeout, shrink, restore the last
// checkpoint, and finish with the oracle's exact tree — all inside a
// detection-bounded wall-clock window.
func TestTCPChaosHangFindSplitI(t *testing.T) {
	const detect = 500 * time.Millisecond
	dir := t.TempDir()
	base := []string{"-quest-function", "2", "-records", "2000", "-seed", "7", "-procs", "3"}
	clean, cleanWall := chaosOracle(t, base, dir)

	hungPath := filepath.Join(dir, "hung.json")
	tracePath := filepath.Join(dir, "hung-trace.json")
	args := append(append([]string(nil), base...),
		"-transport", "tcp", "-detect-timeout", detect.String(),
		"-checkpoint", filepath.Join(dir, "ck"),
		"-faults", "hang@FindSplitI:2:1", "-json-out", hungPath, "-trace", tracePath)
	var out bytes.Buffer
	dumpChaosTCP(t, "hang-findsplit-gate", &out, hungPath, tracePath)
	start := time.Now()
	if err := runChaos(args, &out); err != nil {
		t.Fatalf("hung run: %v\n%s", err, out.String())
	}
	elapsed := time.Since(start)

	// The acceptance bound is 2*detect + normal runtime; the wall-clock
	// budget below is that bound with generous scheduling slack (worker
	// processes re-exec, compile nothing, but do re-read flags and respawn
	// under CI load). What it must never be is unbounded: pre-detection
	// this test would hang until the go test timeout.
	if budget := 10*cleanWall + 2*detect + 15*time.Second; elapsed > budget {
		t.Fatalf("hung run took %v, budget %v (clean %v, detect %v)", elapsed, budget, cleanWall, detect)
	}
	s := out.String()
	for _, want := range []string{
		"recovered from 1 failure(s)",
		"finished on 2 processors",
		"peer failure(s) detected by heartbeat timeout",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	hung, err := os.ReadFile(hungPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, hung) {
		t.Fatal("recovered tree differs from the fault-free oracle")
	}
}

// TestTCPOrphanRespawnFromCheckpoint exercises the coordinator's
// supervisor loop: at p=2 a hung rank leaves its peer with no quorum —
// the survivor aborts as orphaned rather than continuing alone on stale
// membership — so the attempt dies wholesale and the coordinator must
// respawn the surviving world size from the last on-disk checkpoint.
func TestTCPOrphanRespawnFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-quest-function", "1", "-records", "1200", "-seed", "3", "-procs", "2"}
	clean, _ := chaosOracle(t, base, dir)

	outPath := filepath.Join(dir, "respawn.json")
	tracePath := filepath.Join(dir, "respawn-trace.json")
	args := append(append([]string(nil), base...),
		"-transport", "tcp", "-detect-timeout", "400ms",
		"-checkpoint", filepath.Join(dir, "ck"),
		"-faults", "hang@FindSplitI:1:1", "-json-out", outPath, "-trace", tracePath)
	var out bytes.Buffer
	dumpChaosTCP(t, "orphan-respawn", &out, outPath, tracePath)
	if err := runChaos(args, &out); err != nil {
		t.Fatalf("respawn run: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "respawning 1 survivor(s) from checkpoint") {
		t.Fatalf("coordinator did not report a respawn:\n%s", s)
	}
	if !strings.Contains(s, "finished on 1 processors") {
		t.Fatalf("respawned run did not finish solo:\n%s", s)
	}
	// The report speaks of the run the user asked for, not the respawn.
	for _, want := range []string{"lost ranks [1]", "on 2 processors"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, got) {
		t.Fatal("respawned tree differs from the fault-free oracle")
	}
}

// TestTCPChaosSweep is the full chaos matrix (make chaos-tcp): every
// wire-only fault kind at phase-boundary sites, p in {2,4}, each run
// required to terminate and produce the oracle's byte-identical tree.
// Gated on CHAOS_TCP=1 because it launches dozens of worker processes.
func TestTCPChaosSweep(t *testing.T) {
	if os.Getenv("CHAOS_TCP") == "" {
		t.Skip("set CHAOS_TCP=1 (or run make chaos-tcp) for the full sweep")
	}
	const detect = "400ms"
	cases := []struct {
		name string
		spec string // %d fills the struck rank
	}{
		// Hangs at both induction phase boundaries.
		{"hang-findsplit", "hang@FindSplitI:1:%d"},
		{"hang-performsplit", "hang@PerformSplitII:1:%d"},
		// Torn and delayed connections to rank 0.
		{"reset", "reset@FindSplitI:1:%d:0"},
		{"truncate", "truncate@PerformSplitII:1:%d:0"},
		{"delay-benign", "delay@FindSplitII:1:%d:0:50ms"},
	}
	for _, procs := range []int{2, 4} {
		dir := t.TempDir()
		base := []string{"-quest-function", "2", "-records", "1500", "-seed", "5",
			"-procs", fmt.Sprint(procs)}
		clean, _ := chaosOracle(t, base, dir)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("p%d-%s", procs, tc.name), func(t *testing.T) {
				victim := procs - 1
				outPath := filepath.Join(dir, tc.name+".json")
				tracePath := filepath.Join(dir, tc.name+"-trace.json")
				args := append(append([]string(nil), base...),
					"-transport", "tcp", "-detect-timeout", detect,
					"-checkpoint", filepath.Join(dir, "ck-"+tc.name),
					"-faults", fmt.Sprintf(tc.spec, victim), "-json-out", outPath, "-trace", tracePath)
				var out bytes.Buffer
				dumpChaosTCP(t, fmt.Sprintf("p%d-%s", procs, tc.name), &out, outPath, tracePath)
				if err := runChaos(args, &out); err != nil {
					t.Fatalf("chaos run: %v\n%s", err, out.String())
				}
				got, err := os.ReadFile(outPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(clean, got) {
					t.Fatalf("tree differs from the fault-free oracle\n%s", out.String())
				}
				if tc.name == "delay-benign" && strings.Contains(out.String(), "recovered from") {
					t.Fatalf("a sub-timeout delay triggered a recovery:\n%s", out.String())
				}
			})
		}
	}
}
