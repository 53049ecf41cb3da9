package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/comm/tcptransport"
)

// TestMain lets the test binary serve as the rank-worker re-exec target:
// tcptransport.Launch re-executes the current executable, which in a
// test process is the test binary itself. Worker invocations run the
// real CLI entry point and exit with main's verdict status before the
// testing framework takes over.
func TestMain(m *testing.M) {
	if tcptransport.IsWorker() {
		os.Exit(exitStatus(run(os.Args[1:], io.Discard)))
	}
	os.Exit(m.Run())
}

// TestTCPDifferential is the end-to-end transport differential: train
// the same Quest dataset on the simulated backend and on real worker
// processes over localhost TCP, and assert the induced trees are
// byte-identical at each processor count, and so is every per-rank
// figure the coordinator reports: the phase table, the Chrome trace, and
// the peak-memory and traffic line.
func TestTCPDifferential(t *testing.T) {
	dir := t.TempDir()
	for _, procs := range []int{2, 4} {
		base := []string{"-quest-function", "3", "-records", "3000", "-seed", "11",
			"-procs", fmt.Sprint(procs), "-phases"}
		outs, trees, traces := map[string]string{}, map[string][]byte{}, map[string][]byte{}
		for _, backend := range []string{"sim", "tcp"} {
			treePath := filepath.Join(dir, fmt.Sprintf("%s-%d.json", backend, procs))
			tracePath := filepath.Join(dir, fmt.Sprintf("%s-%d-trace.json", backend, procs))
			args := append(append([]string(nil), base...), "-transport="+backend,
				"-json-out", treePath, "-trace", tracePath)
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("p=%d %s: %v", procs, backend, err)
			}
			outs[backend] = out.String()
			trees[backend], traces[backend] = readFile(t, treePath), readFile(t, tracePath)
		}
		if !bytes.Equal(trees["sim"], trees["tcp"]) {
			t.Fatalf("p=%d: trees diverged between backends\nsim: %s\ntcp: %s", procs, trees["sim"], trees["tcp"])
		}
		if !bytes.Equal(traces["sim"], traces["tcp"]) {
			t.Fatalf("p=%d: Chrome traces diverged between backends", procs)
		}
		// The backends must also agree on the modeled machine: same
		// deterministic runtime to the picosecond, and every rank's memory,
		// traffic and phase buckets.
		for _, substr := range []string{"modeled runtime", "peak memory"} {
			simLine, tcpLine := pick(outs["sim"], substr), pick(outs["tcp"], substr)
			if simLine == "" || simLine != tcpLine {
				t.Fatalf("p=%d: %q lines diverged:\nsim: %q\ntcp: %q", procs, substr, simLine, tcpLine)
			}
		}
		simTable, tcpTable := phaseTable(outs["sim"]), phaseTable(outs["tcp"])
		if simTable == "" || simTable != tcpTable {
			t.Fatalf("p=%d: phase tables diverged:\nsim:\n%s\ntcp:\n%s", procs, simTable, tcpTable)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// phaseTable returns the -phases report in a run's output: from its
// heading up to the line announcing the Chrome trace.
func phaseTable(out string) string {
	_, table, _ := strings.Cut(out, "phase breakdown")
	table, _, _ = strings.Cut(table, "wrote Chrome trace")
	return table
}

// pick returns the (trimmed) first output line containing the substring,
// stripping the wall-clock figure, which is real time and never
// reproducible.
func pick(out, substr string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, substr) {
			if i := strings.Index(line, ", wall"); i >= 0 {
				line = line[:i]
			}
			return strings.TrimSpace(line)
		}
	}
	return ""
}

// TestTCPDetectTimeoutWaitsForResultWriter: a fault-free run under a short
// -detect-timeout must not be reaped while the result writer encodes a big
// tree. The non-writer finishes long before rank 0 publishes (this table's
// tree is ~238k nodes, ~17 MB of JSON), and a peer's plain finish must
// not start the watchdog's grace clock; the tree is the one the same run
// without detection induces.
func TestTCPDetectTimeoutWaitsForResultWriter(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-quest-function", "5", "-records", "600000", "-noise", "0.4", "-procs", "2", "-transport=tcp"}
	trees := map[string][]byte{}
	for _, variant := range []string{"fail-stop", "detect"} {
		path := filepath.Join(dir, variant+".json")
		args := append(append([]string(nil), base...), "-json-out", path)
		if variant == "detect" {
			args = append(args, "-detect-timeout", "100ms")
		}
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("%s run: %v", variant, err)
		}
		trees[variant] = readFile(t, path)
	}
	if !bytes.Equal(trees["fail-stop"], trees["detect"]) {
		t.Fatal("the -detect-timeout tree differs from the fail-stop one")
	}
}

// TestTCPCrashRecovery kills one worker process mid-training with an
// injected fault and expects the survivors to shrink, replay, and
// deliver the same tree a fault-free run induces. The run is also
// diagnosed from its Chrome trace alone: each survivor's thread must show
// that it detected the failure and joined the shrink.
func TestTCPCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-quest-function", "2", "-records", "2000", "-seed", "7", "-procs", "3"}
	cleanPath := filepath.Join(dir, "clean.json")
	crashPath := filepath.Join(dir, "crash.json")
	tracePath := filepath.Join(dir, "crash-trace.json")
	cleanArgs := append(append([]string(nil), base...), "-json-out", cleanPath)
	crashArgs := append(append([]string(nil), base...), "-transport=tcp",
		"-faults", "crash@FindSplitI:2:1", "-json-out", crashPath, "-trace", tracePath)
	if err := run(cleanArgs, io.Discard); err != nil {
		t.Fatalf("clean: %v", err)
	}
	var out bytes.Buffer
	if err := run(crashArgs, &out); err != nil {
		t.Fatalf("crash: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "recovered from 1 failure(s)") || !strings.Contains(s, "finished on 2 processors") {
		t.Fatalf("crash run did not report recovery:\n%s", s)
	}
	if !bytes.Equal(readFile(t, cleanPath), readFile(t, crashPath)) {
		t.Fatal("post-recovery tree differs from the fault-free tree")
	}

	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(readFile(t, tracePath), &chrome); err != nil {
		t.Fatalf("parsing the Chrome trace: %v", err)
	}
	instants := map[string]bool{} // "tid name"
	for _, e := range chrome.TraceEvents {
		if e.Ph == "i" {
			instants[fmt.Sprint(e.Tid, " ", e.Name)] = true
		}
	}
	for _, survivor := range []int{0, 2} {
		for _, name := range []string{"fault:detected", "recovery:shrink"} {
			if !instants[fmt.Sprint(survivor, " ", name)] {
				t.Errorf("rank %d's thread has no %q event; instant events: %v", survivor, name, instants)
			}
		}
	}
}

// TestTCPForest: a forest trains tree after tree on one world, so over TCP
// every tree runs across the worker processes, and the forest file, the
// summary lines and the accuracy lines are the simulated run's (wall time
// masked). A crash is recovered inside its tree without changing the
// forest, and a -checkpoint rerun restores every tree.
func TestTCPForest(t *testing.T) {
	dir := t.TempDir()
	for _, procs := range []int{2, 3} {
		base := []string{"-quest-function", "2", "-records", "2000", "-seed", "5",
			"-procs", fmt.Sprint(procs), "-forest", "3", "-feature-sample", "3"}
		outs, forests := map[string]string{}, map[string][]byte{}
		for _, variant := range []string{"sim", "tcp", "tcp-crash"} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", variant, procs))
			args := append(append([]string(nil), base...), "-json-out", path)
			switch variant {
			case "tcp":
				args = append(args, "-transport=tcp")
			case "tcp-crash":
				args = append(args, "-transport=tcp", "-faults", "crash@FindSplitI:1:1")
			}
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("p=%d %s: %v", procs, variant, err)
			}
			outs[variant], forests[variant] = out.String(), readFile(t, path)
		}
		for _, variant := range []string{"tcp", "tcp-crash"} {
			if !bytes.Equal(forests["sim"], forests[variant]) {
				t.Fatalf("p=%d: the %s forest differs from the simulated one", procs, variant)
			}
		}
		if !strings.Contains(outs["tcp-crash"], "recovered from") {
			t.Fatalf("p=%d: the crash run reports no recovery:\n%s", procs, outs["tcp-crash"])
		}
		wall := regexp.MustCompile(`wall [0-9.]+s`)
		for _, substr := range []string{"forest of", "modeled runtime", "training ", "held-out "} {
			simLine := wall.ReplaceAllString(pick(outs["sim"], substr), "wall")
			tcpLine := wall.ReplaceAllString(pick(outs["tcp"], substr), "wall")
			if simLine == "" || simLine != tcpLine {
				t.Fatalf("p=%d: %q lines diverged:\nsim: %q\ntcp: %q", procs, substr, simLine, tcpLine)
			}
		}
	}

	ckpt := filepath.Join(dir, "ckpt")
	args := []string{"-quest-function", "2", "-records", "2000", "-seed", "5", "-procs", "2",
		"-forest", "3", "-transport=tcp", "-checkpoint", ckpt}
	for i, want := range []string{"3 trained, 0 restored", "0 trained, 3 restored"} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("checkpoint run %d: %v", i+1, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Fatalf("checkpoint run %d does not report %q:\n%s", i+1, want, out.String())
		}
	}

	// A rank hung in tree 1 (op #3 of its level-1 FindSplitI site, counted
	// over the whole forest) orphans its peer at p=2: the attempt dies
	// wholesale, and the respawn restores tree 0 and trains the rest.
	ckpt = filepath.Join(dir, "orphan-ckpt")
	oracle := filepath.Join(dir, "orphan-sim.json")
	base := []string{"-quest-function", "1", "-records", "1200", "-seed", "3", "-procs", "2", "-forest", "3"}
	if err := run(append(append([]string(nil), base...), "-json-out", oracle), io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	path := filepath.Join(dir, "orphan-tcp.json")
	if err := run(append(base, "-transport=tcp", "-detect-timeout", "400ms", "-checkpoint", ckpt,
		"-faults", "hang@FindSplitI:1:1#3", "-json-out", path), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"respawning 1 survivor(s)", "2 trained, 1 restored, 0 lost"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("orphaned forest run does not report %q:\n%s", want, out.String())
		}
	}
	if !bytes.Equal(readFile(t, oracle), readFile(t, path)) {
		t.Fatal("the respawned forest differs from the simulated one")
	}
}

// tcpFlagRejections are the -transport=tcp flag incompatibilities.
var tcpFlagRejections = [][]string{
	{"-quest-function", "1", "-records", "200", "-transport", "bogus"},
	{"-quest-function", "1", "-records", "200", "-transport", "tcp", "-algo", "serial"},
	{"-quest-function", "1", "-records", "200", "-transport", "tcp", "-cv", "3"},
	{"-quest-function", "1", "-records", "200", "-transport", "tcp", "-procs", "0"},
}

// TestTCPFlagValidation pins the -transport=tcp flag incompatibilities.
func TestTCPFlagValidation(t *testing.T) {
	for _, args := range tcpFlagRejections {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("run(%v) accepted an invalid flag combination", args)
		}
	}
}
