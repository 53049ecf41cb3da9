package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comm/tcptransport"
)

// TestMain lets the test binary serve as the rank-worker re-exec target:
// tcptransport.Launch re-executes the current executable, which in a
// test process is the test binary itself. Worker invocations run the
// real CLI entry point and exit before the testing framework takes over.
func TestMain(m *testing.M) {
	if tcptransport.IsWorker() {
		if err := run(os.Args[1:], io.Discard); err != nil {
			fmt.Fprintln(os.Stderr, "scalparc worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTCPDifferential is the end-to-end transport differential: train
// the same Quest dataset on the simulated backend and on real worker
// processes over localhost TCP, and assert the induced trees are
// byte-identical at each processor count.
func TestTCPDifferential(t *testing.T) {
	dir := t.TempDir()
	for _, procs := range []int{2, 4} {
		base := []string{"-quest-function", "3", "-records", "3000", "-seed", "11",
			"-procs", fmt.Sprint(procs)}
		simPath := filepath.Join(dir, fmt.Sprintf("sim-%d.json", procs))
		tcpPath := filepath.Join(dir, fmt.Sprintf("tcp-%d.json", procs))
		simArgs := append(append([]string(nil), base...), "-json-out", simPath)
		tcpArgs := append(append([]string(nil), base...), "-transport=tcp", "-json-out", tcpPath)
		var simOut, tcpOut bytes.Buffer
		if err := run(simArgs, &simOut); err != nil {
			t.Fatalf("p=%d sim: %v", procs, err)
		}
		if err := run(tcpArgs, &tcpOut); err != nil {
			t.Fatalf("p=%d tcp: %v", procs, err)
		}
		sim, err := os.ReadFile(simPath)
		if err != nil {
			t.Fatal(err)
		}
		tcp, err := os.ReadFile(tcpPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sim, tcp) {
			t.Fatalf("p=%d: trees diverged between backends\nsim: %s\ntcp: %s", procs, sim, tcp)
		}
		// The backends must also agree on the modeled machine: same
		// deterministic runtime to the picosecond.
		simLine, tcpLine := pick(simOut.String(), "modeled runtime"), pick(tcpOut.String(), "modeled runtime")
		if simLine == "" || simLine != tcpLine {
			t.Fatalf("p=%d: modeled runtimes diverged:\nsim: %q\ntcp: %q", procs, simLine, tcpLine)
		}
	}
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

// TestTCPCrashRecovery kills one worker process mid-training with an
// injected fault and expects the survivors to shrink, replay, and
// deliver the same tree a fault-free run induces.
func TestTCPCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-quest-function", "2", "-records", "2000", "-seed", "7", "-procs", "3"}
	cleanPath := filepath.Join(dir, "clean.json")
	crashPath := filepath.Join(dir, "crash.json")
	cleanArgs := append(append([]string(nil), base...), "-json-out", cleanPath)
	crashArgs := append(append([]string(nil), base...), "-transport=tcp",
		"-faults", "crash@FindSplitI:2:1", "-json-out", crashPath)
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
	clean, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := os.ReadFile(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, crashed) {
		t.Fatal("post-recovery tree differs from the fault-free tree")
	}
}

// tcpFlagRejections are the -transport=tcp flag incompatibilities.
var tcpFlagRejections = [][]string{
	{"-quest-function", "1", "-records", "200", "-transport", "bogus"},
	{"-quest-function", "1", "-records", "200", "-transport", "tcp", "-algo", "serial"},
	{"-quest-function", "1", "-records", "200", "-transport", "tcp", "-cv", "3"},
	{"-quest-function", "1", "-records", "200", "-transport", "tcp", "-phases"},
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
