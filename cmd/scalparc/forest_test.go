package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/classify"
)

func TestRunForestMode(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "forest.json")
	var out bytes.Buffer
	err := run([]string{
		"-quest-function", "1", "-records", "1500", "-procs", "2", "-seed", "7",
		"-forest", "6", "-feature-sample", "3", "-forest-parallel", "2",
		"-split", "binned", "-bins", "16", "-minsplit", "8",
		"-compile", "-json-out", jsonPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"forest of 6 trees", "6 trained, 0 restored, 0 lost",
		"compiled model: 6 tree(s)", "training", "held-out", "wrote forest JSON"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	fh, err := os.Open(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	f, err := classify.DecodeModel(fh)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 6 {
		t.Fatalf("written forest has %d trees, want 6", f.NumTrees())
	}
	assertNoTempFiles(t, dir)
}

func TestRunForestCheckpointRerun(t *testing.T) {
	ckpt := t.TempDir()
	args := []string{
		"-quest-function", "1", "-records", "600", "-procs", "2",
		"-forest", "3", "-split", "binned", "-bins", "16", "-minsplit", "8",
		"-forest-checkpoint", ckpt,
	}
	var out1 bytes.Buffer
	if err := run(args, &out1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out1.String(), "3 trained, 0 restored") {
		t.Fatalf("first run:\n%s", out1.String())
	}
	var out2 bytes.Buffer
	if err := run(args, &out2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2.String(), "0 trained, 3 restored") {
		t.Fatalf("rerun did not restore from the checkpoint dir:\n%s", out2.String())
	}
}

// forestFlagRejections are TestRunForestFlagValidation's rejected flags,
// each run after a 200-record Quest command line.
var forestFlagRejections = []struct {
	name string
	args []string
}{
	{"negative", []string{"-forest", "-1"}},
	{"orphan-sample", []string{"-feature-sample", "3"}},
	{"algo", []string{"-forest", "2", "-algo", "serial"}},
	{"tcp", []string{"-forest", "2", "-transport", "tcp"}},
	{"cv", []string{"-forest", "2", "-cv", "3"}},
	{"faults", []string{"-forest", "2", "-faults", "crash@FindSplitI:1:2"}},
	{"prune", []string{"-forest", "2", "-prune"}},
	{"dump", []string{"-forest", "2", "-dump"}},
}

func TestRunForestFlagValidation(t *testing.T) {
	for _, tc := range forestFlagRejections {
		var out bytes.Buffer
		if err := run(quest("200", tc.args...), &out); err == nil {
			t.Errorf("%s: flag misuse not rejected", tc.name)
		}
	}
}
