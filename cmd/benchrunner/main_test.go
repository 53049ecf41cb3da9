package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunMicroAndBlocks(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "micro,blocks", "-scale", "0.002"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"MICRO", "ABL-BLOCK", "rounds"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "FIG3a") {
		t.Fatal("unrequested experiment ran")
	}
}

func TestRunSerialWall(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "serialwall", "-scale", "0.002"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MOT-SERIAL") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunSweepTiny(t *testing.T) {
	var out bytes.Buffer
	// A very small scale keeps the sweep fast while exercising the whole
	// fig3a/fig3b/speedups/memfactors path.
	if err := run([]string{"-exp", "fig3a,memfactors", "-scale", "0.001", "-depth", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"sweep:", "FIG3a", "TXT-MEM"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	if strings.Contains(s, "TXT-SPD") {
		t.Fatal("unrequested experiment ran")
	}
}

func TestRunAblationsAndDiagnostics(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "pernode,batched,rebalance,weak,levels", "-scale", "0.002"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"ABL-NODE", "ABL-BATCH", "ABL-REBAL", "EXP-WEAK", "EXP-LEVELS"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "nonsense"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// One unknown name among known ones fails the whole list, naming the
	// offender, before anything runs.
	err := run([]string{"-exp", "micro,nonsense", "-scale", "0.002"}, &out)
	if err == nil || !strings.Contains(err.Error(), `"nonsense"`) || !strings.Contains(err.Error(), "micro") {
		t.Fatalf("mixed known/unknown list: err = %v, want one naming \"nonsense\" and the valid set", err)
	}
	if out.Len() != 0 {
		t.Fatalf("an experiment ran before the list was validated:\n%s", out.String())
	}
	if err := run([]string{"-scale", "0"}, &out); err == nil {
		t.Fatal("zero scale accepted")
	}
	if err := run([]string{"-scale", "2"}, &out); err == nil {
		t.Fatal("scale > 1 accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunPhaseExperiments(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	err := run([]string{"-exp", "phases,phasecmp", "-scale", "0.002", "-trace", tracePath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"EXP-PHASES", "phase breakdown", "CMP-PHASES", "sliq (serial)", "wrote Chrome trace"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
}

func TestRunFaultExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fault", "-scale", "0.004"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"EXP-FAULT", "replay recovery", "ckpt recovery", "identical"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "DIFFERS") {
		t.Fatalf("recovered tree differs from fault-free tree:\n%s", s)
	}
}
