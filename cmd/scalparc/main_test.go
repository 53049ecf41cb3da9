package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/classify"
)

func TestRunQuestMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-quest-function", "2", "-records", "2000", "-procs", "4", "-seed", "7",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"generated quest F2", "algorithm scalparc on 4 processors",
		"modeled runtime", "training", "held-out", "accuracy"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunSerialAndSprintModes(t *testing.T) {
	for _, algo := range []string{"serial", "sprint"} {
		var out bytes.Buffer
		err := run([]string{"-quest-function", "1", "-records", "500", "-algo", algo, "-procs", "2"}, &out)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out.String(), "algorithm "+algo) {
			t.Fatalf("%s output:\n%s", algo, out.String())
		}
	}
}

func TestRunCSVModeWithSchema(t *testing.T) {
	dir := t.TempDir()

	schemaPath := filepath.Join(dir, "schema.json")
	schemaJSON := `{
	  "attrs": [
	    {"name": "x", "kind": "continuous"},
	    {"name": "color", "kind": "categorical", "values": ["red", "blue"]}
	  ],
	  "classes": ["no", "yes"]
	}`
	if err := os.WriteFile(schemaPath, []byte(schemaJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	schema := &classify.Schema{
		Attrs: []classify.Attribute{
			{Name: "x", Kind: classify.Continuous},
			{Name: "color", Kind: classify.Categorical, Values: []string{"red", "blue"}},
		},
		Classes: []string{"no", "yes"},
	}
	tab := classify.NewTable(schema, 20)
	for i := 0; i < 20; i++ {
		cls := 0
		if i >= 10 {
			cls = 1
		}
		if err := tab.AppendRow([]float64{float64(i), float64(i % 2)}, cls); err != nil {
			t.Fatal(err)
		}
	}
	trainPath := filepath.Join(dir, "train.csv")
	f, err := os.Create(trainPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := classify.WriteCSV(f, tab); err != nil {
		t.Fatal(err)
	}
	f.Close()

	treePath := filepath.Join(dir, "tree.json")
	var out bytes.Buffer
	err = run([]string{
		"-schema", schemaPath, "-train", trainPath,
		"-procs", "2", "-dump", "-json-out", treePath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "loaded 20 training records") {
		t.Fatalf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "x <= 9") {
		t.Fatalf("dump should show the obvious split:\n%s", out.String())
	}

	tf, err := os.Open(treePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	tr, err := classify.DecodeTree(tf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Predict([]float64{3, 0}) != 0 || tr.Predict([]float64{15, 1}) != 1 {
		t.Fatal("persisted tree mispredicts")
	}
	assertNoTempFiles(t, dir)

	// An unwritable -json-out target is an error the run reports, not a
	// silently missing or torn file.
	if err := run([]string{
		"-schema", schemaPath, "-train", trainPath, "-procs", "2",
		"-json-out", filepath.Join(dir, "no-such-dir", "tree.json"),
	}, &out); err == nil {
		t.Fatal("-json-out into a missing directory reported success")
	}
}

// assertNoTempFiles fails if an atomic write left its temp file behind.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	litter, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(litter) != 0 {
		t.Fatalf("temp files left behind: %v", litter)
	}
}

func TestRunImportance(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-quest-function", "1", "-records", "800", "-algo", "serial", "-importance",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "attribute importance") {
		t.Fatalf("output missing importance report:\n%s", s)
	}
	// F1 depends on age alone: age must lead the report.
	idx := strings.Index(s, "attribute importance")
	if !strings.Contains(s[idx:], "age") {
		t.Fatalf("age missing from importance:\n%s", s[idx:])
	}
}

func TestRunCrossValidation(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-quest-function", "1", "-records", "600", "-procs", "2", "-cv", "3",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"3-fold cross-validation over 600 records", "fold 0", "fold 2", "mean accuracy"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "held-out") {
		t.Fatal("cross-validation mode should replace the single split report")
	}
}

func TestRunDotOutput(t *testing.T) {
	dir := t.TempDir()
	dotPath := filepath.Join(dir, "tree.dot")
	var out bytes.Buffer
	err := run([]string{
		"-quest-function", "1", "-records", "300", "-algo", "sliq", "-dot-out", dotPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "digraph tree {") || !strings.Contains(string(data), "age") {
		t.Fatalf("dot file:\n%s", data)
	}
	if !strings.Contains(out.String(), "algorithm sliq") {
		t.Fatalf("output:\n%s", out.String())
	}
	assertNoTempFiles(t, dir)

	// Like -json-out: an unwritable target fails the run.
	if err := run([]string{
		"-quest-function", "1", "-records", "300", "-algo", "sliq",
		"-dot-out", filepath.Join(dir, "no-such-dir", "tree.dot"),
	}, &out); err == nil {
		t.Fatal("-dot-out into a missing directory reported success")
	}
}

func TestLoadSchemaErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := loadSchema(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := loadSchema(write("bad.json", "{")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	badKind := `{"attrs":[{"name":"x","kind":"numeric"}],"classes":["a","b"]}`
	if _, err := loadSchema(write("kind.json", badKind)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	invalid := `{"attrs":[{"name":"x","kind":"continuous"}],"classes":["a"]}`
	if _, err := loadSchema(write("invalid.json", invalid)); err == nil {
		t.Fatal("single-class schema accepted")
	}
}

// quest is a generated-data command line of the given size plus extra flags.
func quest(records string, extra ...string) []string {
	return append([]string{"-quest-function", "1", "-records", records}, extra...)
}

// flagRejections are TestRunFlagValidation's rejected command lines.
var flagRejections = []struct {
	name string
	args []string
}{
	{"no data source", []string{}},
	{"unknown algorithm", quest("100", "-algo", "magic")},
	{"-train without -schema", []string{"-train", "x.csv"}},
	{"-bins with -split=exact", quest("100", "-bins", "32")},
	{"-vote-k with -split=exact", quest("100", "-vote-k", "4")},
	{"-vote-k with -split=binned", quest("100", "-split", "binned", "-vote-k", "4")},
	{"unknown -split", quest("100", "-split", "magic")},
	{"-test-frac above 1", quest("100", "-test-frac", "1.5")},
	{"negative -test-frac", quest("100", "-test-frac", "-0.2")},
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	for _, tc := range flagRejections {
		if err := run(tc.args, &out); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
	// -bins is shared by binned and vote; both must accept it.
	for _, mode := range []string{"binned", "vote"} {
		if err := run(quest("100", "-split", mode, "-bins", "16"), &out); err != nil {
			t.Fatalf("-split=%s -bins 16 rejected: %v", mode, err)
		}
	}
}

// TestRunRejectsBeforeWork: every rejected command line fails before it
// generates or reads data, trains, or launches a worker — so before it
// prints anything.
func TestRunRejectsBeforeWork(t *testing.T) {
	cases := [][]string{
		quest("100", "-split", "binned", "-algo", "sprint"),
		quest("500", "-algo", "serial", "-phases"),
		quest("200", "-forest", "2", "-forest-parallel", "-1"),
	}
	for _, c := range flagRejections {
		cases = append(cases, c.args)
	}
	for _, c := range faultFlagRejections {
		cases = append(cases, c.args)
	}
	for _, c := range forestFlagRejections {
		cases = append(cases, quest("200", c.args...))
	}
	for _, args := range append(cases, tcpFlagRejections...) {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%q: accepted", args)
		} else if out.Len() != 0 {
			t.Errorf("%q: rejected (%v) only after work began:\n%s", args, err, out.String())
		}
	}
}

func TestRunVoteMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-quest-function", "2", "-records", "1500", "-procs", "4", "-seed", "7",
		"-split", "vote", "-vote-k", "3", "-bins", "32",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"vote split finding: top-3 attribute nominations per rank",
		"algorithm scalparc on 4 processors", "held-out"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunPhasesAndTraceOutput(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	err := run([]string{
		"-quest-function", "2", "-records", "2000", "-procs", "4", "-seed", "7",
		"-phases", "-trace", tracePath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"phase breakdown", "phase total", "FindSplitI", "PerformSplitII", "wrote Chrome trace"} {
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
	ranks := map[any]bool{}
	complete := 0
	for _, e := range decoded.TraceEvents {
		if e["ph"] == "X" {
			complete++
			ranks[e["tid"]] = true
		}
	}
	if complete == 0 {
		t.Fatal("trace file has no complete events")
	}
	if len(ranks) != 4 {
		t.Fatalf("trace covers %d ranks, want 4", len(ranks))
	}
	assertNoTempFiles(t, dir)

	if err := run([]string{
		"-quest-function", "2", "-records", "2000", "-procs", "4",
		"-trace", filepath.Join(dir, "no-such-dir", "trace.json"),
	}, &out); err == nil {
		t.Fatal("-trace into a missing directory reported success")
	}
}

func TestRunPhasesSliq(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-quest-function", "1", "-records", "500", "-algo", "sliq", "-phases"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "phase breakdown") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunPhasesSerialRejected(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-quest-function", "1", "-records", "500", "-algo", "serial", "-phases"}, &out)
	if err == nil {
		t.Fatal("serial has no trace; -phases must be rejected")
	}
}

// faultFlagRejections are TestRunFaultFlagValidation's rejected command
// lines, each with a substring its error must contain.
var faultFlagRejections = []struct {
	name string
	args []string
	want string
}{
	{"faults without scalparc", []string{"-quest-function", "1", "-records", "100",
		"-algo", "serial", "-faults", "crash@FindSplitI:1:0"}, "-algo scalparc"},
	{"checkpoint without scalparc", []string{"-quest-function", "1", "-records", "100",
		"-algo", "sprint", "-procs", "2", "-checkpoint", "ck"}, "-algo scalparc"},
	{"random spec without seed", []string{"-quest-function", "1", "-records", "100",
		"-faults", "random:3"}, "seed"},
	{"bad fault spec", []string{"-quest-function", "1", "-records", "100",
		"-faults", "melt@FindSplitI:1:0"}, "unknown kind"},
	{"fault rank out of range", []string{"-quest-function", "1", "-records", "100",
		"-procs", "2", "-faults", "crash@FindSplitI:1:7"}, "out of range"},
	{"zero detect-timeout", []string{"-quest-function", "1", "-records", "100",
		"-transport", "tcp", "-procs", "2", "-detect-timeout", "0s"}, "must be > 0"},
	{"negative detect-timeout", []string{"-quest-function", "1", "-records", "100",
		"-transport", "tcp", "-procs", "2", "-detect-timeout", "-1s"}, "must be > 0"},
	{"detect-timeout on sim", []string{"-quest-function", "1", "-records", "100",
		"-procs", "2", "-detect-timeout", "1s"}, "requires -transport=tcp"},
	{"socket fault on sim", []string{"-quest-function", "1", "-records", "100",
		"-procs", "2", "-faults", "reset@FindSplitI:1:1:0"}, "require a wire transport"},
	{"hang without detect-timeout", []string{"-quest-function", "1", "-records", "100",
		"-transport", "tcp", "-procs", "2", "-faults", "hang@FindSplitI:1:1"}, "-detect-timeout"},
	{"random hang without detect-timeout", []string{"-quest-function", "1", "-records", "100",
		"-transport", "tcp", "-procs", "2", "-faults", "random:2:hang", "-fault-seed", "1"}, "-detect-timeout"},
	{"socket fault aimed at its own rank", []string{"-quest-function", "1", "-records", "100",
		"-transport", "tcp", "-procs", "2", "-faults", "reset@FindSplitI:1:1:1"}, "peer"},
	{"socket fault rank out of range", []string{"-quest-function", "1", "-records", "100",
		"-transport", "tcp", "-procs", "2", "-faults", "truncate@FindSplitI:1:7:0"}, "out of range"},
	{"unfillable random spec", []string{"-quest-function", "1", "-records", "100",
		"-procs", "2", "-faults", "random:5:crash", "-fault-seed", "1"}, "at most 2"},
	{"huge random spec", []string{"-quest-function", "1", "-records", "100",
		"-faults", "random:99999999999999", "-fault-seed", "1"}, "limit"},
}

func TestRunFaultFlagValidation(t *testing.T) {
	var out bytes.Buffer
	for _, c := range faultFlagRejections {
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestRunRejectsUnwritableCheckpointDir(t *testing.T) {
	// The checkpoint path nests under a regular file, so creating it fails
	// on every platform and uid (chmod-based unwritability is ignored for
	// root).
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-quest-function", "1", "-records", "100",
		"-checkpoint", filepath.Join(blocker, "sub")}, &out)
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("unwritable checkpoint dir: err = %v", err)
	}
}

// TestRunCrashRecoveryEndToEnd drives the full CLI path: inject a crash,
// checkpoint to disk, and confirm the run reports the recovery.
func TestRunCrashRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{
		"-quest-function", "2", "-records", "1500", "-procs", "4", "-seed", "7",
		"-faults", "crash@PerformSplitII:2:1", "-checkpoint", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"recovered from 1 failure(s)", "lost ranks [1]", "finished on 3 processors"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// The recovered run must classify exactly like a fault-free one: compare
// the dumped trees.
func TestRunFaultyTreeMatchesCleanTree(t *testing.T) {
	base := []string{"-quest-function", "3", "-records", "1000", "-procs", "3", "-seed", "9", "-dump"}
	var clean, faulty bytes.Buffer
	if err := run(base, &clean); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-faults", "crash@FindSplitI:1:2"), &faulty); err != nil {
		t.Fatal(err)
	}
	treeOf := func(s string) string {
		if i := strings.Index(s, "training"); i >= 0 {
			return s[i:]
		}
		return s
	}
	if treeOf(clean.String()) != treeOf(faulty.String()) {
		t.Fatalf("recovered tree differs from fault-free tree:\n--- clean ---\n%s\n--- faulty ---\n%s",
			clean.String(), faulty.String())
	}
}

func TestRunCompileStats(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-quest-function", "2", "-records", "2000", "-algo", "serial", "-compile",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "compiled model:") || !strings.Contains(s, "bytes flat") {
		t.Fatalf("output missing compiled-model stats:\n%s", s)
	}
}
