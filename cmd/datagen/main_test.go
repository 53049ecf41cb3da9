package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/classify"
)

func TestRunToStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-function", "1", "-records", "25", "-seed", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 26 { // header + 25 rows
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "salary,") || !strings.HasSuffix(lines[0], ",class") {
		t.Fatalf("header: %s", lines[0])
	}
}

func TestRunToFileAndReadBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	var out bytes.Buffer
	if err := run([]string{"-function", "2", "-records", "40", "-o", path, "-nine"}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tab, err := classify.ReadCSV(f, classify.QuestSchema(true))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 40 || tab.Schema.NumAttrs() != 9 {
		t.Fatalf("read back %d rows, %d attrs", tab.NumRows(), tab.Schema.NumAttrs())
	}

	// The file is replaced atomically: nothing but it is left in the
	// directory, and a target that cannot be written fails the command.
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("output directory holds %d entries (%v), want data.csv alone", len(entries), err)
	}
	if err := run([]string{"-records", "40", "-o", filepath.Join(dir, "no-such-dir", "data.csv")}, &out); err == nil {
		t.Fatal("-o into a missing directory reported success")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-function", "0"}, &out); err == nil {
		t.Fatal("invalid function accepted")
	}
	if err := run([]string{"-records", "-5"}, &out); err == nil {
		t.Fatal("negative records accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
