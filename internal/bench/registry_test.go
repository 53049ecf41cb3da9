package bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func readRepoFile(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSelect: groups and names resolve in registry order, whatever order
// the list names them in.
func TestSelect(t *testing.T) {
	names := func(list string) string {
		t.Helper()
		sel, err := Select(list)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, x := range sel {
			out = append(out, x.Name)
		}
		return strings.Join(out, ", ")
	}
	if got := names("micro, vote,fig3a"); got != "fig3a, vote, micro" {
		t.Errorf("named list selects %q", got)
	}
	if got, want := names("all"), Names(nil); got != want {
		t.Errorf("all selects %q, want %q", got, want)
	}
	if got, want := names("recorded"), Names(func(x Experiment) bool { return x.Recorded }); got != want {
		t.Errorf("recorded selects %q, want %q", got, want)
	}
}

// TestDesignIndexMatchesRegistry: DESIGN.md §4 has a `cmd/benchrunner -exp
// <name>` cell for every registry entry, and names nothing else.
func TestDesignIndexMatchesRegistry(t *testing.T) {
	var documented []string
	for _, m := range regexp.MustCompile("`cmd/benchrunner -exp ([a-z0-9]+)`").FindAllStringSubmatch(readRepoFile(t, "DESIGN.md"), -1) {
		documented = append(documented, m[1])
	}
	for _, x := range Experiments {
		if !slices.Contains(documented, x.Name) {
			t.Errorf("DESIGN.md §4 has no `cmd/benchrunner -exp %s` row", x.Name)
		}
	}
	for _, name := range documented {
		if _, err := Select(name); err != nil {
			t.Errorf("DESIGN.md §4 names -exp %s: %v", name, err)
		}
	}
}

// makeTarget is the recipe of one Makefile target, up to its blank line.
func makeTarget(t *testing.T, name string) string {
	t.Helper()
	makefile := readRepoFile(t, "Makefile")
	i := strings.Index(makefile, "\n"+name+":")
	if i < 0 {
		t.Fatalf("the Makefile has no %s target", name)
	}
	target := makefile[i:]
	return target[:strings.Index(target, "\n\n")]
}

// walkGoFiles calls visit with every Go file of the root module (benchmark/
// is its own module), its package directory relative to the repository
// root, slash-separated, and its source.
func walkGoFiles(t *testing.T, visit func(pkg, path string, src []byte)) {
	t.Helper()
	root := filepath.Join("..", "..")
	visited := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join(root, "benchmark")) {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg, _ := filepath.Rel(root, filepath.Dir(path))
		visited++
		visit(filepath.ToSlash(pkg), path, src)
		return nil
	})
	if err != nil || visited == 0 {
		t.Fatalf("walked %d Go files from %s: %v", visited, root, err)
	}
}

// TestGuardsWiredIntoMakeAndCI: a gate that needs a clock is a TestGuard*
// test that skips unless GUARD=1. `make guard`, which CI runs, sets GUARD=1,
// runs one package at a time (-p 1) so no gate is timed beside another,
// and names every package that declares one.
func TestGuardsWiredIntoMakeAndCI(t *testing.T) {
	guardTarget := makeTarget(t, "guard")
	for _, want := range []string{"GUARD=1 ", " -p 1 "} {
		if !strings.Contains(guardTarget, want) {
			t.Errorf("the Makefile guard target lacks %q", want)
		}
	}
	if !strings.Contains(readRepoFile(t, ".github/workflows/ci.yml"), "make guard") {
		t.Error(".github/workflows/ci.yml does not run make guard")
	}
	decl := regexp.MustCompile(`(?m)^func (TestGuard[A-Z]\w*)\(`)
	found := 0
	walkGoFiles(t, func(pkg, path string, src []byte) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			found++
			if !regexp.MustCompile(`\s\./` + regexp.QuoteMeta(pkg) + `(\s|$)`).MatchString(guardTarget) {
				t.Errorf("%s (%s) is in a package the Makefile guard target does not test", m[1], path)
			}
		}
	})
	if found == 0 {
		t.Fatal("no TestGuard* functions found")
	}
}

// TestRaceTargetRacedInCI: every package `make race` races, CI races too,
// because CI runs the target itself. Every CI step runs a Makefile target,
// so no package list is restated in CI to drift from the Makefile's.
func TestRaceTargetRacedInCI(t *testing.T) {
	if len(regexp.MustCompile(`\./\S+`).FindAllString(makeTarget(t, "race"), -1)) == 0 {
		t.Fatal("the Makefile race target names no package")
	}
	run := regexp.MustCompile(`^\s*run:\s*(.*)$`)
	races := false
	for n, line := range strings.Split(readRepoFile(t, ".github/workflows/ci.yml"), "\n") {
		m := run.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if !strings.HasPrefix(m[1], "make ") {
			t.Errorf("ci.yml:%d runs %q, not a Makefile target", n+1, m[1])
		}
		races = races || strings.HasPrefix(m[1], "make race")
	}
	if !races {
		t.Error(".github/workflows/ci.yml does not run make race")
	}
}

// TestOracleMatrixWiredIntoMake: `make chaos` runs the oracle matrix's
// faulted cells and `make tcp` its TCP cells. TestOracleMatrix (in
// internal/scalparc) groups its cells as TestOracleMatrix/{sim,tcp}/
// {fault-free,faulted}/<cell>; a -run pattern selects a name the way go test
// matches it, one regexp per slash-separated level.
func TestOracleMatrixWiredIntoMake(t *testing.T) {
	selects := func(pattern, name string) bool {
		levels := strings.Split(name, "/")
		for i, p := range strings.Split(pattern, "/") {
			if i >= len(levels) || !regexp.MustCompile(p).MatchString(levels[i]) {
				return false
			}
		}
		return true
	}
	run := regexp.MustCompile(`-run '([^']*)'`)
	for target, names := range map[string][]string{
		"chaos": {"TestOracleMatrix/sim/faulted/cell", "TestOracleMatrix/tcp/faulted/cell"},
		"tcp":   {"TestOracleMatrix/tcp/fault-free/cell", "TestOracleMatrix/tcp/faulted/cell"},
	} {
		var patterns []string
		for _, line := range strings.Split(strings.ReplaceAll(makeTarget(t, target), "\\\n", " "), "\n") {
			if m := run.FindStringSubmatch(line); m != nil && strings.Contains(line, " test ") && strings.Contains(line, "./internal/scalparc") {
				patterns = append(patterns, m[1])
			}
		}
		for _, name := range names {
			if !slices.ContainsFunc(patterns, func(p string) bool { return selects(p, name) }) {
				t.Errorf("make %s runs no go test of ./internal/scalparc whose -run selects %s (patterns %q)", target, name, patterns)
			}
		}
	}
}

// TestFuzzersWiredIntoMake: `make fuzz`, which CI runs, smokes every Fuzz*
// function of the root module in the package that declares it.
func TestFuzzersWiredIntoMake(t *testing.T) {
	fuzzTarget := makeTarget(t, "fuzz")
	if !strings.Contains(readRepoFile(t, ".github/workflows/ci.yml"), "make fuzz") {
		t.Error(".github/workflows/ci.yml does not run make fuzz")
	}
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := 0
	walkGoFiles(t, func(pkg, path string, src []byte) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			found++
			step := regexp.MustCompile(`(?m)-fuzz=` + string(m[1]) + ` .* \./` + regexp.QuoteMeta(pkg) + `$`)
			if !step.MatchString(fuzzTarget) {
				t.Errorf("%s (%s) is missing from the Makefile fuzz target", m[1], path)
			}
		}
	})
	if found == 0 {
		t.Fatal("no Fuzz* functions found; is the walk rooted at the repository?")
	}
}
