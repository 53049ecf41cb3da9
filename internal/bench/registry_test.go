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

// TestGuardsWiredIntoMakeAndCI: `make guard` and the CI workflow keep one
// step per guard (the artifact uploads need them), so a guard added to the
// registry must be added to both — and nothing else may pose as one. A
// guard is a gate that needs a clock: output that is the same bytes on
// every host is an exact invariant, and belongs in `go test`, so no row is
// both a guard and recorded.
func TestGuardsWiredIntoMakeAndCI(t *testing.T) {
	for _, x := range Experiments {
		if x.Guard && x.Recorded {
			t.Errorf("-exp %s is both a guard and recorded: pin its exact gates in a package test instead", x.Name)
		}
	}
	makefile := readRepoFile(t, "Makefile")
	guardTarget := makefile[strings.Index(makefile, "\nguard:"):]
	guardTarget = guardTarget[:strings.Index(guardTarget, "\n\n")]
	for file, text := range map[string]string{"Makefile guard target": guardTarget, ".github/workflows/ci.yml": readRepoFile(t, ".github/workflows/ci.yml")} {
		var invoked []string
		for _, m := range regexp.MustCompile(`benchrunner -exp ([a-z0-9]+guard)\b`).FindAllStringSubmatch(text, -1) {
			invoked = append(invoked, m[1])
		}
		slices.Sort(invoked)
		want := strings.Split(Names(func(x Experiment) bool { return x.Guard }), ", ")
		slices.Sort(want)
		if !slices.Equal(invoked, want) {
			t.Errorf("%s runs guards %v, the registry marks %v", file, invoked, want)
		}
	}
}

// TestFuzzersWiredIntoMake: `make fuzz`, which CI runs, smokes every Fuzz*
// function of the root module in the package that declares it.
func TestFuzzersWiredIntoMake(t *testing.T) {
	makefile := readRepoFile(t, "Makefile")
	fuzzTarget := makefile[strings.Index(makefile, "\nfuzz:"):]
	fuzzTarget = fuzzTarget[:strings.Index(fuzzTarget, "\n\n")]
	if !strings.Contains(readRepoFile(t, ".github/workflows/ci.yml"), "make fuzz") {
		t.Error(".github/workflows/ci.yml does not run make fuzz")
	}
	root := filepath.Join("..", "..")
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join(root, "benchmark")) {
			return filepath.SkipDir // hidden directories, and benchmark/'s own module
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg, _ := filepath.Rel(root, filepath.Dir(path))
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			found++
			step := regexp.MustCompile(`(?m)-fuzz=` + m[1] + ` .* \./` + regexp.QuoteMeta(filepath.ToSlash(pkg)) + `$`)
			if !step.MatchString(fuzzTarget) {
				t.Errorf("%s (%s) is missing from the Makefile fuzz target", m[1], path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no Fuzz* functions found; is the walk rooted at the repository?")
	}
}
