package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The clock gates are tests beside the code they gate (EXPERIMENTS.md's
// GUARD sections): a TestGuard* that `make guard` runs, or, for a count, a
// plain test. The tests below hold every gate to that home — its test, its
// bound and its failure message, verbatim — so no bound drifts and no gate
// goes missing without a failure here.

// testSource is the concatenated _test.go source of one root-module
// package, named by its directory.
func testSource(t *testing.T, pkg string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", pkg, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no test sources (%v)", pkg, err)
	}
	var src strings.Builder
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(data)
	}
	return src.String()
}

// requireGate fails unless pkg's tests declare test and hold every snippet
// of its gate.
func requireGate(t *testing.T, pkg, test string, snippets ...string) {
	t.Helper()
	src := testSource(t, pkg)
	for _, s := range append([]string{"func " + test + "(t *testing.T) {"}, snippets...) {
		if !strings.Contains(src, s) {
			t.Errorf("%s's tests lack %q", pkg, s)
		}
	}
}

// TestHotpathChecksPass: GUARD-HOTPATH's two gates run beside their code —
// the kernel ratio as a clock gate in internal/gini (make guard), the
// allocation count as a plain internal/scalparc test, which go test ./...
// runs on every host.
func TestHotpathChecksPass(t *testing.T) {
	requireGate(t, "internal/gini", "TestGuardScanKernel", `os.Getenv("GUARD") != "1"`)
	requireGate(t, "internal/scalparc", "TestInductionAllocs")
	if strings.Contains(testSource(t, "internal/scalparc"), `"GUARD"`) {
		t.Error("internal/scalparc's tests read GUARD: the allocation gate is a count, for plain go test")
	}
}

// TestHotpathChecksHostNormalization: a gate judges the code, not the
// machine, so none compares a fresh figure with an archived one. No Go
// file of the root module outside this package's tests names a
// BENCH_*.json.
func TestHotpathChecksHostNormalization(t *testing.T) {
	named := regexp.MustCompile(`"BENCH_\w+\.json"`)
	walkGoFiles(t, func(pkg, path string, src []byte) {
		if pkg != "internal/bench" && named.Match(src) {
			t.Errorf("%s reads the frozen archive", path)
		}
	})
}

// TestHotpathChecksGates holds GUARD-HOTPATH's gates to their bounds and
// the allocation baseline to its source, the archive's latest run. The
// archive gate itself is dropped: it compared two frozen numbers, so only
// an edit to the file could trip it. What stays is the win EXPERIMENTS.md
// quotes from the archive, checked against the file.
func TestHotpathChecksGates(t *testing.T) {
	var ind struct {
		Runs []struct {
			Label      string `json:"label"`
			Benchmarks map[string]struct {
				NsPerOp     float64 `json:"ns_per_op"`
				AllocsPerOp int64   `json:"allocs_per_op"`
			} `json:"benchmarks"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(readRepoFile(t, "BENCH_induction.json")), &ind); err != nil {
		t.Fatal(err)
	}
	if len(ind.Runs) < 2 {
		t.Fatalf("missing trajectory: BENCH_induction.json has %d runs", len(ind.Runs))
	}
	base, latest := ind.Runs[0], ind.Runs[len(ind.Runs)-1]
	t.Run("kernel_ratio", func(t *testing.T) {
		requireGate(t, "internal/gini", "TestGuardScanKernel",
			"scanKernelRatio = 2.0", "naive/inc < scanKernelRatio", "gini kernel regression")
	})
	t.Run("alloc_regression", func(t *testing.T) {
		requireGate(t, "internal/scalparc", "TestInductionAllocs",
			"allocs > 1.2*inductionAllocsBaseline", "induction allocation regression")
	})
	t.Run("empty_trajectory", func(t *testing.T) {
		requireGate(t, "internal/scalparc", "TestInductionAllocs", `"`+latest.Label+`"`,
			fmt.Sprintf("inductionAllocsBaseline = %d", latest.Benchmarks["Induction"].AllocsPerOp))
	})
	experiments := strings.Join(strings.Fields(readRepoFile(t, "EXPERIMENTS.md")), " ")
	quoted := func(t *testing.T, format string, latest, base float64) {
		if q := fmt.Sprintf(format, 100*(1-latest/base)); !strings.Contains(experiments, q) {
			t.Errorf("EXPERIMENTS.md does not quote the archive's %q", q)
		}
	}
	b, l := base.Benchmarks["Induction"], latest.Benchmarks["Induction"]
	t.Run("trajectory_ns_win_lost", func(t *testing.T) {
		quoted(t, "−%.0f%% induction ns/op", l.NsPerOp, b.NsPerOp)
	})
	t.Run("trajectory_allocs_win_lost", func(t *testing.T) {
		quoted(t, "−%.0f%% allocs/op", float64(l.AllocsPerOp), float64(b.AllocsPerOp))
	})
}

// TestPredictChecksGates holds GUARD-PREDICT's two gates in
// internal/infer's TestGuardPredict: identical labels first, then the
// compiled engine at least 4x the frozen naive walk.
func TestPredictChecksGates(t *testing.T) {
	requireGate(t, "internal/infer", "TestGuardPredict",
		"label mismatch at row", "adversarial value",
		"predictRatio = 4.0", "naive/compiled < predictRatio", "compiled predictor regression")
}

// TestServeChecksGates holds GUARD-SERVE's gates in internal/serve's
// TestGuardServe — labels over HTTP, no fragmented request at 16x16 and
// 4x64, single-row p99 under 100ms — and its failure artifact.
func TestServeChecksGates(t *testing.T) {
	requireGate(t, "internal/serve", "TestGuardServe",
		"serveGuardDiffRows = 10_000", "walker oracle",
		"{32, 1, 40}, {16, 16, 40}, {4, 64, 60}", "pt.MeanBatchRows < float64(pt.RowsPerReq)", "requests fragment across flushes",
		"serveGuardP99Floor = 100_000.0", "p99 > serveGuardP99Floor", "disaster line",
		`os.Getenv("SERVE_ARTIFACT_DIR")`, `"serve_latency.json"`)
}
