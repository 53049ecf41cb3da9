package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

// trajectory builds a two-run pair of BenchFiles shaped like the checked-in
// BENCH_*.json: a pre-optimization baseline followed by the optimized run.
func trajectory() (*BenchFile, *BenchFile) {
	ind := &BenchFile{Experiment: "EXP-HOTPATH", Runs: []BenchRun{
		{Label: "pre", Benchmarks: map[string]BenchMeasure{
			"Induction": {NsPerOp: 74e6, BytesPerOp: 70e6, AllocsPerOp: 21736},
		}},
		{Label: "post", Benchmarks: map[string]BenchMeasure{
			"Induction": {NsPerOp: 40e6, BytesPerOp: 9e6, AllocsPerOp: 5000},
		}},
	}}
	scan := &BenchFile{Experiment: "EXP-HOTPATH", Runs: []BenchRun{
		{Label: "pre", Benchmarks: map[string]BenchMeasure{
			"GiniScanNaive": {NsPerEntry: 26.9},
		}},
		{Label: "post", Benchmarks: map[string]BenchMeasure{
			"GiniScanIncremental": {NsPerEntry: 9.0},
			"GiniScanNaive":       {NsPerEntry: 26.9},
		}},
	}}
	return ind, scan
}

// healthy is a fresh measurement consistent with the trajectory above.
func healthy() hotpathRun {
	return hotpathRun{
		induction: BenchMeasure{NsPerOp: 41e6, AllocsPerOp: 5100},
		scanInc:   BenchMeasure{NsPerEntry: 9.1},
		scanNaive: BenchMeasure{NsPerEntry: 27.0},
	}
}

func TestHotpathChecksPass(t *testing.T) {
	ind, scan := trajectory()
	if errs := hotpathChecks(healthy(), ind, scan); len(errs) != 0 {
		t.Fatalf("healthy measurement tripped gates: %v", errs)
	}
}

// TestHotpathChecksHostNormalization: a uniformly 3x-slower host (naive
// probe and induction both 3x) must pass, while the same induction slowdown
// without the probe moving must fail — the ns gate is about the code, not
// the machine.
func TestHotpathChecksHostNormalization(t *testing.T) {
	ind, scan := trajectory()
	slow := healthy()
	slow.induction.NsPerOp *= 3
	slow.scanInc.NsPerEntry *= 3
	slow.scanNaive.NsPerEntry *= 3
	if errs := hotpathChecks(slow, ind, scan); len(errs) != 0 {
		t.Fatalf("uniformly slow host tripped gates: %v", errs)
	}

	regressed := healthy()
	regressed.induction.NsPerOp *= 3
	errs := hotpathChecks(regressed, ind, scan)
	if len(errs) == 0 {
		t.Fatal("3x induction regression on a same-speed host passed the ns gate")
	}
}

func TestHotpathChecksGates(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*hotpathRun, *BenchFile, *BenchFile)
		want   string
	}{
		{"kernel ratio", func(r *hotpathRun, _, _ *BenchFile) {
			r.scanInc.NsPerEntry = r.scanNaive.NsPerEntry // 1x
		}, "gini kernel regression"},
		{"alloc regression", func(r *hotpathRun, _, _ *BenchFile) {
			r.induction.AllocsPerOp = 21736
		}, "allocation regression"},
		{"trajectory ns win lost", func(_ *hotpathRun, ind, _ *BenchFile) {
			m := ind.Latest().Benchmarks["Induction"]
			m.NsPerOp = 70e6
			ind.Latest().Benchmarks["Induction"] = m
		}, "lost the induction ns win"},
		{"trajectory allocs win lost", func(r *hotpathRun, ind, _ *BenchFile) {
			m := ind.Latest().Benchmarks["Induction"]
			m.AllocsPerOp = 20000
			ind.Latest().Benchmarks["Induction"] = m
			r.induction.AllocsPerOp = 20000 // keep gate 2 quiet; gate 4 must still fire
		}, "lost the induction allocs win"},
		{"empty trajectory", func(_ *hotpathRun, ind, _ *BenchFile) {
			ind.Runs = nil
		}, "missing trajectory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ind, scan := trajectory()
			fresh := healthy()
			tc.mutate(&fresh, ind, scan)
			errs := hotpathChecks(fresh, ind, scan)
			if len(errs) == 0 {
				t.Fatalf("gate did not trip")
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("gate errors %v do not mention %q", errs, tc.want)
			}
		})
	}
}

// TestBenchFileRoundTrip pins the JSON shape Save writes and Load reads.
func TestBenchFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")

	missing, err := LoadBenchFile(path, "notes here")
	if err != nil {
		t.Fatal(err)
	}
	if missing.Experiment != "EXP-HOTPATH" || missing.Notes != "notes here" || len(missing.Runs) != 0 {
		t.Fatalf("missing-file default = %+v", missing)
	}

	ind, _ := trajectory()
	ind.Notes = "n"
	if err := saveTrajectory(path, ind); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBenchFile(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Runs) != 2 || back.Runs[0].Label != "pre" || back.Runs[1].Label != "post" {
		t.Fatalf("round trip lost runs: %+v", back.Runs)
	}
	m := back.Runs[1].Benchmarks["Induction"]
	if m.AllocsPerOp != 5000 || m.NsPerOp != 40e6 {
		t.Fatalf("round trip lost figures: %+v", m)
	}
	if back.Baseline().Label != "pre" || back.Latest().Label != "post" {
		t.Fatal("Baseline/Latest point at the wrong runs")
	}
}
