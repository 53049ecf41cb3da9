package bench

import (
	"strings"
	"testing"
)

// hotpathTrajectory builds a two-run pair of trajectories shaped like the
// checked-in BENCH_induction.json and BENCH_scan.json: a pre-optimization
// baseline followed by the optimized run.
func hotpathTrajectory() (ind, scan *trajectory[BenchRun]) {
	ind = &trajectory[BenchRun]{Experiment: "EXP-HOTPATH", Runs: []BenchRun{
		{hostMeta{Label: "pre"}, map[string]BenchMeasure{
			"Induction": {NsPerOp: 74e6, BytesPerOp: 70e6, AllocsPerOp: 21736},
		}},
		{hostMeta{Label: "post"}, map[string]BenchMeasure{
			"Induction": {NsPerOp: 40e6, BytesPerOp: 9e6, AllocsPerOp: 5000},
		}},
	}}
	scan = &trajectory[BenchRun]{Experiment: "EXP-HOTPATH", Runs: []BenchRun{
		{hostMeta{Label: "pre"}, map[string]BenchMeasure{
			"GiniScanNaive": {NsPerEntry: 26.9},
		}},
		{hostMeta{Label: "post"}, map[string]BenchMeasure{
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
	ind, scan := hotpathTrajectory()
	if errs := hotpathChecks(healthy(), ind, scan); len(errs) != 0 {
		t.Fatalf("healthy measurement tripped gates: %v", errs)
	}
}

// TestHotpathChecksHostNormalization: a uniformly 3x-slower host (naive
// probe and induction both 3x) must pass, while the same induction slowdown
// without the probe moving must fail — the ns gate is about the code, not
// the machine.
func TestHotpathChecksHostNormalization(t *testing.T) {
	ind, scan := hotpathTrajectory()
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
		mutate func(*hotpathRun, *trajectory[BenchRun], *trajectory[BenchRun])
		want   string
	}{
		{"kernel ratio", func(r *hotpathRun, _, _ *trajectory[BenchRun]) {
			r.scanInc.NsPerEntry = r.scanNaive.NsPerEntry // 1x
		}, "gini kernel regression"},
		{"alloc regression", func(r *hotpathRun, _, _ *trajectory[BenchRun]) {
			r.induction.AllocsPerOp = 21736
		}, "allocation regression"},
		{"trajectory ns win lost", func(_ *hotpathRun, ind, _ *trajectory[BenchRun]) {
			m := ind.Latest().Benchmarks["Induction"]
			m.NsPerOp = 70e6
			ind.Latest().Benchmarks["Induction"] = m
		}, "lost the induction ns win"},
		{"trajectory allocs win lost", func(r *hotpathRun, ind, _ *trajectory[BenchRun]) {
			m := ind.Latest().Benchmarks["Induction"]
			m.AllocsPerOp = 20000
			ind.Latest().Benchmarks["Induction"] = m
			r.induction.AllocsPerOp = 20000 // keep gate 2 quiet; gate 4 must still fire
		}, "lost the induction allocs win"},
		{"empty trajectory", func(_ *hotpathRun, ind, _ *trajectory[BenchRun]) {
			ind.Runs = nil
		}, "missing trajectory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ind, scan := hotpathTrajectory()
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
