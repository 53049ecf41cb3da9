package bench

import (
	"strings"
	"testing"
)

// hotpathTrajectory builds a two-run archive shaped like the checked-in
// BENCH_induction.json: a pre-optimization baseline followed by the
// optimized run.
func hotpathTrajectory() *archive[BenchRun] {
	return &archive[BenchRun]{Experiment: "EXP-HOTPATH", Runs: []BenchRun{
		{map[string]BenchMeasure{
			"Induction": {NsPerOp: 74e6, BytesPerOp: 70e6, AllocsPerOp: 21736},
		}},
		{map[string]BenchMeasure{
			"Induction": {NsPerOp: 40e6, BytesPerOp: 9e6, AllocsPerOp: 5000},
		}},
	}}
}

// healthy is a fresh measurement consistent with the archive above.
func healthy() hotpathRun {
	return hotpathRun{
		induction: BenchMeasure{NsPerOp: 41e6, AllocsPerOp: 5100},
		scanInc:   BenchMeasure{NsPerEntry: 9.1},
		scanNaive: BenchMeasure{NsPerEntry: 27.0},
	}
}

func TestHotpathChecksPass(t *testing.T) {
	if errs := hotpathChecks(healthy(), hotpathTrajectory()); len(errs) != 0 {
		t.Fatalf("healthy measurement tripped gates: %v", errs)
	}
}

// TestHotpathChecksHostNormalization: the guard is about the code, not the
// machine, and it gets there by never comparing fresh nanoseconds with
// archived ones. A uniformly 3x-slower host passes; a 3x-slower induction
// alone passes too (its speed is benchmark/'s to judge); 3x the allocations
// — the same count on every host — does not.
func TestHotpathChecksHostNormalization(t *testing.T) {
	slow := healthy()
	slow.induction.NsPerOp *= 3
	slow.scanInc.NsPerEntry *= 3
	slow.scanNaive.NsPerEntry *= 3
	if errs := hotpathChecks(slow, hotpathTrajectory()); len(errs) != 0 {
		t.Fatalf("uniformly slow host tripped gates: %v", errs)
	}

	slowInduction := healthy()
	slowInduction.induction.NsPerOp *= 3
	if errs := hotpathChecks(slowInduction, hotpathTrajectory()); len(errs) != 0 {
		t.Fatalf("induction wall time alone tripped gates: %v", errs)
	}

	leaky := healthy()
	leaky.induction.AllocsPerOp *= 3
	if errs := hotpathChecks(leaky, hotpathTrajectory()); len(errs) == 0 {
		t.Fatal("3x the allocations per induction passed the allocation gate")
	}
}

func TestHotpathChecksGates(t *testing.T) {
	setLatest := func(ind *archive[BenchRun], edit func(*BenchMeasure)) {
		m := ind.Runs[len(ind.Runs)-1].Benchmarks["Induction"]
		edit(&m)
		ind.Runs[len(ind.Runs)-1].Benchmarks["Induction"] = m
	}
	cases := []struct {
		name   string
		mutate func(*hotpathRun, *archive[BenchRun])
		want   string
	}{
		{"kernel ratio", func(r *hotpathRun, _ *archive[BenchRun]) {
			r.scanInc.NsPerEntry = r.scanNaive.NsPerEntry // 1x
		}, "gini kernel regression"},
		{"alloc regression", func(r *hotpathRun, _ *archive[BenchRun]) {
			r.induction.AllocsPerOp = 21736
		}, "allocation regression"},
		{"trajectory ns win lost", func(_ *hotpathRun, ind *archive[BenchRun]) {
			setLatest(ind, func(m *BenchMeasure) { m.NsPerOp = 70e6 })
		}, "lost the induction ns win"},
		{"trajectory allocs win lost", func(r *hotpathRun, ind *archive[BenchRun]) {
			setLatest(ind, func(m *BenchMeasure) { m.AllocsPerOp = 20000 })
			r.induction.AllocsPerOp = 20000 // keep gate 2 quiet; gate 3 must still fire
		}, "lost the induction allocs win"},
		{"empty trajectory", func(_ *hotpathRun, ind *archive[BenchRun]) {
			ind.Runs = nil
		}, "missing trajectory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ind := hotpathTrajectory()
			fresh := healthy()
			tc.mutate(&fresh, ind)
			errs := hotpathChecks(fresh, ind)
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
