package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/classify"
	"repro/internal/scalparc"
	"repro/internal/timing"
)

// testEnv is a benchrunner environment printing into buf on the given
// machine, with the CLI's default workload knobs.
func testEnv(buf *bytes.Buffer, machine timing.Model) *Env {
	return &Env{Out: buf, Function: 2, Seed: 1, Machine: machine}
}

// smallSweep runs a fast sweep whose shapes are still paper-like.
func smallSweep(t *testing.T) *Grid {
	t.Helper()
	cfg := SweepConfig{
		Function: 2, Seed: 1,
		Sizes:   []int{2_000, 16_000},
		Procs:   []int{2, 4, 8, 16},
		Algo:    classify.ScalParC,
		Machine: ScaledMachine(1.0 / 100),
	}
	pts, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	return NewGrid(pts)
}

func TestDefaultSweepScaling(t *testing.T) {
	cfg := DefaultSweep(0.5)
	if len(cfg.Sizes) != len(PaperSizes) {
		t.Fatal("size count wrong")
	}
	for i, s := range cfg.Sizes {
		if s != PaperSizes[i]/2 {
			t.Fatalf("size %d = %d, want %d", i, s, PaperSizes[i]/2)
		}
	}
	if len(cfg.Procs) != len(PaperProcs) {
		t.Fatal("procs wrong")
	}
}

func TestScaledMachine(t *testing.T) {
	full := timing.T3D()
	half := ScaledMachine(0.5)
	if half.P2PLatency != full.P2PLatency/2 || half.A2ALatencyPerProc != full.A2ALatencyPerProc/2 {
		t.Fatal("latencies not scaled")
	}
	if half.P2PBandwidth != full.P2PBandwidth || half.ScanRate != full.ScanRate {
		t.Fatal("rates must not scale")
	}
	if ScaledMachine(1.0) != full {
		t.Fatal("scale 1 must be the unmodified machine")
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := (SweepConfig{Function: 2}).Run(); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := (SweepConfig{Function: 0, Sizes: []int{10}, Procs: []int{2}}).Run(); err == nil {
		t.Fatal("invalid generator function accepted")
	}
}

func TestSweepShapesMatchPaper(t *testing.T) {
	g := smallSweep(t)

	// FIG3a shape: at the larger size, runtime decreases monotonically
	// over this processor range.
	prev := g.MustAt(16_000, 2).ModeledSeconds
	for _, p := range []int{4, 8, 16} {
		cur := g.MustAt(16_000, p).ModeledSeconds
		if cur >= prev {
			t.Fatalf("runtime not decreasing at p=%d: %v >= %v", p, cur, prev)
		}
		prev = cur
	}

	// TXT-SPD shape: the larger problem achieves the better relative
	// speedup over the same processor range.
	small := g.RelativeSpeedup(2_000, 2, 16)
	large := g.RelativeSpeedup(16_000, 2, 16)
	if large <= small {
		t.Fatalf("relative speedup should improve with size: %v (2k) vs %v (16k)", small, large)
	}
	if large > 8.0 {
		t.Fatalf("relative speedup %v exceeds ideal 8x", large)
	}

	// FIG3b / TXT-MEM shape: memory per processor drops by roughly two
	// per doubling at small p for the larger size.
	f := g.MemFactor(16_000, 2)
	if f < 1.7 || f > 2.1 {
		t.Fatalf("memory factor 2->4 = %v, want ~2", f)
	}

	// Levels (and the tree) are identical across processor counts.
	for _, p := range []int{4, 8, 16} {
		if g.MustAt(16_000, p).Levels != g.MustAt(16_000, 2).Levels {
			t.Fatal("levels differ across processor counts")
		}
	}
}

func TestGridAccessors(t *testing.T) {
	g := NewGrid([]Point{{N: 10, P: 2, ModeledSeconds: 4}, {N: 10, P: 4, ModeledSeconds: 2, PeakMemBytes: 100}})
	if _, ok := g.At(10, 8); ok {
		t.Fatal("missing point reported present")
	}
	if pt, ok := g.At(10, 4); !ok || pt.ModeledSeconds != 2 {
		t.Fatal("At wrong")
	}
	if g.RelativeSpeedup(10, 2, 4) != 2 {
		t.Fatal("RelativeSpeedup wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAt on missing point did not panic")
		}
	}()
	g.MustAt(99, 99)
}

func TestExperimentPrinters(t *testing.T) {
	g := smallSweep(t)
	var buf bytes.Buffer
	Fig3a(&buf, g)
	Fig3b(&buf, g)
	Speedups(&buf, g)
	MemFactors(&buf, g)
	out := buf.String()
	for _, want := range []string{"FIG3a", "FIG3b", "TXT-SPD", "TXT-MEM", "2k", "16k", "headline", "rel. speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed experiments missing %q", want)
		}
	}
}

func TestSpeedupRanges(t *testing.T) {
	lf, lt, hf, ht := speedupRanges([]int{2, 4, 8, 16, 32, 64, 128})
	if lf != 8 || lt != 32 || hf != 32 || ht != 128 {
		t.Fatalf("paper ranges not picked: %d %d %d %d", lf, lt, hf, ht)
	}
	lf, lt, hf, ht = speedupRanges([]int{2, 4, 16})
	if lf != 2 || lt != 4 || hf != 4 || ht != 16 {
		t.Fatalf("fallback ranges wrong: %d %d %d %d", lf, lt, hf, ht)
	}
}

func TestSprintCmpRunsAndShowsGap(t *testing.T) {
	var buf bytes.Buffer
	env := testEnv(&buf, ScaledMachine(1.0/100))
	env.MaxDepth = 6
	if err := SprintCmp(env, 8000, []int{2, 8}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "CMP-SPRINT") || !strings.Contains(out, "sprint") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestBlocksRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Blocks(testEnv(&buf, timing.T3D()), 4000, []int{2, 4}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ABL-BLOCK") || !strings.Contains(out, "rounds") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestSerialMemoryWallRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := SerialMemoryWall(testEnv(&buf, timing.T3D()), 2000, []int64{1 << 30, 2000}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "MOT-SERIAL") || !strings.Contains(out, "stages") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestPerNodeRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := PerNode(testEnv(&buf, ScaledMachine(0.01)), 800, []int{2, 4}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ABL-NODE") || !strings.Contains(out, "per-node") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestBatchedRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Batched(testEnv(&buf, ScaledMachine(0.01)), 800, []int{2, 4}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ABL-BATCH") || !strings.Contains(out, "batched") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRebalanceRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Rebalance(testEnv(&buf, ScaledMachine(0.01)), 800, []int{2, 4}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ABL-REBAL") || !strings.Contains(out, "rebalanced") {
		t.Fatalf("output:\n%s", out)
	}
}

// TestAblationReturnsTrainingError: a training error inside an ablation
// comes back as the experiment's error — it used to panic.
func TestAblationReturnsTrainingError(t *testing.T) {
	var buf bytes.Buffer
	env := testEnv(&buf, ScaledMachine(0.01))
	tab, err := env.quest(200, 0)
	if err != nil {
		t.Fatal(err)
	}
	invalid := scalparc.Options{PerNodeComms: true, BatchedEnquiry: true}
	if err := ablation(env, tab, []int{2}, invalid, "procs", allToAlls); err == nil {
		t.Fatal("mutually exclusive ablation options trained without an error")
	}
}

func TestWeakScalingRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := WeakScaling(testEnv(&buf, ScaledMachine(0.01)), 300, []int{2, 4, 8}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "EXP-WEAK") || !strings.Contains(out, "scaled efficiency") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestLevelsRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Levels(testEnv(&buf, ScaledMachine(0.01)), 2000, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "EXP-LEVELS") || !strings.Contains(out, "active nodes") || !strings.Contains(out, "presort") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestMicroRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Micro(testEnv(&buf, timing.T3D())); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"MICRO", "point-to-point", "all-to-all", "prefix scan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("micro output missing %q:\n%s", want, out)
		}
	}
}

func TestHuman(t *testing.T) {
	cases := map[int]string{
		500:       "500",
		2000:      "2k",
		1_600_000: "1.6m",
		6_400_000: "6.4m",
	}
	for n, want := range cases {
		if got := human(n); got != want {
			t.Errorf("human(%d)=%q want %q", n, got, want)
		}
	}
}
