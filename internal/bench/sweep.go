// Package bench is the experiment harness: it regenerates every figure and
// quantitative claim of the paper's evaluation (section 5) on the simulated
// machine — Figure 3(a) runtime scalability, Figure 3(b) memory
// scalability, the prose's relative-speedup and memory-factor trends, the
// section 3.2 ScalParC-vs-parallel-SPRINT comparison, and the section 3.3.2
// blocked-update ablation.
//
// Record counts default to the paper's {0.2, 0.4, 0.8, 1.6, 3.2, 6.4}
// million scaled down by a configurable factor (the shapes are preserved:
// what matters is N/p, and all sizes scale together). Absolute seconds are
// modeled, not the T3D's, but who wins and how the curves bend is the
// reproduction target.
package bench

import (
	"fmt"

	"repro/classify"
	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/scalparc"
	"repro/internal/splitter"
	"repro/internal/sprint"
	"repro/internal/timing"
)

// PaperSizes are the training-set sizes of Figure 3, in records.
var PaperSizes = []int{200_000, 400_000, 800_000, 1_600_000, 3_200_000, 6_400_000}

// PaperProcs are the processor counts of Figure 3.
var PaperProcs = []int{2, 4, 8, 16, 32, 64, 128}

// Point is one cell of a sweep: one (N, p, algorithm) training run.
type Point struct {
	N, P           int
	Algo           classify.Algorithm
	ModeledSeconds float64
	PresortSeconds float64
	PeakMemBytes   int64 // busiest rank
	MaxBytesSent   int64 // busiest rank
	MaxBytesRecv   int64 // busiest rank
	Levels         int
	WallSeconds    float64
}

// SweepConfig parameterises a sweep.
type SweepConfig struct {
	Function int
	Seed     int64
	MaxDepth int
	Sizes    []int
	Procs    []int
	Algo     classify.Algorithm
	Machine  timing.Model
}

// DefaultSweep returns the Figure 3 sweep at the given scale (fraction of
// the paper's record counts; 1.0 reproduces the full sizes).
//
// Scaling preserves the full-size curve shapes exactly: per-processor
// computation and bandwidth terms are proportional to N, so dividing N by
// 1/scale and the machine's fixed latency terms by the same factor leaves
// every comp/comm ratio — and therefore every speedup and crossover —
// unchanged. ScaledMachine applies that calibration.
func DefaultSweep(scale float64) SweepConfig {
	sizes := make([]int, len(PaperSizes))
	for i, s := range PaperSizes {
		sizes[i] = int(float64(s) * scale)
		if sizes[i] < 1 {
			sizes[i] = 1
		}
	}
	return SweepConfig{
		Function: 2,
		Seed:     1,
		Sizes:    sizes,
		Procs:    append([]int(nil), PaperProcs...),
		Algo:     classify.ScalParC,
		Machine:  ScaledMachine(scale),
	}
}

// ScaledMachine returns the T3D model with its fixed per-message latencies
// scaled by the data scale, so reduced-size sweeps keep the full-size
// comp/comm balance. Scale 1.0 is the unmodified machine.
func ScaledMachine(scale float64) timing.Model {
	m := timing.T3D()
	m.P2PLatency *= scale
	m.A2ALatencyPerProc *= scale
	return m
}

// Run executes the sweep, generating each training set once and reusing it
// across processor counts.
func (cfg SweepConfig) Run() ([]Point, error) {
	if len(cfg.Sizes) == 0 || len(cfg.Procs) == 0 {
		return nil, fmt.Errorf("bench: sweep needs sizes and processor counts")
	}
	machine := cfg.Machine
	if machine == (timing.Model{}) {
		machine = timing.T3D()
	}
	var out []Point
	for _, n := range cfg.Sizes {
		tab, err := quest(cfg.Function, cfg.Seed, n, 0)
		if err != nil {
			return nil, err
		}
		for _, p := range cfg.Procs {
			pt, err := runPoint(tab, p, cfg.Algo, cfg.MaxDepth, machine)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

func runPoint(tab *dataset.Table, p int, algo classify.Algorithm, maxDepth int, machine timing.Model) (Point, error) {
	w := comm.NewWorld(p, machine)
	cfg := splitter.Config{MaxDepth: maxDepth}
	var res *scalparc.Result
	var err error
	switch algo {
	case classify.SPRINT:
		res, err = sprint.Train(w, tab, cfg)
	default:
		res, err = scalparc.TrainOpts(w, tab, cfg, scalparc.Options{})
	}
	if err != nil {
		return Point{}, err
	}
	pt := Point{
		N: tab.NumRows(), P: p, Algo: algo,
		ModeledSeconds: res.ModeledSeconds,
		PresortSeconds: res.PresortModeledSeconds,
		Levels:         res.Levels,
		WallSeconds:    res.WallSeconds,
	}
	for _, m := range res.PeakMemoryPerRank {
		if m > pt.PeakMemBytes {
			pt.PeakMemBytes = m
		}
	}
	for _, s := range res.Stats {
		if s.BytesSent > pt.MaxBytesSent {
			pt.MaxBytesSent = s.BytesSent
		}
		if s.BytesRecv > pt.MaxBytesRecv {
			pt.MaxBytesRecv = s.BytesRecv
		}
	}
	return pt, nil
}

// Grid indexes sweep points by (N, p).
type Grid struct {
	Sizes  []int
	Procs  []int
	points map[[2]int]Point
}

// NewGrid organises sweep points for table printing and shape checks.
func NewGrid(points []Point) *Grid {
	g := &Grid{points: make(map[[2]int]Point)}
	seenN := map[int]bool{}
	seenP := map[int]bool{}
	for _, pt := range points {
		g.points[[2]int{pt.N, pt.P}] = pt
		if !seenN[pt.N] {
			seenN[pt.N] = true
			g.Sizes = append(g.Sizes, pt.N)
		}
		if !seenP[pt.P] {
			seenP[pt.P] = true
			g.Procs = append(g.Procs, pt.P)
		}
	}
	return g
}

// At returns the point for (n, p); ok is false if absent.
func (g *Grid) At(n, p int) (Point, bool) {
	pt, ok := g.points[[2]int{n, p}]
	return pt, ok
}

// MustAt returns the point for (n, p) or panics.
func (g *Grid) MustAt(n, p int) Point {
	pt, ok := g.At(n, p)
	if !ok {
		panic(fmt.Sprintf("bench: no point for N=%d p=%d", n, p))
	}
	return pt
}

// RelativeSpeedup returns T(n, fromP) / T(n, toP): the paper's "relative
// speedup while going from fromP to toP processors".
func (g *Grid) RelativeSpeedup(n, fromP, toP int) float64 {
	return g.MustAt(n, fromP).ModeledSeconds / g.MustAt(n, toP).ModeledSeconds
}

// MemFactor returns mem(n, p) / mem(n, 2p): the paper's memory drop factor
// per processor doubling (ideal is 2).
func (g *Grid) MemFactor(n, p int) float64 {
	return float64(g.MustAt(n, p).PeakMemBytes) / float64(g.MustAt(n, 2*p).PeakMemBytes)
}
