package main

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/tree"
)

// model is the compiled predictor of a workload plus its walker oracle.
type model struct {
	compiled infer.Compiled
	walk     func(tab *dataset.Table) []int
	forest   *tree.Forest // what tree.DecodeModel and the serving cache hold
}

// modelOf returns the function that compiles a training outcome's model.
func modelOf(o *outcome) func() (model, error) {
	return func() (model, error) {
		if o.forest != nil {
			m, err := infer.CompileForest(o.forest)
			return model{m, o.forest.PredictTable, o.forest}, err
		}
		m, err := infer.Compile(o.tree)
		return model{m, o.tree.PredictTable, &tree.Forest{Schema: o.tree.Schema, Trees: []*tree.Tree{o.tree}}}, err
	}
}

// prediction is one measurement of the compiled batch kernel.
type prediction struct {
	model       model
	compileWall float64
	passes      int
	nsPerRow    float64 // of the fastest pass
}

// predictPasses is how many timed passes a traced run makes.
const predictPasses = 20

// measurePredict compiles the model and batch-predicts the table: one pass
// checked label-for-label against the pointer walker (an operation, counted
// like any other), then `passes` timed ones. It reports the fastest pass:
// PredictTableInto fans out over both CPUs, and on a shared host a pass runs
// in one of a few discrete regimes (x1, x1.5, x2.3 on the recording host)
// that last for seconds, so a median flips between them from run to run.
func measurePredict(rc *runCtx, compile func() (model, error), tab *dataset.Table, passes int) (prediction, error) {
	var pr prediction
	var err error
	rc.tr.do("infer", "Compile", 0, func() {
		pr.compileWall = timeIt(func() { pr.model, err = compile() }).Seconds()
	})
	if err != nil {
		return pr, fmt.Errorf("compile: %w", err)
	}
	out := make([]int, tab.NumRows())
	err = pr.model.compiled.PredictTableInto(tab, out)
	if err == nil {
		for i, want := range pr.model.walk(tab) {
			if out[i] != want {
				err = fmt.Errorf("compiled prediction of row %d is %d, the walker says %d", i, out[i], want)
				break
			}
		}
	}
	rc.op(err)
	if err != nil || passes == 0 {
		return pr, err
	}
	walls := make([]float64, passes)
	rc.tr.do("infer", "PredictTableInto", 0, func() {
		for i := range walls {
			walls[i] = timeIt(func() { err = pr.model.compiled.PredictTableInto(tab, out) }).Seconds()
		}
	})
	pr.passes = passes
	pr.nsPerRow = slices.Min(walls) * 1e9 / float64(tab.NumRows())
	return pr, err
}
