package classify

import "fmt"

// ClassMetrics holds per-class quality measures.
//
// Degenerate folds are well-defined: a class absent from the evaluated
// table (Support 0) or never predicted has Precision, Recall, and F1 of
// exactly 0 — never NaN — so fold averages stay finite.
type ClassMetrics struct {
	Class     string
	Precision float64
	Recall    float64
	F1        float64
	Support   int
}

// Evaluation summarises a tree's performance on a labeled table.
type Evaluation struct {
	N        int
	Correct  int
	Accuracy float64
	// Confusion[actual][predicted] counts records.
	Confusion [][]int
	PerClass  []ClassMetrics
}

// Evaluate classifies every record of the table and compares against its
// labels: EvaluateForest of a forest of one.
func Evaluate(t *Tree, tab *Table) (*Evaluation, error) {
	if t == nil || tab == nil {
		return nil, fmt.Errorf("classify: Evaluate needs a tree and a table")
	}
	return EvaluateForest(&Forest{Schema: t.Schema, Trees: []*Tree{t}}, tab)
}

// evaluateLabels assembles the evaluation from precomputed predictions.
func evaluateLabels(classes []string, pred []int, tab *Table) *Evaluation {
	nc := len(classes)
	ev := &Evaluation{N: tab.NumRows(), Confusion: make([][]int, nc)}
	for i := range ev.Confusion {
		ev.Confusion[i] = make([]int, nc)
	}
	for r, p := range pred {
		actual := int(tab.Class[r])
		ev.Confusion[actual][p]++
		if p == actual {
			ev.Correct++
		}
	}
	if ev.N > 0 {
		ev.Accuracy = float64(ev.Correct) / float64(ev.N)
	}

	ev.PerClass = make([]ClassMetrics, nc)
	for j := 0; j < nc; j++ {
		tp := ev.Confusion[j][j]
		var fp, fn, support int
		for k := 0; k < nc; k++ {
			support += ev.Confusion[j][k]
			if k != j {
				fn += ev.Confusion[j][k]
				fp += ev.Confusion[k][j]
			}
		}
		cm := ClassMetrics{Class: classes[j], Support: support}
		if tp+fp > 0 {
			cm.Precision = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			cm.Recall = float64(tp) / float64(tp+fn)
		}
		if cm.Precision+cm.Recall > 0 {
			cm.F1 = 2 * cm.Precision * cm.Recall / (cm.Precision + cm.Recall)
		}
		ev.PerClass[j] = cm
	}
	return ev
}

// String renders a compact evaluation report.
func (e *Evaluation) String() string {
	s := fmt.Sprintf("accuracy %.4f (%d/%d)\n", e.Accuracy, e.Correct, e.N)
	for _, c := range e.PerClass {
		s += fmt.Sprintf("  %-12s precision %.3f recall %.3f f1 %.3f support %d\n",
			c.Class, c.Precision, c.Recall, c.F1, c.Support)
	}
	return s
}
