// Census: income-group classification over a census-like schema — the kind
// of decision-support workload the paper's introduction motivates. Builds a
// hand-defined schema (mixed continuous and categorical attributes), a
// synthetic population with a noisy ground-truth rule, trains with
// ScalParC, prunes, and inspects the induced tree.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"repro/classify"
)

func buildPopulation(n int, seed int64) (*classify.Table, error) {
	schema := &classify.Schema{
		Attrs: []classify.Attribute{
			{Name: "age", Kind: classify.Continuous},
			{Name: "hours_per_week", Kind: classify.Continuous},
			{Name: "education", Kind: classify.Categorical,
				Values: []string{"none", "highschool", "bachelors", "masters", "doctorate"}},
			{Name: "sector", Kind: classify.Categorical,
				Values: []string{"private", "public", "self_employed"}},
			{Name: "capital_gain", Kind: classify.Continuous},
		},
		Classes: []string{"<=50K", ">50K"},
	}
	tab := classify.NewTable(schema, n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		age := 18 + float64(rng.Float64()*62)
		hours := 10 + float64(rng.Float64()*60)
		edu := rng.Intn(5)
		sector := rng.Intn(3)
		gain := 0.0
		if rng.Float64() < 0.2 {
			gain = rng.Float64() * 40000
		}
		// Ground truth: income driven by education, hours, and capital
		// gains, with 8% label noise.
		score := float64(float64(edu)*1.5) + hours/20 + gain/10000
		if age > 35 && age < 60 {
			score += 1
		}
		if sector == 2 {
			score += 0.5
		}
		class := 0
		if score > 4.5 {
			class = 1
		}
		if rng.Float64() < 0.08 {
			class = 1 - class
		}
		if err := tab.AppendRow([]float64{age, hours, float64(edu), float64(sector), gain}, class); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

func main() {
	tab, err := buildPopulation(40_000, 7)
	if err != nil {
		log.Fatal(err)
	}
	train, test := tab.Split(0.8)

	// Noisy labels overfit an unbounded tree; train pruned and unpruned
	// to see the effect.
	unpruned, err := classify.Train(train, classify.Config{Processors: 16})
	if err != nil {
		log.Fatal(err)
	}
	pruned, err := classify.Train(train, classify.Config{Processors: 16, Prune: true})
	if err != nil {
		log.Fatal(err)
	}

	for _, m := range []struct {
		name  string
		model *classify.Model
	}{{"unpruned", unpruned}, {"pruned", pruned}} {
		eval, err := classify.Evaluate(m.model.Tree, test)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %4d nodes (depth %2d)  held-out accuracy %.4f\n",
			m.name, m.model.Tree.NumNodes(), m.model.Tree.Depth(), eval.Accuracy)
	}
	fmt.Printf("pruning collapsed %d internal nodes\n\n", pruned.Metrics.PrunedNodes)

	eval, err := classify.Evaluate(pruned.Tree, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pruned model per-class report:\n%s\n", eval)

	fmt.Println("top of the pruned tree:")
	dumpTop(pruned.Tree, 3)
}

// dumpTop prints the tree truncated to the given depth: the full rendering
// is indented two spaces per level, so lines are filtered by indentation.
func dumpTop(t *classify.Tree, maxDepth int) {
	var b strings.Builder
	if err := t.Dump(&b); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		depth := (len(line) - len(strings.TrimLeft(line, " "))) / 2
		if depth <= maxDepth {
			fmt.Println(line)
		}
	}
}
