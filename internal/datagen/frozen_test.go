package datagen

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// The three generator bodies as they stood before they were folded into the
// one record loop (generate), frozen verbatim as the reference
// TestOneRecordLoopIsByteIdentical compares against.

func classify(f int, p person) int { return questFunction(f).label(p) }

func frozenGenerate(cfg Config, n int) (*dataset.Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("datagen: negative record count %d", n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	schema := Schema(cfg.Attrs)
	t := dataset.NewTable(schema, n)
	// hvalue depends on the zipcode's base level k, fixed per zipcode for
	// a given seed (as in the Quest generator).
	zipBase := make([]float64, 9)
	for i := range zipBase {
		zipBase[i] = float64(rng.Intn(10))
	}
	row := make([]float64, schema.NumAttrs())
	for i := 0; i < n; i++ {
		p := genPerson(rng, zipBase)
		group := classify(cfg.Function, p)
		if cfg.LabelNoise > 0 && rng.Float64() < cfg.LabelNoise {
			group = 1 - group
		}
		if cfg.Perturbation > 0 {
			p.salary = perturb(rng, p.salary, contRanges["salary"], cfg.Perturbation)
			if p.commission > 0 {
				p.commission = perturb(rng, p.commission, contRanges["commission"], cfg.Perturbation)
			}
			p.age = perturb(rng, p.age, contRanges["age"], cfg.Perturbation)
			p.hvalue = perturb(rng, p.hvalue, contRanges["hvalue"], cfg.Perturbation)
			p.hyears = perturb(rng, p.hyears, contRanges["hyears"], cfg.Perturbation)
			p.loan = perturb(rng, p.loan, contRanges["loan"], cfg.Perturbation)
		}
		project(cfg.Attrs, p, row)
		if err := t.AppendRow(row, group); err != nil {
			return nil, fmt.Errorf("datagen: record %d: %w", i, err)
		}
	}
	return t, nil
}

// TrainTest generates a train/test pair for generalization experiments:

func frozenGenerateWide(cfg Config, n, noise int) (*dataset.Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("datagen: negative record count %d", n)
	}
	if noise < 0 {
		return nil, fmt.Errorf("datagen: negative noise attribute count %d", noise)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	schema := WideSchema(cfg.Attrs, noise)
	t := dataset.NewTable(schema, n)
	zipBase := make([]float64, 9)
	for i := range zipBase {
		zipBase[i] = float64(rng.Intn(10))
	}
	nBase := Schema(cfg.Attrs).NumAttrs()
	row := make([]float64, schema.NumAttrs())
	for i := 0; i < n; i++ {
		p := genPerson(rng, zipBase)
		group := classify(cfg.Function, p)
		if cfg.LabelNoise > 0 && rng.Float64() < cfg.LabelNoise {
			group = 1 - group
		}
		if cfg.Perturbation > 0 {
			p.salary = perturb(rng, p.salary, contRanges["salary"], cfg.Perturbation)
			if p.commission > 0 {
				p.commission = perturb(rng, p.commission, contRanges["commission"], cfg.Perturbation)
			}
			p.age = perturb(rng, p.age, contRanges["age"], cfg.Perturbation)
			p.hvalue = perturb(rng, p.hvalue, contRanges["hvalue"], cfg.Perturbation)
			p.hyears = perturb(rng, p.hyears, contRanges["hyears"], cfg.Perturbation)
			p.loan = perturb(rng, p.loan, contRanges["loan"], cfg.Perturbation)
		}
		project(cfg.Attrs, p, row[:nBase])
		for a := nBase; a < len(row); a++ {
			row[a] = rng.Float64()
		}
		if err := t.AppendRow(row, group); err != nil {
			return nil, fmt.Errorf("datagen: record %d: %w", i, err)
		}
	}
	return t, nil
}

func frozenGenerateMultiClass(cfg Config, n, classes int) (*dataset.Table, error) {
	if cfg.Function == 0 {
		cfg.Function = 7 // unused for labeling, but keeps Validate happy
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if classes < 2 || classes > dataset.MaxClasses {
		return nil, fmt.Errorf("datagen: class count %d out of [2,%d]", classes, dataset.MaxClasses)
	}
	if n < 0 {
		return nil, fmt.Errorf("datagen: negative record count %d", n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := Schema(cfg.Attrs)
	schema := &dataset.Schema{Attrs: base.Attrs, Classes: make([]string, classes)}
	for i := range schema.Classes {
		schema.Classes[i] = fmt.Sprintf("band%d", i)
	}
	t := dataset.NewTable(schema, n)
	zipBase := make([]float64, 9)
	for i := range zipBase {
		zipBase[i] = float64(rng.Intn(10))
	}
	// Score range: 0.67·(20000..225000) − 0.2·(0..500000).
	const scoreLo, scoreHi = 0.67*20000 - 0.2*500000, 0.67 * 225000
	row := make([]float64, schema.NumAttrs())
	for i := 0; i < n; i++ {
		p := genPerson(rng, zipBase)
		score := 0.67*(p.salary+p.commission) - 0.2*p.loan
		band := int((score - scoreLo) / (scoreHi - scoreLo) * float64(classes))
		if band < 0 {
			band = 0
		}
		if band >= classes {
			band = classes - 1
		}
		if cfg.LabelNoise > 0 && rng.Float64() < cfg.LabelNoise {
			band = rng.Intn(classes)
		}
		if cfg.Perturbation > 0 {
			p.salary = perturb(rng, p.salary, contRanges["salary"], cfg.Perturbation)
			p.loan = perturb(rng, p.loan, contRanges["loan"], cfg.Perturbation)
		}
		project(cfg.Attrs, p, row)
		if err := t.AppendRow(row, band); err != nil {
			return nil, fmt.Errorf("datagen: record %d: %w", i, err)
		}
	}
	return t, nil
}

// TestOneRecordLoopIsByteIdentical: Generate, GenerateWide and
// GenerateMultiClass write the same CSV bytes as their frozen bodies over
// every function, both projections, and each noise mechanism.
func TestOneRecordLoopIsByteIdentical(t *testing.T) {
	csv := func(tab *dataset.Table, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, tab); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	const n = 300
	for function := 1; function <= 10; function++ {
		for _, set := range []AttrSet{Seven, Nine} {
			for name, cfg := range map[string]Config{
				"clean":        {},
				"label noise":  {LabelNoise: 0.2},
				"perturbation": {Perturbation: 0.05},
			} {
				cfg.Function, cfg.Attrs, cfg.Seed = function, set, int64(function)
				t.Run(fmt.Sprintf("F%d/attrs%d/%s", function, set, name), func(t *testing.T) {
					if !bytes.Equal(csv(Generate(cfg, n)), csv(frozenGenerate(cfg, n))) {
						t.Error("Generate differs from its frozen body")
					}
					for _, noise := range []int{0, 5} {
						if !bytes.Equal(csv(GenerateWide(cfg, n, noise)), csv(frozenGenerateWide(cfg, n, noise))) {
							t.Errorf("GenerateWide(noise=%d) differs from its frozen body", noise)
						}
					}
					for _, classes := range []int{2, 5} {
						if !bytes.Equal(csv(GenerateMultiClass(cfg, n, classes)), csv(frozenGenerateMultiClass(cfg, n, classes))) {
							t.Errorf("GenerateMultiClass(classes=%d) differs from its frozen body", classes)
						}
					}
				})
			}
		}
	}
}
