// Package datagen implements the synthetic training-set generator the paper
// evaluates on: "the training sets were artificially generated using a
// scheme similar to that used in SPRINT", i.e. the IBM Quest generator of
// Agrawal, Imielinski and Swami ("Database Mining: A Performance
// Perspective", 1993), also used by SLIQ and SPRINT.
//
// Records describe people with nine attributes (salary, commission, age,
// elevel, car, zipcode, hvalue, hyears, loan); one of ten classification
// functions assigns each record to Group A or Group B. The paper's runs use
// seven attributes and two class labels; the seven-attribute projection
// drops car and zipcode (no function tests them directly — zipcode only
// enters through hvalue, which the generator still derives internally).
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
)

// AttrSet selects which attribute projection the generated schema exposes.
type AttrSet int

const (
	// Nine is the full Quest schema.
	Nine AttrSet = iota
	// Seven is the paper's seven-attribute projection (no car, no zipcode).
	Seven
)

// Config parameterises the generator.
type Config struct {
	// Function selects the Quest classification function, 1..10.
	Function int
	// Attrs selects the schema projection.
	Attrs AttrSet
	// Seed makes generation deterministic.
	Seed int64
	// LabelNoise flips each class label independently with this
	// probability (0 disables noise).
	LabelNoise float64
	// Perturbation is the Quest generator's original noise mechanism: a
	// perturbation factor p perturbs every continuous attribute value v
	// (after the label is assigned) to v + r·p·(hi-lo), with r uniform in
	// [-0.5, 0.5] and [lo, hi] the attribute's range, clamped to the
	// range. The Quest experiments use p = 0.05.
	Perturbation float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Function < 1 || c.Function > 10 {
		return fmt.Errorf("datagen: function %d out of range 1..10", c.Function)
	}
	if c.Attrs != Nine && c.Attrs != Seven {
		return fmt.Errorf("datagen: invalid attribute set %d", int(c.Attrs))
	}
	if c.LabelNoise < 0 || c.LabelNoise >= 1 {
		return fmt.Errorf("datagen: label noise %v out of [0,1)", c.LabelNoise)
	}
	if c.Perturbation < 0 || c.Perturbation > 1 {
		return fmt.Errorf("datagen: perturbation %v out of [0,1]", c.Perturbation)
	}
	return nil
}

// attrRange holds a continuous attribute's generation range, used to scale
// and clamp perturbations.
type attrRange struct{ lo, hi float64 }

// ranges of the continuous person fields, in person-field order: salary,
// commission, age, hvalue, hyears, loan. hvalue's range spans the extreme
// zipcode base levels.
var contRanges = map[string]attrRange{
	"salary":     {20000, 150000},
	"commission": {0, 75000},
	"age":        {20, 80},
	"hvalue":     {0.5 * 100000, 1.5 * 10 * 100000},
	"hyears":     {1, 30},
	"loan":       {0, 500000},
}

// perturb applies the Quest perturbation to one continuous value.
func perturb(rng *rand.Rand, v float64, r attrRange, p float64) float64 {
	// Each float64(...) in this file rounds a product, so no CPU fuses it
	// into an addition: the same table on every architecture (make fma).
	v += float64((float64(rng.Float64()) - 0.5) * p * (r.hi - r.lo))
	if v < r.lo {
		v = r.lo
	}
	if v > r.hi {
		v = r.hi
	}
	return v
}

// Schema returns the dataset schema for the configured attribute set.
func Schema(set AttrSet) *dataset.Schema {
	elevel := dataset.Attribute{Name: "elevel", Kind: dataset.Categorical,
		Values: []string{"e0", "e1", "e2", "e3", "e4"}}
	car := dataset.Attribute{Name: "car", Kind: dataset.Categorical, Values: carMakes()}
	zipcode := dataset.Attribute{Name: "zipcode", Kind: dataset.Categorical, Values: zipcodes()}
	cont := func(n string) dataset.Attribute {
		return dataset.Attribute{Name: n, Kind: dataset.Continuous}
	}
	var attrs []dataset.Attribute
	switch set {
	case Nine:
		attrs = []dataset.Attribute{
			cont("salary"), cont("commission"), cont("age"), elevel, car,
			zipcode, cont("hvalue"), cont("hyears"), cont("loan"),
		}
	default: // Seven
		attrs = []dataset.Attribute{
			cont("salary"), cont("commission"), cont("age"), elevel,
			cont("hvalue"), cont("hyears"), cont("loan"),
		}
	}
	return &dataset.Schema{Attrs: attrs, Classes: []string{"GroupA", "GroupB"}}
}

func carMakes() []string {
	out := make([]string, 20)
	for i := range out {
		out[i] = fmt.Sprintf("make%02d", i+1)
	}
	return out
}

func zipcodes() []string {
	out := make([]string, 9)
	for i := range out {
		out[i] = fmt.Sprintf("zip%d", i)
	}
	return out
}

// person is one raw generated record before projection.
type person struct {
	salary, commission, age float64
	elevel, car, zipcode    int
	hvalue, hyears, loan    float64
}

// labeller is what distinguishes the generators that share the one record
// loop: how a person gets its class, what label noise turns a class into,
// and which continuous fields perturbation moves once the class is fixed.
type labeller interface {
	label(p person) int
	relabel(rng *rand.Rand, class int) int
	perturb(rng *rand.Rand, p person, factor float64) person
}

// generate is the one Quest record loop: n people drawn from cfg's seeded
// stream, each labelled, optionally mislabelled and perturbed, projected
// onto schema's leading cfg.Attrs columns, its remaining columns filled with
// uniform [0, 1) noise from the same stream. With no such columns a record
// draws nothing extra, so every generator's stream is the plain one's.
func generate(cfg Config, n int, schema *dataset.Schema, lab labeller) (*dataset.Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("datagen: negative record count %d", n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := dataset.NewTable(schema, n)
	// hvalue depends on the zipcode's base level k, fixed per zipcode for
	// a given seed (as in the Quest generator).
	zipBase := make([]float64, 9)
	for i := range zipBase {
		zipBase[i] = float64(rng.Intn(10))
	}
	row := make([]float64, schema.NumAttrs())
	nBase := Schema(cfg.Attrs).NumAttrs()
	base, noise := row[:nBase], row[nBase:]
	for i := 0; i < n; i++ {
		p := genPerson(rng, zipBase)
		class := lab.label(p)
		if cfg.LabelNoise > 0 && rng.Float64() < cfg.LabelNoise {
			class = lab.relabel(rng, class)
		}
		if cfg.Perturbation > 0 {
			p = lab.perturb(rng, p, cfg.Perturbation)
		}
		project(cfg.Attrs, p, base)
		for a := range noise {
			noise[a] = rng.Float64()
		}
		if err := t.AppendRow(row, class); err != nil {
			return nil, fmt.Errorf("datagen: record %d: %w", i, err)
		}
	}
	return t, nil
}

// Generate produces n records under the configuration.
func Generate(cfg Config, n int) (*dataset.Table, error) {
	return GenerateWide(cfg, n, 0)
}

// TrainTest generates a train/test pair for generalization experiments:
// the training set uses cfg verbatim (including LabelNoise and
// Perturbation), the test set is drawn from the same classification
// function with a different seed and no noise of either kind, so test
// accuracy measures recovery of the true concept rather than noise
// memorization. EXP-FOREST and the scalparc forest accuracy test are
// built on this split.
func TrainTest(cfg Config, nTrain, nTest int) (train, test *dataset.Table, err error) {
	train, err = Generate(cfg, nTrain)
	if err != nil {
		return nil, nil, err
	}
	tcfg := cfg
	tcfg.Seed = cfg.Seed + 1
	tcfg.LabelNoise = 0
	tcfg.Perturbation = 0
	test, err = Generate(tcfg, nTest)
	if err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// GenerateMultiClass is a multi-class extension of the Quest generator
// (the original functions are all two-class): records are labeled with one
// of `classes` labels by equal-width bands of a weighted income score
// (0.67·(salary+commission) − 0.2·loan, the function-7 quantity), then
// optional label noise reassigns uniformly. Classes must be in
// [2, MaxClasses].
func GenerateMultiClass(cfg Config, n, classes int) (*dataset.Table, error) {
	if cfg.Function == 0 {
		cfg.Function = 7 // unused for labeling, but keeps Validate happy
	}
	if classes < 2 || classes > dataset.MaxClasses {
		return nil, fmt.Errorf("datagen: class count %d out of [2,%d]", classes, dataset.MaxClasses)
	}
	schema := &dataset.Schema{Attrs: Schema(cfg.Attrs).Attrs, Classes: make([]string, classes)}
	for i := range schema.Classes {
		schema.Classes[i] = fmt.Sprintf("band%d", i)
	}
	return generate(cfg, n, schema, incomeBands(classes))
}

// incomeBands labels a person with one of n equal-width bands of the income
// score; noise redraws the band uniformly, perturbation moves salary and
// loan only.
type incomeBands int

func (n incomeBands) label(p person) int {
	// Score range: 0.67·(20000..225000) − 0.2·(0..500000).
	const scoreLo, scoreHi = 0.67*20000 - 0.2*500000, 0.67 * 225000
	score := float64(0.67*(p.salary+p.commission)) - float64(0.2*p.loan)
	band := int((score - scoreLo) / (scoreHi - scoreLo) * float64(n))
	return min(max(band, 0), int(n)-1)
}

func (n incomeBands) relabel(rng *rand.Rand, _ int) int { return rng.Intn(int(n)) }

func (incomeBands) perturb(rng *rand.Rand, p person, f float64) person {
	p.salary = perturb(rng, p.salary, contRanges["salary"], f)
	p.loan = perturb(rng, p.loan, contRanges["loan"], f)
	return p
}

func genPerson(rng *rand.Rand, zipBase []float64) person {
	var p person
	p.salary = uniform(rng, 20000, 150000)
	if p.salary >= 75000 {
		p.commission = 0
	} else {
		p.commission = uniform(rng, 10000, 75000)
	}
	p.age = uniform(rng, 20, 80)
	p.elevel = rng.Intn(5)
	p.car = rng.Intn(20)
	p.zipcode = rng.Intn(9)
	k := zipBase[p.zipcode]
	p.hvalue = uniform(rng, 0.5*(k+1)*100000, 1.5*(k+1)*100000)
	p.hyears = uniform(rng, 1, 30)
	p.loan = uniform(rng, 0, 500000)
	return p
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + float64(rng.Float64()*(hi-lo))
}

func project(set AttrSet, p person, row []float64) {
	switch set {
	case Nine:
		row[0], row[1], row[2] = p.salary, p.commission, p.age
		row[3], row[4], row[5] = float64(p.elevel), float64(p.car), float64(p.zipcode)
		row[6], row[7], row[8] = p.hvalue, p.hyears, p.loan
	default:
		row[0], row[1], row[2], row[3] = p.salary, p.commission, p.age, float64(p.elevel)
		row[4], row[5], row[6] = p.hvalue, p.hyears, p.loan
	}
}

// questFunction is one of the ten two-class Quest classification functions:
// noise flips the group, perturbation moves every continuous field.
type questFunction int

func (questFunction) relabel(_ *rand.Rand, group int) int { return 1 - group }

func (questFunction) perturb(rng *rand.Rand, p person, f float64) person {
	p.salary = perturb(rng, p.salary, contRanges["salary"], f)
	if p.commission > 0 {
		p.commission = perturb(rng, p.commission, contRanges["commission"], f)
	}
	p.age = perturb(rng, p.age, contRanges["age"], f)
	p.hvalue = perturb(rng, p.hvalue, contRanges["hvalue"], f)
	p.hyears = perturb(rng, p.hyears, contRanges["hyears"], f)
	p.loan = perturb(rng, p.loan, contRanges["loan"], f)
	return p
}

// label applies the function and returns 0 for Group A, 1 for B.
func (f questFunction) label(p person) int {
	inA := false
	switch f {
	case 1:
		inA = p.age < 40 || p.age >= 60
	case 2:
		inA = band(p.age, p.salary, 50000, 100000, 75000, 125000, 25000, 75000)
	case 3:
		switch {
		case p.age < 40:
			inA = p.elevel <= 1
		case p.age < 60:
			inA = p.elevel >= 1 && p.elevel <= 3
		default:
			inA = p.elevel >= 2
		}
	case 4:
		switch {
		case p.age < 40:
			if p.elevel <= 1 {
				inA = within(p.salary, 25000, 75000)
			} else {
				inA = within(p.salary, 50000, 100000)
			}
		case p.age < 60:
			if p.elevel >= 1 && p.elevel <= 3 {
				inA = within(p.salary, 50000, 100000)
			} else {
				inA = within(p.salary, 75000, 125000)
			}
		default:
			if p.elevel >= 2 {
				inA = within(p.salary, 50000, 100000)
			} else {
				inA = within(p.salary, 25000, 75000)
			}
		}
	case 5:
		switch {
		case p.age < 40:
			inA = within(p.salary, 50000, 100000) && within(p.loan, 100000, 300000)
		case p.age < 60:
			inA = within(p.salary, 75000, 125000) && within(p.loan, 200000, 400000)
		default:
			inA = within(p.salary, 25000, 75000) && within(p.loan, 300000, 500000)
		}
	case 6:
		total := p.salary + p.commission
		inA = band(p.age, total, 50000, 100000, 75000, 125000, 25000, 75000)
	case 7:
		inA = float64(0.67*(p.salary+p.commission))-float64(0.2*p.loan)-20000 > 0
	case 8:
		inA = float64(0.67*(p.salary+p.commission))-float64(5000*float64(p.elevel))-20000 > 0
	case 9:
		inA = float64(0.67*(p.salary+p.commission))-float64(5000*float64(p.elevel))-float64(0.2*p.loan)-10000 > 0
	case 10:
		equity := 0.0
		if p.hyears >= 20 {
			equity = 0.1 * p.hvalue * (p.hyears - 20)
		}
		inA = float64(0.67*(p.salary+p.commission))-float64(5000*float64(p.elevel))+float64(0.3*equity)-10000 > 0
	}
	if inA {
		return 0
	}
	return 1
}

// band tests the classic three-age-band salary predicate.
func band(age, v, lo1, hi1, lo2, hi2, lo3, hi3 float64) bool {
	switch {
	case age < 40:
		return within(v, lo1, hi1)
	case age < 60:
		return within(v, lo2, hi2)
	default:
		return within(v, lo3, hi3)
	}
}

func within(v, lo, hi float64) bool { return v >= lo && v <= hi }
