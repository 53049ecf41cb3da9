// Package dataset defines the training-data model shared by every
// classifier in this repository: schemas with continuous and categorical
// attributes, column-oriented tables of records, and the vertically
// fragmented attribute lists (one list per attribute, each entry carrying a
// value, a global record id, and a class label) that SPRINT-family
// classifiers are built on.
package dataset

import (
	"fmt"
	"math"
)

// Kind distinguishes attribute domains.
type Kind int

const (
	// Continuous attributes have an ordered numeric domain; splits take
	// the form "A <= v".
	Continuous Kind = iota
	// Categorical attributes have a finite unordered domain; splits are
	// m-way (one child per domain value) or binary subset tests.
	Categorical
)

func (k Kind) String() string {
	switch k {
	case Continuous:
		return "continuous"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MaxCategories is the largest categorical domain supported. Child numbers
// travel through the distributed node table as single bytes, with one value
// reserved as the "inactive" sentinel.
const MaxCategories = 255

// MaxClasses is the largest number of class labels supported (class ids are
// stored as single bytes alongside every attribute-list entry).
const MaxClasses = 256

// Attribute describes one field of a record.
type Attribute struct {
	Name string
	Kind Kind
	// Values lists the categorical domain (value index i is named
	// Values[i]). Empty for continuous attributes.
	Values []string
}

// Cardinality returns the size of a categorical attribute's domain.
func (a Attribute) Cardinality() int { return len(a.Values) }

// Schema describes the attributes and class labels of a dataset.
type Schema struct {
	Attrs   []Attribute
	Classes []string
}

// Validate checks structural constraints and returns a descriptive error on
// the first violation.
func (s *Schema) Validate() error {
	if len(s.Attrs) == 0 {
		return fmt.Errorf("dataset: schema has no attributes")
	}
	if len(s.Classes) < 2 {
		return fmt.Errorf("dataset: schema needs at least 2 classes, has %d", len(s.Classes))
	}
	if len(s.Classes) > MaxClasses {
		return fmt.Errorf("dataset: schema has %d classes; max is %d", len(s.Classes), MaxClasses)
	}
	seen := map[string]bool{}
	for i, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("dataset: attribute %d has empty name", i)
		}
		if seen[a.Name] {
			return fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
		switch a.Kind {
		case Continuous:
			if len(a.Values) != 0 {
				return fmt.Errorf("dataset: continuous attribute %q has a categorical domain", a.Name)
			}
		case Categorical:
			if len(a.Values) < 2 {
				return fmt.Errorf("dataset: categorical attribute %q needs >= 2 values, has %d", a.Name, len(a.Values))
			}
			if len(a.Values) > MaxCategories {
				return fmt.Errorf("dataset: categorical attribute %q has %d values; max is %d", a.Name, len(a.Values), MaxCategories)
			}
		default:
			return fmt.Errorf("dataset: attribute %q has invalid kind %d", a.Name, int(a.Kind))
		}
	}
	return nil
}

// SameShape returns nil when data laid out under o can be read under s —
// the same number of attributes, of the same kinds in the same order, and
// the same number of classes; names and categorical domains are not compared
// — and otherwise an error naming the first difference.
func (s *Schema) SameShape(o *Schema) error {
	if s == o {
		return nil
	}
	if len(s.Attrs) != len(o.Attrs) || len(s.Classes) != len(o.Classes) {
		return fmt.Errorf("%d attrs and %d classes, not %d and %d",
			len(o.Attrs), len(o.Classes), len(s.Attrs), len(s.Classes))
	}
	for a := range s.Attrs {
		if s.Attrs[a].Kind != o.Attrs[a].Kind {
			return fmt.Errorf("attribute %d is %v, not %v", a, o.Attrs[a].Kind, s.Attrs[a].Kind)
		}
	}
	return nil
}

// NumAttrs returns the number of attributes.
func (s *Schema) NumAttrs() int { return len(s.Attrs) }

// NumClasses returns the number of class labels.
func (s *Schema) NumClasses() int { return len(s.Classes) }

// ContIndices returns the indices of the continuous attributes, in order.
func (s *Schema) ContIndices() []int {
	var out []int
	for i, a := range s.Attrs {
		if a.Kind == Continuous {
			out = append(out, i)
		}
	}
	return out
}

// CatIndices returns the indices of the categorical attributes, in order.
func (s *Schema) CatIndices() []int {
	var out []int
	for i, a := range s.Attrs {
		if a.Kind == Categorical {
			out = append(out, i)
		}
	}
	return out
}

// AttrIndex returns the index of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Table is a column-oriented set of labeled records conforming to a Schema.
// Continuous columns hold float64 values; categorical columns hold domain
// value indices. The zero Table is empty; use NewTable.
type Table struct {
	Schema *Schema
	// Class holds the class label index of each record.
	Class []uint8
	// cont[a] is non-nil iff attribute a is continuous.
	cont [][]float64
	// cat[a] is non-nil iff attribute a is categorical.
	cat [][]int32
}

// NewTable creates an empty table for the schema with capacity for n rows.
// The schema must already be valid.
func NewTable(s *Schema, n int) *Table {
	t := &Table{
		Schema: s,
		Class:  make([]uint8, 0, n),
		cont:   make([][]float64, len(s.Attrs)),
		cat:    make([][]int32, len(s.Attrs)),
	}
	for i, a := range s.Attrs {
		if a.Kind == Continuous {
			t.cont[i] = make([]float64, 0, n)
		} else {
			t.cat[i] = make([]int32, 0, n)
		}
	}
	return t
}

// NumRows returns the number of records.
func (t *Table) NumRows() int { return len(t.Class) }

// AppendRow adds one record. vals must have one entry per attribute:
// continuous attributes take their numeric value, categorical attributes
// take their domain value index (integral). class is the class label index.
// It returns an error for out-of-range categorical or class values, or
// non-finite continuous values.
func (t *Table) AppendRow(vals []float64, class int) error {
	if len(vals) != len(t.Schema.Attrs) {
		return fmt.Errorf("dataset: row has %d values; schema has %d attributes", len(vals), len(t.Schema.Attrs))
	}
	if class < 0 || class >= len(t.Schema.Classes) {
		return fmt.Errorf("dataset: class %d out of range [0,%d)", class, len(t.Schema.Classes))
	}
	for i, a := range t.Schema.Attrs {
		v := vals[i]
		if a.Kind == Continuous {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dataset: attribute %q value is not finite", a.Name)
			}
			continue
		}
		iv := int(v)
		if float64(iv) != v || iv < 0 || iv >= a.Cardinality() {
			return fmt.Errorf("dataset: attribute %q categorical value %v out of range [0,%d)", a.Name, v, a.Cardinality())
		}
	}
	for i, a := range t.Schema.Attrs {
		if a.Kind == Continuous {
			t.cont[i] = append(t.cont[i], vals[i])
		} else {
			t.cat[i] = append(t.cat[i], int32(vals[i]))
		}
	}
	t.Class = append(t.Class, uint8(class))
	return nil
}

// ContValue returns the value of continuous attribute a for record row.
func (t *Table) ContValue(a, row int) float64 { return t.cont[a][row] }

// CatValue returns the domain value index of categorical attribute a for
// record row.
func (t *Table) CatValue(a, row int) int32 { return t.cat[a][row] }

// ContColumn returns the backing column of continuous attribute a (nil for
// a categorical attribute). The slice is the table's own storage: callers
// must treat it as read-only. Hoisting columns once per table is the fast
// path for whole-table scans — Value re-checks the attribute kind on every
// single cell.
func (t *Table) ContColumn(a int) []float64 { return t.cont[a] }

// CatColumn returns the backing column of categorical attribute a (nil for
// a continuous attribute), holding domain value indices. Read-only, like
// ContColumn.
func (t *Table) CatColumn(a int) []int32 { return t.cat[a] }

// Value returns the value of attribute a for record row as a float64
// (categorical values are returned as their domain index).
func (t *Table) Value(a, row int) float64 {
	if t.Schema.Attrs[a].Kind == Continuous {
		return t.cont[a][row]
	}
	return float64(t.cat[a][row])
}

// Row materialises record row in AppendRow's value convention.
func (t *Table) Row(row int) []float64 {
	out := make([]float64, len(t.Schema.Attrs))
	for a := range t.Schema.Attrs {
		out[a] = t.Value(a, row)
	}
	return out
}

// ClassHistogram returns the per-class record counts.
func (t *Table) ClassHistogram() []int64 {
	h := make([]int64, t.Schema.NumClasses())
	for _, c := range t.Class {
		h[c]++
	}
	return h
}

// Slice returns a new table containing rows [lo, hi) of t. The underlying
// column storage is shared where possible (it is copied, since column
// layouts are append-only).
func (t *Table) Slice(lo, hi int) *Table {
	if lo < 0 || hi > t.NumRows() || lo > hi {
		panic(fmt.Sprintf("dataset: Slice(%d,%d) out of range [0,%d]", lo, hi, t.NumRows()))
	}
	out := NewTable(t.Schema, hi-lo)
	out.Class = append(out.Class, t.Class[lo:hi]...)
	for i, a := range t.Schema.Attrs {
		if a.Kind == Continuous {
			out.cont[i] = append(out.cont[i], t.cont[i][lo:hi]...)
		} else {
			out.cat[i] = append(out.cat[i], t.cat[i][lo:hi]...)
		}
	}
	return out
}

// Gather returns a new table containing rows idx[0], idx[1], ... of t, in
// that order. Indices may repeat — the bootstrap-resample path in forest
// training draws with replacement — but must be in range.
func (t *Table) Gather(idx []int) *Table {
	n := t.NumRows()
	for _, r := range idx {
		if r < 0 || r >= n {
			panic(fmt.Sprintf("dataset: Gather index %d out of range [0,%d)", r, n))
		}
	}
	out := NewTable(t.Schema, len(idx))
	for _, r := range idx {
		out.Class = append(out.Class, t.Class[r])
	}
	for i, a := range t.Schema.Attrs {
		if a.Kind == Continuous {
			col := t.cont[i]
			for _, r := range idx {
				out.cont[i] = append(out.cont[i], col[r])
			}
		} else {
			col := t.cat[i]
			for _, r := range idx {
				out.cat[i] = append(out.cat[i], col[r])
			}
		}
	}
	return out
}

// AppendTable appends every row of other (which must share t's schema) to t.
func (t *Table) AppendTable(other *Table) error {
	if other.Schema != t.Schema {
		return fmt.Errorf("dataset: AppendTable requires the identical schema")
	}
	t.Class = append(t.Class, other.Class...)
	for i, a := range t.Schema.Attrs {
		if a.Kind == Continuous {
			t.cont[i] = append(t.cont[i], other.cont[i]...)
		} else {
			t.cat[i] = append(t.cat[i], other.cat[i]...)
		}
	}
	return nil
}

// Split partitions the table into a training prefix of trainFrac·N rows and
// a test suffix with the remaining rows.
func (t *Table) Split(trainFrac float64) (train, test *Table) {
	if trainFrac < 0 || trainFrac > 1 {
		panic(fmt.Sprintf("dataset: Split fraction %v out of [0,1]", trainFrac))
	}
	cut := int(trainFrac * float64(t.NumRows()))
	return t.Slice(0, cut), t.Slice(cut, t.NumRows())
}
