package datagen

import (
	"fmt"

	"repro/internal/dataset"
)

// Wide-schema variant of the Quest generator for the attribute-voting
// experiments: the base projection's few informative attributes are padded
// with a configurable number of pure-noise continuous attributes (uniform
// in [0, 1), independent of the label). The label still depends only on
// the base attributes, so the schema is wide but sparsely informative —
// the regime where top-k voting's O(k) exchange beats the binned mode's
// O(attrs) one.

// WideSchema returns the Schema(set) attributes followed by noise
// continuous attributes named noise000, noise001, ...
func WideSchema(set AttrSet, noise int) *dataset.Schema {
	base := Schema(set)
	attrs := make([]dataset.Attribute, 0, len(base.Attrs)+noise)
	attrs = append(attrs, base.Attrs...)
	for i := 0; i < noise; i++ {
		attrs = append(attrs, dataset.Attribute{
			Name: fmt.Sprintf("noise%03d", i), Kind: dataset.Continuous,
		})
	}
	return &dataset.Schema{Attrs: attrs, Classes: base.Classes}
}

// GenerateWide produces n records under the configuration on the
// WideSchema(cfg.Attrs, noise) schema: the base attribute columns and the
// labels of Generate (same seed, same stream order), each record then
// drawing its noise columns from the same stream.
func GenerateWide(cfg Config, n, noise int) (*dataset.Table, error) {
	if noise < 0 {
		return nil, fmt.Errorf("datagen: negative noise attribute count %d", noise)
	}
	return generate(cfg, n, WideSchema(cfg.Attrs, noise), questFunction(cfg.Function))
}
