package scalparc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/serial"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/tree"
)

// randomDataset builds a random schema (random mix of continuous and
// categorical attributes, random class count) and a random table over it,
// with heavy value duplication to stress tie handling.
func randomDataset(rng *rand.Rand) *dataset.Table {
	nAttrs := 1 + rng.Intn(4)
	nClasses := 2 + rng.Intn(3)
	s := &dataset.Schema{}
	for a := 0; a < nAttrs; a++ {
		if rng.Intn(2) == 0 {
			s.Attrs = append(s.Attrs, dataset.Attribute{
				Name: fmt.Sprintf("c%d", a), Kind: dataset.Continuous,
			})
		} else {
			card := 2 + rng.Intn(5)
			vals := make([]string, card)
			for v := range vals {
				vals[v] = fmt.Sprintf("v%d", v)
			}
			s.Attrs = append(s.Attrs, dataset.Attribute{
				Name: fmt.Sprintf("k%d", a), Kind: dataset.Categorical, Values: vals,
			})
		}
	}
	for c := 0; c < nClasses; c++ {
		s.Classes = append(s.Classes, fmt.Sprintf("C%d", c))
	}

	n := 1 + rng.Intn(120)
	tab := dataset.NewTable(s, n)
	row := make([]float64, nAttrs)
	for i := 0; i < n; i++ {
		for a, attr := range s.Attrs {
			if attr.Kind == dataset.Continuous {
				// Few distinct values -> long runs of duplicates that
				// straddle rank boundaries.
				row[a] = float64(rng.Intn(6))
			} else {
				row[a] = float64(rng.Intn(attr.Cardinality()))
			}
		}
		if err := tab.AppendRow(row, rng.Intn(nClasses)); err != nil {
			panic(err)
		}
	}
	return tab
}

// TestOracleProperty: for random schemas, data, configurations, and
// processor counts, ScalParC induces the serial tree exactly.
func TestOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := randomDataset(rng)
		cfg := splitter.Config{
			MaxDepth: rng.Intn(6), // 0 = unlimited
			MinSplit: rng.Intn(8),
		}
		want, err := serial.Train(tab, cfg)
		if err != nil {
			t.Logf("seed %d: serial: %v", seed, err)
			return false
		}
		p := 1 + rng.Intn(7)
		w := comm.NewWorld(p, timing.T3D())
		opts := Options{
			PerNodeComms:    rng.Intn(4) == 0,
			RebalanceLevels: rng.Intn(3) == 0,
		}
		if !opts.PerNodeComms {
			opts.BatchedEnquiry = rng.Intn(3) == 0
		}
		res, err := TrainOpts(w, tab, cfg, opts)
		if err != nil {
			t.Logf("seed %d: parallel: %v", seed, err)
			return false
		}
		if !res.Tree.Equal(want) {
			t.Logf("seed %d: trees differ (n=%d, p=%d, cfg=%+v)", seed, tab.NumRows(), p, cfg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramInvariantProperty: in every induced tree, each internal
// node's histogram equals the sum of its children's, and leaf labels are
// the majority class.
func TestHistogramInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := randomDataset(rng)
		w := comm.NewWorld(1+rng.Intn(5), timing.T3D())
		res, err := TrainOpts(w, tab, splitter.Config{}, Options{})
		if err != nil {
			return false
		}
		ok := true
		stack := []*tree.Node{res.Tree.Root}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n.Leaf {
				best, bc := 0, int64(-1)
				for j, c := range n.Hist {
					if c > bc {
						best, bc = j, c
					}
				}
				if n.Size() > 0 && n.Label != best {
					ok = false
				}
				continue
			}
			sum := make([]int64, len(n.Hist))
			for _, ch := range n.Children {
				for j := range sum {
					sum[j] += ch.Hist[j]
				}
				stack = append(stack, ch)
			}
			for j := range sum {
				if sum[j] != n.Hist[j] {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
