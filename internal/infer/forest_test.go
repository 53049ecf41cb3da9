package infer

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/tree"
)

// fuzzForest derives a 1..4-tree forest over one schema from the fuzz
// stream, reusing FuzzPredict's node builder.
func fuzzForest(rd *fuzzReader) *tree.Forest {
	schema := fuzzSchema(rd)
	f := &tree.Forest{Schema: schema}
	for n := 1 + int(rd.next())%4; n > 0; n-- {
		f.Trees = append(f.Trees, &tree.Tree{Schema: schema, Root: fuzzNode(rd, schema, 0)})
	}
	return f
}

// FuzzCompileForest is the forest engine's differential fuzzer: the
// compiled batch-vote kernel must match the per-tree pointer walkers' vote
// bit for bit — including NaN, ±Inf, and out-of-domain categorical rows on
// the single-row path, and whole tables on the batched path.
func FuzzCompileForest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 128, 64, 32, 16})
	f.Add([]byte("forest vote ties break to the lowest class index"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := &fuzzReader{data: data}
		fr := fuzzForest(rd)
		m, err := CompileForest(fr)
		if err != nil {
			t.Fatalf("fuzz-built forest failed to compile: %v", err)
		}

		// Single-row differential over adversarial values.
		row := make([]float64, fr.Schema.NumAttrs())
		for i := 0; i < 64; i++ {
			for a := range row {
				row[a] = fuzzValue(rd, fr.Schema.Attrs[a])
			}
			want := fr.Predict(row)
			if got := m.Predict(row); got != want {
				t.Fatalf("row %v: compiled=%d walker-vote=%d (%d trees)", row, got, want, fr.NumTrees())
			}
		}

		// Batched differential over valid table rows.
		tab := dataset.NewTable(fr.Schema, 64)
		for i := 0; i < 64; i++ {
			for a := range row {
				row[a] = fuzzTableValue(rd, fr.Schema.Attrs[a])
			}
			if err := tab.AppendRow(row, int(rd.next())%fr.Schema.NumClasses()); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]int, tab.NumRows())
		fr.PredictTableWalk(tab, want)
		got, err := m.PredictTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("table row %d (%v): compiled=%d walker-vote=%d", r, tab.Row(r), got[r], want[r])
			}
		}
	})
}

// TestForestVoteTreeOrderInvariance quick-checks that forest predictions
// never depend on tree order: the vote tally is a commutative sum and the
// tie rule (lowest class index) looks only at the tally, so any permutation
// of the trees must classify every row identically — both through the
// walker and through the compiled engine, which re-compiles the permuted
// forest into a differently-laid-out flat table.
func TestForestVoteTreeOrderInvariance(t *testing.T) {
	rd := &fuzzReader{data: []byte("order-invariance: many trees, deliberate vote ties")}
	schema := fuzzSchema(rd)
	base := &tree.Forest{Schema: schema}
	for i := 0; i < 7; i++ {
		base.Trees = append(base.Trees, &tree.Tree{Schema: schema, Root: fuzzNode(rd, schema, 0)})
	}
	tab := dataset.NewTable(schema, 256)
	row := make([]float64, schema.NumAttrs())
	for i := 0; i < 256; i++ {
		for a := range row {
			row[a] = fuzzTableValue(rd, schema.Attrs[a])
		}
		if err := tab.AppendRow(row, int(rd.next())%schema.NumClasses()); err != nil {
			t.Fatal(err)
		}
	}
	want := base.PredictTable(tab)

	check := func(seed int64) bool {
		perm := &tree.Forest{Schema: schema, Trees: append([]*tree.Tree(nil), base.Trees...)}
		rand.New(rand.NewSource(seed)).Shuffle(len(perm.Trees), func(i, j int) {
			perm.Trees[i], perm.Trees[j] = perm.Trees[j], perm.Trees[i]
		})
		got := perm.PredictTable(tab)
		m, err := CompileForest(perm)
		if err != nil {
			return false
		}
		compiled, err := m.PredictTable(tab)
		if err != nil {
			return false
		}
		for r := range want {
			if got[r] != want[r] || compiled[r] != want[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCompileForestSingleTreeMatchesModel pins that the two constructors
// build one type: Compile(t) and CompileForest(forest-of-one) produce the
// identical node table and footprint, predict identically on the table and
// row paths (a vote of one is the label itself), allocate nothing in steady
// state on either path, and leave the scratch pool balanced.
func TestCompileForestSingleTreeMatchesModel(t *testing.T) {
	rd := &fuzzReader{data: []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4}}
	schema := fuzzSchema(rd)
	tr := &tree.Tree{Schema: schema, Root: fuzzNode(rd, schema, 0)}
	single, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := CompileForest(&tree.Forest{Schema: schema, Trees: []*tree.Tree{tr}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(single.nodes, forest.nodes) || !slices.Equal(single.subset, forest.subset) ||
		!slices.Equal(single.roots, forest.roots) {
		t.Fatal("Compile and CompileForest of a forest of one built different tables")
	}
	if sf, ff := single.Footprint(), forest.Footprint(); sf != ff || sf.Trees != 1 || sf.Nodes != tr.NumNodes() ||
		sf.Leaves != tr.NumLeaves() || sf.Depth != tr.Depth() {
		t.Fatalf("footprints %+v / %+v, want equal and matching the tree (%d nodes, %d leaves, depth %d)",
			sf, ff, tr.NumNodes(), tr.NumLeaves(), tr.Depth())
	}
	tab := dataset.NewTable(schema, 128)
	row := make([]float64, schema.NumAttrs())
	var rows [][]float64
	for i := 0; i < 128; i++ {
		for a := range row {
			row[a] = fuzzTableValue(rd, schema.Attrs[a])
		}
		if err := tab.AppendRow(row, int(rd.next())%schema.NumClasses()); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, slices.Clone(row))
	}
	gets0, puts0 := ScratchBalance()
	want, err := single.PredictTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	got, err := forest.PredictTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	gotRows := make([]int, len(rows))
	if err := forest.PredictRowsInto(rows, gotRows); err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got[r] != want[r] || gotRows[r] != want[r] {
			t.Fatalf("row %d: one-tree forest table=%d rows=%d, single model=%d", r, got[r], gotRows[r], want[r])
		}
	}
	for name, m := range map[string]*Model{"Compile": single, "CompileForest": forest} {
		if raceEnabled {
			break
		}
		if a := testing.AllocsPerRun(50, func() {
			if err := m.PredictTableInto(tab, got); err != nil {
				t.Fatal(err)
			}
		}); a >= 1 { // a GC emptying the pool mid-run may cost a fraction
			t.Errorf("%s: steady-state PredictTableInto allocates %.1f objects per call", name, a)
		}
		if a := testing.AllocsPerRun(50, func() {
			if err := m.PredictRowsInto(rows, gotRows); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: PredictRowsInto allocates %.1f objects per call", name, a)
		}
	}
	gets1, puts1 := ScratchBalance()
	if gets1-gets0 != puts1-puts0 {
		t.Fatalf("scratch pool unbalanced: %d gets vs %d puts", gets1-gets0, puts1-puts0)
	}
}

// TestForestSteadyStateAllocs is the vote kernel's half of the allocation
// pin: with a tally in the pooled workspace, a multi-tree model also
// classifies tables and row batches without allocating.
func TestForestSteadyStateAllocs(t *testing.T) {
	rd := &fuzzReader{data: []byte("three trees share one pooled vote tally")}
	fr := fuzzForest(rd)
	for fr.NumTrees() < 2 {
		fr.Trees = append(fr.Trees, fr.Trees[0])
	}
	m, err := CompileForest(fr)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, batchRows+3)
	tab := dataset.NewTable(fr.Schema, len(rows))
	for i := range rows {
		rows[i] = make([]float64, fr.Schema.NumAttrs())
		for a := range rows[i] {
			rows[i][a] = fuzzTableValue(rd, fr.Schema.Attrs[a])
		}
		if err := tab.AppendRow(rows[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]int, len(rows))
	gets0, puts0 := ScratchBalance()
	if a := testing.AllocsPerRun(50, func() {
		if err := m.PredictTableInto(tab, out); err != nil {
			t.Fatal(err)
		}
		if err := m.PredictRowsInto(rows, out); err != nil {
			t.Fatal(err)
		}
	}); a >= 1 && !raceEnabled {
		t.Fatalf("steady-state forest prediction allocates %.1f objects per table+rows call", a)
	}
	if err := m.PredictRowsInto(rows, out[1:]); err == nil {
		t.Fatal("wrong out length accepted")
	}
	if gets, puts := ScratchBalance(); gets-gets0 != puts-puts0 || gets == gets0 {
		t.Fatalf("scratch pool: %d gets vs %d puts", gets-gets0, puts-puts0)
	}
	for i, row := range rows {
		if want := fr.Predict(row); out[i] != want {
			t.Fatalf("row %d: compiled=%d walker-vote=%d", i, out[i], want)
		}
	}
}
