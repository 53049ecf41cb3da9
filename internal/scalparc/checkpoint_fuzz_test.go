package scalparc

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/splitter"
	"repro/internal/tree"
)

// Checkpoint frames are read back from disk, so their decoders are a trust
// boundary. The fuzz seeds are the real frames of a three-level run under
// each split mode and badSharedFrames' named bad ones; frameFinders maps a
// fuzz selector to the options a shared frame must have been written under.
var frameFinders = []Options{
	{},
	{Split: SplitBinned, Bins: 16},
	{Split: SplitVote, Bins: 16, VoteK: 3},
}

// seedFrames runs three levels under opts on two ranks and returns the last
// level boundary's frames with the frontier size they were written for.
func seedFrames(f *testing.F, tab *dataset.Table, opts Options) (ck *Checkpoint, frontierNodes int) {
	cfg := splitter.Config{MaxDepth: 3}.Normalize()
	ck, _ = captureCheckpoint(f, tab, cfg, 2, opts)
	sh, err := decodeShared(ck.Shared, tab.Schema, &frameState{tag: opts.Split, bins: opts.Bins})
	if err != nil {
		f.Fatal(err)
	}
	return ck, len(sh.active)
}

// allocatedBy reports the heap bytes fn allocates, the least over three
// calls: the counter is process-wide, so a call can also be charged for
// another goroutine's allocations (the runtime's, or a parallel test's
// when go test runs the seeds). fn must be safe to repeat.
func allocatedBy(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzDecodeShared: the shared-frame decoder never panics, allocates in
// proportion to its input, and accepts only canonical frames — whatever it
// accepts re-encodes to the same bytes. The binary header, whose level-count
// and cut-vector guards are under test, is held to 64 bytes per input byte.
// The model document after it is tree.Decode's, where encoding/json
// allocates an element and a discarded type error per wrong-typed value (up
// to ~165 bytes per byte, for two-byte numbers where schema attributes
// belong), so the document's bytes alone get 256.
func FuzzDecodeShared(f *testing.F) {
	tab := faultData.tab(f)
	for i, opts := range frameFinders {
		ck, _ := seedFrames(f, tab, opts)
		f.Add(ck.Shared, uint8(i))
	}
	for _, b := range badSharedFrames(f, tab) {
		f.Add(b.frame, b.which)
	}
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		opts := frameFinders[int(which)%len(frameFinders)]
		st := &frameState{tag: opts.Split, bins: opts.Bins}
		var off int
		var err error
		if got, limit := allocatedBy(func() { _, off, err = decodeSharedHead(data, tab.Schema, st) }), uint64(64<<10+64*len(data)); got > limit {
			t.Fatalf("decoding the header of %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			off = len(data)
		}
		var sh *sharedFrame
		if got, limit := allocatedBy(func() { sh, err = decodeShared(data, tab.Schema, st) }), uint64(64<<10+64*off+256*(len(data)-off)); got > limit {
			t.Fatalf("decoding %d bytes (%d of model document) allocated %d (limit %d)", len(data), len(data)-off, got, limit)
		}
		if err != nil {
			return
		}
		wk := &worker{schema: tab.Schema, n: sh.n, levelStats: sh.levelStats, root: sh.root, active: sh.active}
		if again := wk.encodeShared(st); !bytes.Equal(again, data) {
			t.Fatalf("accepted shared frame re-encodes differently (%d bytes -> %d)", len(data), len(again))
		}
	})
}

// routeFrame decodes a shared frame written under opts and routes tab down
// its tree as a restore does, returning the frontier and the record map.
func routeFrame(data []byte, tab *dataset.Table, opts Options) ([]*tree.Node, []int32, error) {
	sh, err := decodeShared(data, tab.Schema, &frameState{tag: opts.Split, bins: opts.Bins})
	if err != nil {
		return nil, nil, err
	}
	if sh.n != tab.NumRows() {
		return nil, nil, fmt.Errorf("%d records, table has %d", sh.n, tab.NumRows())
	}
	wk := &worker{schema: tab.Schema, n: sh.n, levelStats: sh.levelStats, root: sh.root, active: sh.active}
	node, err := wk.frontierOf(tab)
	return sh.active, node, err
}

// FuzzRouteFrontier: a restore reads no record map from disk; it routes
// the table down whatever tree the shared frame holds. Whatever frame
// decodes, the routing never panics, and a map it accepts files each
// record under a frontier node or retires it, with every node's records,
// counted by class, its histogram. The seeds are the frames of runs on the
// table at several depths, with binary and m-way categorical splits, which
// must route, and frames grown on a same-size table from another seed,
// which the class-count check must refuse.
func FuzzRouteFrontier(f *testing.F) {
	tab := faultData.tab(f)
	other, err := datagen.Generate(datagen.Config{Function: 3, Attrs: datagen.Nine, Seed: 32}, tab.NumRows())
	if err != nil {
		f.Fatal(err)
	}
	for i, opts := range frameFinders {
		for _, cfg := range []splitter.Config{{MaxDepth: 2}, {MaxDepth: 4}, {MaxDepth: 3, CategoricalBinary: true}} {
			ck, _ := captureCheckpoint(f, tab, cfg.Normalize(), 2, opts)
			if _, _, err := routeFrame(ck.Shared, tab, opts); err != nil {
				f.Fatalf("%v %+v: the table does not route down its own frame: %v", opts.Split, cfg, err)
			}
			f.Add(ck.Shared, uint8(i))
		}
		ck, _ := captureCheckpoint(f, other, splitter.Config{MaxDepth: 3}.Normalize(), 2, opts)
		if _, _, err := routeFrame(ck.Shared, tab, opts); err == nil || !strings.Contains(err.Error(), "class counts") {
			f.Fatalf("%v: routing another table's frame: %v, want the class-count error", opts.Split, err)
		}
		f.Add(ck.Shared, uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		active, node, err := routeFrame(data, tab, frameFinders[int(which)%len(frameFinders)])
		if err != nil {
			return
		}
		if len(node) != tab.NumRows() {
			t.Fatalf("record map of %d entries for %d records", len(node), tab.NumRows())
		}
		nc := tab.Schema.NumClasses()
		counts := make([]int64, len(active)*nc)
		for r, i := range node {
			if i < -1 || int(i) >= len(active) {
				t.Fatalf("record %d filed under node %d of a %d-node frontier", r, i, len(active))
			}
			if i >= 0 {
				counts[int(i)*nc+int(tab.Class[r])]++
			}
		}
		for i, n := range active {
			if got := counts[i*nc : (i+1)*nc]; !slices.Equal(got, n.Hist) {
				t.Fatalf("accepted map files class counts %v under node %d, its histogram is %v", got, i, n.Hist)
			}
		}
	})
}
